// Open-loop wire load generator.
//
// One thread issues single-image requests on a precomputed schedule over a
// small pool of loopback connections, speaking the frame format of
// serve/transport.h. Sockets are non-blocking, so the thread never waits on
// a reply: the schedule does not bend to the server (an open loop, as
// independent clients behave). Each connection carries one frame at a time,
// like a client pool without HTTP-style pipelining; a request that finds
// every connection busy waits in a client-side FIFO. Every request is timed
// from the moment it was DUE, so a stall of the generator, the pool or the
// server is charged to every request that waited behind it, and the
// generator's own lateness is recorded as a validity check.
//
// Why not pipeline: the transport's accepted sockets keep Nagle's algorithm
// on, so a second frame on one connection waits for the client's delayed
// ACK (tens of ms). pipelined_rtt_us below measures that directly.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "serve/transport.h"
#include "trace.h"
#include "util/net.h"

namespace perfbench {

struct OpenLoopConfig {
  std::uint16_t port = 0;
  std::string model_id;
  int connections = 1;
  std::vector<double> due_s;          // per request, seconds from start
  std::vector<std::int32_t> image;    // per request, index into `images`
  const float* images = nullptr;      // pool, `sample_numel` floats each
  std::int64_t sample_numel = 0;
  // Responses still missing this long after the last due time count as
  // transport failures.
  double drain_timeout_s = 5.0;
  // Test hook: sleep this long just before sending request `stall_index`.
  std::int64_t stall_index = -1;
  std::int64_t stall_us = 0;
};

// Verifies one kOk response: (request index, logits, logit count).
using ResponseCheck =
    std::function<bool(std::size_t, const float*, std::uint32_t)>;

struct OpenLoopResult {
  // Per request: due -> response latency (ms); +inf for every request that
  // did not come back kOk, so failures count as misses of any limit.
  std::vector<double> latency_ms;
  std::vector<double> lateness_us;  // per sent request: send - due
  std::vector<std::uint64_t> by_status = std::vector<std::uint64_t>(7, 0);
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;      // any non-kOk outcome, including no reply
  std::uint64_t mismatched = 0;  // kOk replies that failed the check
  double elapsed_s = 0.0;
};

namespace detail {

struct Conn {
  csq::net::UniqueFd fd;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::deque<std::size_t> pending;  // request indices, FIFO per connection
};

inline void put(std::vector<std::uint8_t>& buf, const void* src,
                std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  buf.insert(buf.end(), p, p + n);
}

inline void append_frame(std::vector<std::uint8_t>& buf,
                         const std::string& model, const float* sample,
                         std::uint32_t count) {
  const std::uint16_t id_len = static_cast<std::uint16_t>(model.size());
  const std::int64_t deadline = -1;
  const std::uint32_t body = static_cast<std::uint32_t>(
      2 + model.size() + 8 + 4 + 4 * static_cast<std::size_t>(count));
  put(buf, &body, 4);
  put(buf, &id_len, 2);
  put(buf, model.data(), model.size());
  put(buf, &deadline, 8);
  put(buf, &count, 4);
  put(buf, sample, 4 * static_cast<std::size_t>(count));
}

inline std::size_t live(const std::vector<Conn>& conns) {
  std::size_t count = 0;
  for (const Conn& conn : conns) count += conn.fd.valid() ? 1 : 0;
  return count;
}

inline std::size_t busy(const std::vector<Conn>& conns) {
  std::size_t count = 0;
  for (const Conn& conn : conns) count += conn.pending.size();
  return count;
}

}  // namespace detail

inline OpenLoopResult run_open_loop(const OpenLoopConfig& config,
                                    const ResponseCheck& check,
                                    Tracer* tracer = nullptr) {
  const std::size_t n = config.due_s.size();
  OpenLoopResult result;
  result.latency_ms.assign(n, std::numeric_limits<double>::infinity());
  std::vector<std::int64_t> due_ns(n);
  std::vector<std::uint8_t> done(n, 0);

  std::vector<detail::Conn> conns(static_cast<std::size_t>(config.connections));
  for (detail::Conn& conn : conns) {
    conn.fd = csq::net::connect_loopback(config.port);
    if (conn.fd.valid()) {
      const int one = 1;
      ::setsockopt(conn.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      csq::net::set_nonblocking(conn.fd.get());
    }
  }

  const std::int64_t start = now_ns() + 2'000'000;  // 2 ms lead
  for (std::size_t i = 0; i < n; ++i) {
    due_ns[i] = start + static_cast<std::int64_t>(config.due_s[i] * 1e9);
  }
  const std::int64_t give_up =
      (n ? due_ns[n - 1] : start) +
      static_cast<std::int64_t>(config.drain_timeout_s * 1e9);

  const auto fail = [&](std::size_t request, csq::serve::WireStatus status) {
    if (done[request]) return;
    done[request] = 1;
    ++result.failed;
    ++result.by_status[static_cast<std::size_t>(status)];
  };
  const auto kill = [&](detail::Conn& conn) {
    for (const std::size_t request : conn.pending) {
      fail(request, csq::serve::WireStatus::kTransportError);
    }
    conn.pending.clear();
    conn.out.clear();
    conn.out_off = 0;
    conn.fd.reset();
  };

  std::size_t next = 0;
  std::deque<std::size_t> waiting;  // due, not yet on a connection
  std::vector<pollfd> fds(conns.size());
  std::vector<std::uint8_t> scratch(1 << 16);
  for (;;) {
    std::int64_t now = now_ns();
    // Everything due joins the client-side FIFO; the generator's lateness
    // is how late it noticed a request was due.
    while (next < n && due_ns[next] <= now) {
      if (static_cast<std::int64_t>(next) == config.stall_index) {
        std::this_thread::sleep_for(std::chrono::microseconds(config.stall_us));
      }
      result.lateness_us.push_back(
          static_cast<double>(now_ns() - due_ns[next]) / 1e3);
      waiting.push_back(next);
      ++result.sent;
      ++next;
    }
    // Hand waiting requests to idle connections, one frame in flight each.
    for (detail::Conn& conn : conns) {
      if (waiting.empty()) break;
      if (!conn.fd.valid() || !conn.pending.empty()) continue;
      const std::size_t request = waiting.front();
      waiting.pop_front();
      conn.out.clear();
      conn.out_off = 0;
      detail::append_frame(
          conn.out, config.model_id,
          config.images + static_cast<std::int64_t>(config.image[request]) *
                              config.sample_numel,
          static_cast<std::uint32_t>(config.sample_numel));
      conn.pending.push_back(request);
    }
    if (detail::live(conns) == 0) {
      for (const std::size_t request : waiting) {
        fail(request, csq::serve::WireStatus::kTransportError);
      }
      waiting.clear();
    }
    // Flush pending output without blocking.
    for (detail::Conn& conn : conns) {
      while (conn.fd.valid() && conn.out_off < conn.out.size()) {
        const ssize_t w =
            ::send(conn.fd.get(), conn.out.data() + conn.out_off,
                   conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (w > 0) {
          conn.out_off += static_cast<std::size_t>(w);
        } else if (w < 0 && errno == EINTR) {
          continue;
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          kill(conn);
        }
      }
    }
    if (next >= n && waiting.empty() && detail::busy(conns) == 0) break;
    now = now_ns();
    if (now >= give_up) break;

    std::int64_t wait_ns = give_up - now;
    if (next < n) wait_ns = std::max<std::int64_t>(0, std::min(wait_ns, due_ns[next] - now));
    for (std::size_t c = 0; c < conns.size(); ++c) {
      detail::Conn& conn = conns[c];
      fds[c].fd = conn.fd.valid() ? conn.fd.get() : -1;
      fds[c].events = POLLIN;
      if (conn.out_off < conn.out.size()) fds[c].events |= POLLOUT;
      fds[c].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready =
        ::ppoll(fds.data(), static_cast<nfds_t>(fds.size()), &ts, nullptr);
    if (ready <= 0) continue;
    const std::int64_t polled_at = now_ns();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      detail::Conn& conn = conns[c];
      if (!conn.fd.valid() || !(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) {
        continue;
      }
      bool dead = false;
      for (;;) {
        const ssize_t r = ::recv(conn.fd.get(), scratch.data(), scratch.size(), 0);
        if (r > 0) {
          conn.in.insert(conn.in.end(), scratch.data(), scratch.data() + r);
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;  // EOF or error
        break;
      }
      // Parse complete response frames (served in order per connection).
      std::size_t off = 0;
      while (conn.in.size() - off >= 4) {
        std::uint32_t body = 0;
        std::memcpy(&body, conn.in.data() + off, 4);
        if (conn.in.size() - off < 4 + static_cast<std::size_t>(body)) break;
        const std::uint8_t* frame = conn.in.data() + off + 4;
        std::uint8_t status = 6;
        std::uint32_t count = 0;
        if (body >= 5) {
          status = frame[0];
          std::memcpy(&count, frame + 1, 4);
        }
        if (conn.pending.empty() || body < 5 ||
            body != 5 + 4 * static_cast<std::size_t>(count) || status > 6) {
          dead = true;
          break;
        }
        const std::size_t request = conn.pending.front();
        conn.pending.pop_front();
        if (status == 0) {
          std::vector<float> logits(count);
          std::memcpy(logits.data(), frame + 5, 4 * static_cast<std::size_t>(count));
          if (check(request, logits.data(), count)) {
            done[request] = 1;
            ++result.succeeded;
            ++result.by_status[0];
            result.latency_ms[request] =
                static_cast<double>(polled_at - due_ns[request]) / 1e6;
            if (tracer != nullptr) {
              tracer->record("wire.request", due_ns[request], polled_at,
                             Tracer::kNone, static_cast<std::int64_t>(request));
            }
          } else {
            done[request] = 1;
            ++result.failed;
            ++result.mismatched;
          }
        } else {
          fail(request, static_cast<csq::serve::WireStatus>(status));
        }
        off += 4 + body;
      }
      conn.in.erase(conn.in.begin(), conn.in.begin() + static_cast<std::ptrdiff_t>(off));
      if (dead) kill(conn);
    }
  }
  // Anything never sent or never answered is a transport failure.
  for (std::size_t i = 0; i < n; ++i) {
    fail(i, csq::serve::WireStatus::kTransportError);
  }
  result.elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  return result;
}

// Round trips on one connection: `warmup` single frames (the connection
// leaves TCP's initial quick-ACK mode), then `pairs` times two frames
// written back to back. Returns the microseconds from each pair's write to
// its second reply; empty on any failure. On a server that leaves Nagle on,
// the second reply waits for the client's delayed ACK of the first.
inline std::vector<double> pipelined_rtt_us(std::uint16_t port,
                                            const std::string& model,
                                            const float* sample,
                                            std::uint32_t count, int warmup,
                                            int pairs) {
  csq::net::UniqueFd fd = csq::net::connect_loopback(port);
  if (!fd.valid()) return {};
  std::vector<std::uint8_t> one, two;
  detail::append_frame(one, model, sample, count);
  two = one;
  detail::append_frame(two, model, sample, count);
  const auto read_reply = [&]() {
    std::uint32_t body = 0;
    if (!csq::net::read_full(fd.get(), &body, 4) || body < 1 || body > (1u << 20)) {
      return false;
    }
    std::vector<std::uint8_t> frame(body);
    return csq::net::read_full(fd.get(), frame.data(), body) && frame[0] == 0;
  };
  for (int i = 0; i < warmup; ++i) {
    if (!csq::net::write_full(fd.get(), one.data(), one.size()) || !read_reply()) {
      return {};
    }
  }
  std::vector<double> us;
  for (int i = 0; i < pairs; ++i) {
    const std::int64_t start = now_ns();
    if (!csq::net::write_full(fd.get(), two.data(), two.size()) ||
        !read_reply() || !read_reply()) {
      return {};
    }
    us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return us;
}

}  // namespace perfbench

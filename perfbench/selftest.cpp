// The benchmark's own tests: the tail-percentile rule, open-loop timing from
// due time, and seed determinism of every generated input. Built with the
// benchmark; perfbench/test_perfbench.py runs it together with the check
// that every emitted metric name matches BENCHMARK.json.
//
//   csq_perfbench_selftest      # exit code 0 when every check passes
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "openloop.h"
#include "stats.h"
#include "util/net.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile_rule() {
  using perfbench::supported_tail;
  const auto exact = supported_tail(ramp(1000));
  expect(exact.ok && exact.pct.p == 0.99 && exact.pct.value == 990.0 &&
             exact.pct.beyond == 10,
         "p99 of 1000 samples is the 990th with 10 samples beyond it");
  const auto short_tail = supported_tail(ramp(999));
  expect(short_tail.ok && short_tail.pct.p < 0.99 &&
             short_tail.pct.beyond >= perfbench::kMinBeyond,
         "999 samples do not support a p99; a lower percentile with 10 "
         "beyond is reported instead");
  const auto tiny = supported_tail(ramp(15));
  expect(!tiny.ok, "15 samples support no tail percentile");
  expect(perfbench::median(ramp(5)) == 3.0, "median of 1..5 is 3");
  expect(perfbench::nearest_rank(ramp(100), 0.5).beyond == 50,
         "nearest rank p50 of 100 leaves 50 beyond");
}

// Loopback server speaking the transport's response format: answers every
// request frame at once with kOk and two logits.
class EchoServer {
 public:
  EchoServer() {
    listener_ = csq::net::listen_loopback(0, 16, &port_);
    thread_ = std::thread([this] { loop(); });
  }
  ~EchoServer() {
    stop_ = true;
    thread_.join();
  }
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;
  std::uint16_t port() const { return port_; }

 private:
  void loop() {
    std::vector<csq::net::UniqueFd> conns;
    std::vector<std::vector<std::uint8_t>> bufs;
    while (!stop_) {
      std::vector<pollfd> fds{{listener_.get(), POLLIN, 0}};
      for (const auto& c : conns) fds.push_back({c.get(), POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
      if (fds[0].revents & POLLIN) {
        const int fd = ::accept(listener_.get(), nullptr, nullptr);
        if (fd >= 0) {
          conns.emplace_back(fd);
          bufs.emplace_back();
        }
      }
      for (std::size_t i = 1; i < fds.size(); ++i) {
        if (!(fds[i].revents & POLLIN)) continue;
        std::uint8_t chunk[1 << 15];
        const ssize_t r = ::recv(fds[i].fd, chunk, sizeof(chunk), 0);
        if (r <= 0) continue;
        auto& buf = bufs[i - 1];
        buf.insert(buf.end(), chunk, chunk + r);
        while (buf.size() >= 4) {
          std::uint32_t body = 0;
          std::memcpy(&body, buf.data(), 4);
          if (buf.size() < 4 + body) break;
          buf.erase(buf.begin(), buf.begin() + 4 + body);
          std::uint8_t reply[4 + 1 + 4 + 8] = {};
          const std::uint32_t reply_body = 1 + 4 + 8, count = 2;
          std::memcpy(reply, &reply_body, 4);
          std::memcpy(reply + 5, &count, 4);
          csq::net::write_full(fds[i].fd, reply, sizeof(reply));
        }
      }
    }
  }

  csq::net::UniqueFd listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

perfbench::OpenLoopResult echo_run(std::uint16_t port, std::int64_t stall_index,
                                   std::int64_t stall_us) {
  std::vector<float> image(4, 0.5f);
  perfbench::OpenLoopConfig config;
  config.port = port;
  config.model_id = "m";
  config.connections = 2;
  config.due_s = perfbench::poisson_schedule(7, 1000.0, 0.5);
  config.image.assign(config.due_s.size(), 0);
  config.images = image.data();
  config.sample_numel = 4;
  config.stall_index = stall_index;
  config.stall_us = stall_us;
  return perfbench::run_open_loop(
      config, [](std::size_t, const float*, std::uint32_t count) {
        return count == 2;
      });
}

void test_open_loop_counts_from_due_time() {
  EchoServer server;
  const perfbench::OpenLoopResult calm = echo_run(server.port(), -1, 0);
  const std::int64_t stall_at = 100;
  const std::int64_t stall_us = 60'000;
  const perfbench::OpenLoopResult stalled =
      echo_run(server.port(), stall_at, stall_us);
  expect(calm.failed == 0 && stalled.failed == 0 &&
             calm.succeeded == calm.sent && stalled.succeeded == stalled.sent,
         "every echo request succeeds");
  expect(stalled.latency_ms[stall_at] >= stall_us / 1e3,
         "the request the generator stalled on carries the whole stall");
  // Requests due during the stall were sent late; timed from due time,
  // each one still shows the part of the stall it waited through.
  int late_requests = 0;
  bool charged = true;
  for (std::size_t i = stall_at + 1; i < stalled.latency_ms.size(); ++i) {
    if (stalled.lateness_us[i] > 1000.0) {
      ++late_requests;
      charged = charged && stalled.latency_ms[i] >= stalled.lateness_us[i] / 1e3;
    }
  }
  expect(late_requests >= 20 && charged,
         "requests due during the stall are charged their wait");
  const double calm_p95 = perfbench::supported_tail(calm.latency_ms, 0.95).pct.value;
  const double stalled_p95 =
      perfbench::supported_tail(stalled.latency_ms, 0.95).pct.value;
  expect(stalled_p95 >= 20.0 && stalled_p95 > 2.0 * calm_p95,
         "the stall shows in the latency tail");
  const auto late = std::max_element(stalled.lateness_us.begin(),
                                     stalled.lateness_us.end());
  expect(*late >= stall_us * 0.9, "the generator's lateness records the stall");
}

void test_seed_determinism() {
  using perfbench::image_choices;
  using perfbench::poisson_schedule;
  expect(poisson_schedule(11, 300.0, 2.0) == poisson_schedule(11, 300.0, 2.0),
         "the same seed gives the same arrival schedule");
  expect(poisson_schedule(11, 300.0, 2.0) != poisson_schedule(12, 300.0, 2.0),
         "another seed gives another arrival schedule");
  const auto sched = poisson_schedule(11, 300.0, 20.0);
  const double rate = static_cast<double>(sched.size()) / 20.0;
  expect(rate > 270.0 && rate < 330.0, "the schedule offers the stated rate");
  expect(image_choices(5, 100, 512) == image_choices(5, 100, 512) &&
             image_choices(5, 100, 512) != image_choices(6, 100, 512),
         "image picks follow the seed");

  const csq::InMemoryDataset a = perfbench::make_images(3, 16);
  const csq::InMemoryDataset b = perfbench::make_images(3, 16);
  const csq::InMemoryDataset c = perfbench::make_images(4, 16);
  const auto bytes = static_cast<std::size_t>(a.images().numel()) * sizeof(float);
  expect(std::memcmp(a.images().data(), b.images().data(), bytes) == 0 &&
             a.labels() == b.labels(),
         "the same seed gives the same images");
  expect(std::memcmp(a.images().data(), c.images().data(), bytes) != 0,
         "another seed gives other images");

  std::vector<csq::CsqWeightSource*> ra, rb, rc;
  csq::Model ma = perfbench::build_resnet(9, &ra, true);
  csq::Model mb = perfbench::build_resnet(9, &rb, true);
  csq::Model mc = perfbench::build_resnet(10, &rc, true);
  const auto& pa = ma.arena();
  const auto& pb = mb.arena();
  const auto& pc = mc.arena();
  const auto n = static_cast<std::size_t>(pa.size()) * sizeof(float);
  expect(pa.size() == pb.size() && std::memcmp(pa.values(), pb.values(), n) == 0,
         "the same seed gives the same weight initialisation");
  expect(std::memcmp(pa.values(), pc.values(), n) != 0,
         "another seed gives another weight initialisation");
  expect(static_cast<int>(ra.size()) == perfbench::kBitListSize,
         "the bit list covers every quantized layer");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_open_loop_counts_from_due_time();
  test_seed_determinism();
  std::cout << (failures == 0 ? "all checks passed" : "checks failed") << "\n";
  return failures == 0 ? 0 : 1;
}

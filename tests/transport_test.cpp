// Cross-process serving tests (`ctest -L serve_transport`, also swept by
// the sanitize/tsan presets):
//
//  * Transport.*    — the loopback TCP front of the batching server: wire
//    round trips bit-identical to in-process infer, concurrent clients,
//    malformed/oversized/bad-deadline frames, pipelined frames clear of
//    the delayed-ACK stall, listener-first graceful drain, and the
//    transport.{accept,read,write} failpoints;
//  * TransportFuzz.* — truncation, bit-flip and length-field sweeps of a
//    recorded request frame against a live transport: every case gets
//    kBadRequest (or, where the mutation leaves a well-formed request, its
//    ordinary answer) or drops only its own connection, while a clean
//    client alongside keeps getting bit-identical replies;
//  * ReplicaScaling.* — BatchingServer::set_replicas: runtime scale-up
//    (bootstrapped from the restore template, bit-identical results) and
//    cooperative scale-down with no dropped requests;
//  * Autoscaler.*   — the queue-driven policy loop: replicas climb under
//    sustained backlog and fall back to the floor when idle;
//  * MmapArtifact.* — load_graph_mmap: borrowed weight pages, forwards
//    bit-identical to load_graph, replicas sharing one mapping, save_graph
//    rejecting borrowed programs, and pre-v5 artifacts rejected cleanly.
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/csq_weight.h"
#include "nn/models.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "runtime/packed_weights.h"
#include "serve/autoscaler.h"
#include "serve/batching_server.h"
#include "serve/transport.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/net.h"
#include "util/rng.h"

namespace csq {
namespace {

using testing::random_tensor;

constexpr std::int64_t kSide = 12;
constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kSampleNumel = kChannels * kSide * kSide;

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "csq_transport_" + tag + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".csqm";
}

// A small finalized 3-bit CSQ ResNet-20, lowered and calibrated (same
// substrate as serve_test.cpp).
runtime::CompiledGraph make_calibrated_graph() {
  Rng rng(9001);
  std::vector<CsqWeightSource*> registry;
  ModelConfig model_config;
  model_config.base_width = 4;
  CsqWeightOptions weight_options;
  weight_options.fixed_precision = 3;
  Model model = make_resnet20(
      model_config, csq_weight_factory(&registry, weight_options), nullptr,
      rng);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions options;
  options.in_channels = kChannels;
  options.in_height = kSide;
  options.in_width = kSide;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  Rng calib_rng(9002);
  Tensor calib = random_tensor({8, kChannels, kSide, kSide}, calib_rng);
  graph.calibrate(calib);
  return graph;
}

void expect_bit_identical(const Tensor& expected, const float* actual,
                          const char* what) {
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << ": logit " << i;
  }
}

// Precomputed single-sample forwards: the oracle every wire response is
// compared against bit-for-bit.
std::vector<Tensor> single_sample_oracle(runtime::CompiledGraph& graph,
                                         const Tensor& samples) {
  const std::int64_t n = samples.shape()[0];
  std::vector<Tensor> expected;
  expected.reserve(static_cast<std::size_t>(n));
  for (std::int64_t s = 0; s < n; ++s) {
    Tensor one({1, kChannels, kSide, kSide});
    std::memcpy(one.data(), samples.data() + s * kSampleNumel,
                static_cast<std::size_t>(kSampleNumel) * sizeof(float));
    expected.push_back(graph.forward(one));
  }
  return expected;
}

// Polls a predicate for up to ~10 s (loaded-CI headroom).
template <typename Predicate>
bool poll(Predicate&& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// ---------------------------------------------------------- wire transport --

TEST(Transport, RoundTripIsBitIdenticalToInProcessInfer) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  Rng rng(9100);
  Tensor samples = random_tensor({6, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = single_sample_oracle(graph, samples);

  serve::BatchingServer server;
  server.add_model("m", [&] {
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(runtime::replicate(graph));
    return replicas;
  }());
  server.start();
  serve::ServeTransport transport(server);
  transport.start();
  ASSERT_GT(transport.port(), 0);

  serve::TransportClient client(transport.port());
  ASSERT_TRUE(client.connected());
  std::vector<float> logits;
  for (int s = 0; s < 6; ++s) {
    const serve::WireStatus status =
        client.infer("m", samples.data() + s * kSampleNumel,
                     static_cast<std::size_t>(kSampleNumel), logits);
    ASSERT_EQ(status, serve::WireStatus::kOk) << "sample " << s;
    ASSERT_EQ(logits.size(), 10u);
    expect_bit_identical(expected[static_cast<std::size_t>(s)],
                         logits.data(), "wire round trip");
  }

  // The response counter is bumped after the write lands, so the client
  // can observe its frame a beat before the stat: poll.
  EXPECT_TRUE(poll([&] { return transport.stats().responses == 6; }));
  const auto stats = transport.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.bad_requests, 0u);

  transport.stop();
  server.stop();
}

TEST(Transport, ConcurrentClientsGetBitIdenticalResults) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  Rng rng(9110);
  Tensor samples = random_tensor({8, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = single_sample_oracle(graph, samples);

  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::TransportOptions transport_options;
  transport_options.dispatch_threads = 4;
  serve::ServeTransport transport(server, transport_options);
  transport.start();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      serve::TransportClient client(transport.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      std::vector<float> logits;
      for (int round = 0; round < 8; ++round) {
        const int s = (c + round) % 8;
        if (client.infer("m", samples.data() + s * kSampleNumel,
                         static_cast<std::size_t>(kSampleNumel),
                         logits) != serve::WireStatus::kOk) {
          ++failures;
          return;
        }
        const Tensor& want = expected[static_cast<std::size_t>(s)];
        for (std::int64_t i = 0; i < want.numel(); ++i) {
          if (want[i] != logits[static_cast<std::size_t>(i)]) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_TRUE(poll([&] { return transport.stats().responses == 32; }));
  const auto stats = transport.stats();
  EXPECT_EQ(stats.connections, 4u);
  EXPECT_EQ(stats.requests, 32u);

  transport.stop();
  server.stop();
}

TEST(Transport, BadRequestsAreRejectedWithoutKillingTheConnection) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  serve::TransportClient client(transport.port());
  ASSERT_TRUE(client.connected());
  std::vector<float> logits;
  std::vector<float> sample(static_cast<std::size_t>(kSampleNumel), 0.0f);

  // Unknown model id.
  EXPECT_EQ(client.infer("nope", sample.data(), sample.size(), logits),
            serve::WireStatus::kBadRequest);
  // Wrong sample count for a known model.
  EXPECT_EQ(client.infer("m", sample.data(), sample.size() - 1, logits),
            serve::WireStatus::kBadRequest);
  // deadline_us < -1 has no wire meaning (-1 is THE no-deadline encoding).
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits,
                         /*deadline_us=*/-5),
            serve::WireStatus::kBadRequest);
  // The frame boundary stayed intact throughout: the same connection still
  // serves a well-formed request.
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kOk);

  EXPECT_TRUE(poll([&] { return transport.stats().responses == 4; }));
  EXPECT_EQ(transport.stats().bad_requests, 3u);

  transport.stop();
  server.stop();
}

TEST(Transport, WireDeadlinesFollowThePinnedSemantics) {
  // A server whose flush timer is far longer than the test: a single
  // queued request sits waiting, so expired deadlines deterministically
  // cancel while -1 waits out the timer flush.
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::ServerOptions server_options;
  server_options.max_batch = 16;
  server_options.max_latency_us = 300'000;
  serve::BatchingServer server(server_options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  serve::TransportClient client(transport.port());
  ASSERT_TRUE(client.connected());
  std::vector<float> logits;
  std::vector<float> sample(static_cast<std::size_t>(kSampleNumel), 0.25f);

  // deadline 0: already expired on entry -> kTimeout (the request never
  // waits out the 300 ms flush timer).
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits,
                         /*deadline_us=*/0),
            serve::WireStatus::kTimeout);
  // A short positive deadline expires the same way.
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits,
                         /*deadline_us=*/1),
            serve::WireStatus::kTimeout);
  // -1 = no deadline: waits for the timer flush and succeeds.
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits,
                         /*deadline_us=*/-1),
            serve::WireStatus::kOk);

  transport.stop();
  server.stop();
}

TEST(Transport, OversizedAndRunawayFramesDropTheConnection) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::TransportOptions options;
  options.max_frame_bytes = 4096;
  serve::ServeTransport transport(server, options);
  transport.start();

  // A declared body length beyond max_frame_bytes is a protocol violation:
  // no response, connection closed.
  net::UniqueFd raw = net::connect_loopback(transport.port());
  ASSERT_TRUE(raw.valid());
  const std::uint32_t huge = 1u << 20;
  ASSERT_TRUE(net::write_full(raw.get(), &huge, sizeof(huge)));
  char probe = 0;
  EXPECT_FALSE(net::read_full(raw.get(), &probe, 1)) << "expected EOF";

  // A malformed-but-small body gets a kBadRequest response instead.
  net::UniqueFd raw2 = net::connect_loopback(transport.port());
  ASSERT_TRUE(raw2.valid());
  const std::uint32_t tiny_len = 4;
  const std::uint32_t garbage = 0xffffffffu;
  ASSERT_TRUE(net::write_full(raw2.get(), &tiny_len, sizeof(tiny_len)));
  ASSERT_TRUE(net::write_full(raw2.get(), &garbage, sizeof(garbage)));
  std::uint32_t response_len = 0;
  ASSERT_TRUE(
      net::read_full(raw2.get(), &response_len, sizeof(response_len)));
  std::vector<std::uint8_t> body(response_len);
  ASSERT_TRUE(net::read_full(raw2.get(), body.data(), body.size()));
  EXPECT_EQ(body[0],
            static_cast<std::uint8_t>(serve::WireStatus::kBadRequest));

  EXPECT_TRUE(poll([&] { return transport.stats().transport_errors >= 1; }));
  transport.stop();
  server.stop();
}

TEST(Transport, StopClosesTheListenerFirstAndDrains) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();
  const std::uint16_t port = transport.port();

  serve::TransportClient client(port);
  ASSERT_TRUE(client.connected());
  std::vector<float> logits;
  std::vector<float> sample(static_cast<std::size_t>(kSampleNumel), 0.5f);
  ASSERT_EQ(client.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kOk);

  transport.stop();
  // Every dispatched frame got its response before the teardown.
  const auto stats = transport.stats();
  EXPECT_EQ(stats.responses, stats.requests);
  // The listener is gone: fresh connections are refused.
  serve::TransportClient late(port);
  EXPECT_FALSE(late.connected());
  // stop() is idempotent.
  transport.stop();
  server.stop();
}

TEST(Transport, PipelinedFramesBeatTheDelayedAckFloor) {
  // Two request frames written back to back on one connection. The server
  // answers them in order with two small writes; were Nagle left on for
  // accepted sockets, the second reply would sit in the kernel until the
  // client's delayed ACK of the first (~40 ms on Linux).
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  // Wire layout (serve/transport.h): u32 body_len | u16 id_len | id |
  // i64 deadline_us | u32 sample_count | f32 samples.
  const std::string id = "m";
  const std::vector<float> sample(static_cast<std::size_t>(kSampleNumel),
                                  0.25f);
  std::vector<std::uint8_t> frame;
  const auto append = [&frame](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    frame.insert(frame.end(), bytes, bytes + size);
  };
  const auto body_len = static_cast<std::uint32_t>(
      2 + id.size() + 8 + 4 + sample.size() * sizeof(float));
  const auto id_len = static_cast<std::uint16_t>(id.size());
  const std::int64_t deadline_us = -1;
  const auto count = static_cast<std::uint32_t>(sample.size());
  append(&body_len, sizeof(body_len));
  append(&id_len, sizeof(id_len));
  append(id.data(), id.size());
  append(&deadline_us, sizeof(deadline_us));
  append(&count, sizeof(count));
  append(sample.data(), sample.size() * sizeof(float));
  std::vector<std::uint8_t> pair = frame;
  pair.insert(pair.end(), frame.begin(), frame.end());

  net::UniqueFd fd = net::connect_loopback(transport.port());
  ASSERT_TRUE(fd.valid());
  const auto read_ok_reply = [&fd]() {
    std::uint32_t len = 0;
    if (!net::read_full(fd.get(), &len, sizeof(len)) || len < 5) return false;
    std::vector<std::uint8_t> body(len);
    return net::read_full(fd.get(), body.data(), body.size()) &&
           body[0] == static_cast<std::uint8_t>(serve::WireStatus::kOk);
  };
  const auto elapsed_ms = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto median = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };
  // Single round trips first: they take the connection past the kernel's
  // quick-ACK phase and time one request on this build and host.
  std::vector<double> single_ms;
  for (int i = 0; i < 9; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(net::write_full(fd.get(), frame.data(), frame.size()));
    ASSERT_TRUE(read_ok_reply());
    single_ms.push_back(elapsed_ms(start));
  }
  std::vector<double> pair_ms;
  for (int i = 0; i < 9; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(net::write_full(fd.get(), pair.data(), pair.size()));
    ASSERT_TRUE(read_ok_reply());
    ASSERT_TRUE(read_ok_reply());
    pair_ms.push_back(elapsed_ms(start));
  }
  // The server answers one frame per connection at a time, so a pair costs
  // about two round trips. What it must not cost is a delayed-ACK wait on
  // top (~40 ms; sanitizer builds only stretch the round trips).
  const double stall_ms = median(pair_ms) - 2.0 * median(single_ms);
  EXPECT_LT(stall_ms, 15.0)
      << "a pipelined pair took the delayed-ACK path: pair p50 "
      << median(pair_ms) << " ms, single round trip p50 "
      << median(single_ms) << " ms";

  transport.stop();
  server.stop();
}

// ------------------------------------------------------- wire-frame fuzz --

// The bytes a real TransportClient puts on the wire for one request,
// captured by a loopback listener that hangs up instead of answering.
std::vector<std::uint8_t> record_request_frame(const std::string& model_id,
                                               const std::vector<float>& sample,
                                               std::int64_t deadline_us) {
  std::uint16_t port = 0;
  net::UniqueFd listener = net::listen_loopback(0, 1, &port);
  std::vector<std::uint8_t> frame;
  std::thread recorder([&] {
    net::UniqueFd conn(::accept(listener.get(), nullptr, nullptr));
    std::uint32_t body_len = 0;
    if (!conn.valid() ||
        !net::read_full(conn.get(), &body_len, sizeof(body_len))) {
      return;
    }
    frame.resize(sizeof(body_len) + body_len);
    std::memcpy(frame.data(), &body_len, sizeof(body_len));
    if (!net::read_full(conn.get(), frame.data() + sizeof(body_len),
                        body_len)) {
      frame.clear();
    }
  });
  serve::TransportClient client(port);
  std::vector<float> logits;
  EXPECT_EQ(client.infer(model_id, sample.data(), sample.size(), logits,
                         deadline_us),
            serve::WireStatus::kTransportError);
  recorder.join();
  return frame;
}

// What one hostile connection saw: the status of every response frame the
// server wrote, and whether the server then dropped the connection (EOF or
// reset) — as opposed to hanging past the receive timeout or writing a
// malformed response.
struct FuzzOutcome {
  std::vector<serve::WireStatus> statuses;
  bool dropped = false;
  bool well_formed = true;
};

// Sends `bytes` on a fresh connection, half-closes it (the server reads
// EOF after the last byte) and collects responses until the server drops
// the connection. `logit_count` is what a kOk response must carry.
FuzzOutcome send_hostile(std::uint16_t port,
                         const std::vector<std::uint8_t>& bytes,
                         std::uint32_t logit_count) {
  FuzzOutcome out;
  net::UniqueFd fd = net::connect_loopback(port);
  if (!fd.valid()) {
    out.well_formed = false;
    return out;
  }
  timeval timeout{};
  timeout.tv_sec = 20;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  // MSG_NOSIGNAL: a server that already dropped us must not SIGPIPE the
  // test; what it sent before the drop is still read below.
  for (std::size_t sent = 0; sent < bytes.size();) {
    const ssize_t put = ::send(fd.get(), bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
    if (put <= 0) break;
    sent += static_cast<std::size_t>(put);
  }
  ::shutdown(fd.get(), SHUT_WR);
  const auto recv_all = [&](void* dst, std::size_t size) -> ssize_t {
    return ::recv(fd.get(), dst, size, MSG_WAITALL);
  };
  while (true) {
    std::uint32_t body_len = 0;
    const ssize_t got = recv_all(&body_len, sizeof(body_len));
    if (got == 0 || (got < 0 && errno == ECONNRESET)) {
      out.dropped = true;
      return out;
    }
    if (got != static_cast<ssize_t>(sizeof(body_len)) || body_len < 5 ||
        body_len > 5 + 4 * logit_count) {
      out.well_formed = false;  // timeout, short header or bad length
      return out;
    }
    std::vector<std::uint8_t> body(body_len);
    if (recv_all(body.data(), body.size()) != static_cast<ssize_t>(body_len)) {
      out.well_formed = false;
      return out;
    }
    const auto status = static_cast<serve::WireStatus>(body[0]);
    std::uint32_t count = 0;
    std::memcpy(&count, body.data() + 1, sizeof(count));
    const std::uint32_t want = status == serve::WireStatus::kOk ? logit_count
                                                                : 0;
    if (count != want || body_len != 5 + 4 * count) out.well_formed = false;
    out.statuses.push_back(status);
  }
}

template <typename T>
void put_field(std::vector<std::uint8_t>& frame, std::size_t offset,
               T value) {
  std::memcpy(frame.data() + offset, &value, sizeof(value));
}

TEST(TransportFuzz, HostileFramesDropOnlyTheirConnection) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  Rng rng(9300);
  Tensor samples = random_tensor({4, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = single_sample_oracle(graph, samples);
  const auto logit_count = static_cast<std::uint32_t>(expected[0].numel());

  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  // The seed: one recorded request. Layout (transport.h): u32 body_len |
  // u16 id_len | id | i64 deadline_us | u32 sample_count | f32 samples.
  const std::vector<float> sample(samples.data(),
                                  samples.data() + kSampleNumel);
  const std::vector<std::uint8_t> frame =
      record_request_frame("m", sample, /*deadline_us=*/-1);
  const std::size_t id_len_at = 4, id_at = 6, deadline_at = 7, count_at = 15,
                    samples_at = 19;
  ASSERT_EQ(frame.size(), samples_at + 4 * kSampleNumel);
  {
    const FuzzOutcome clean = send_hostile(transport.port(), frame,
                                           logit_count);
    ASSERT_TRUE(clean.dropped && clean.well_formed);
    ASSERT_EQ(clean.statuses,
              std::vector<serve::WireStatus>{serve::WireStatus::kOk});
  }

  // A clean client alongside the fuzz: every reply bit-identical.
  std::atomic<bool> fuzzing{true};
  std::atomic<int> clean_ok{0}, clean_failures{0};
  std::thread clean_client([&] {
    serve::TransportClient client(transport.port());
    std::vector<float> logits;
    for (int round = 0; fuzzing.load() || round < 4; ++round) {
      const int s = round % 4;
      const Tensor& want = expected[static_cast<std::size_t>(s)];
      if (client.infer("m", samples.data() + s * kSampleNumel,
                       static_cast<std::size_t>(kSampleNumel),
                       logits) != serve::WireStatus::kOk ||
          std::memcmp(logits.data(), want.data(),
                      sizeof(float) * logits.size()) != 0) {
        ++clean_failures;
        return;
      }
      ++clean_ok;
    }
  });

  using Statuses = std::vector<serve::WireStatus>;
  const Statuses none;
  const Statuses bad{serve::WireStatus::kBadRequest};
  const Statuses ok{serve::WireStatus::kOk};
  int cases = 0;
  const auto expect_case = [&](const std::vector<std::uint8_t>& bytes,
                               const Statuses* exactly, const char* what,
                               std::size_t at) {
    const FuzzOutcome out = send_hostile(transport.port(), bytes, logit_count);
    ++cases;
    EXPECT_TRUE(out.dropped) << what << " at " << at << ": connection hung";
    EXPECT_TRUE(out.well_formed) << what << " at " << at;
    if (exactly != nullptr) {
      EXPECT_EQ(out.statuses, *exactly) << what << " at " << at;
    } else {
      for (const serve::WireStatus status : out.statuses) {
        EXPECT_EQ(status, serve::WireStatus::kBadRequest)
            << what << " at " << at;
      }
    }
  };
  // Offsets swept: every header byte, then a stride through the samples.
  std::vector<std::size_t> offsets;
  for (std::size_t at = 0; at < samples_at; ++at) offsets.push_back(at);
  for (std::size_t at = samples_at; at < frame.size(); at += 29) {
    offsets.push_back(at);
  }

  // 1. Truncation: the declared length promises more than ever arrives, so
  //    the frame never completes — no answer, the connection is dropped.
  for (const std::size_t at : offsets) {
    expect_case(std::vector<std::uint8_t>(frame.begin(), frame.begin() + at),
                &none, "truncated", at);
  }

  // 2. Truncation with the length patched to match: a complete frame whose
  //    body is short is kBadRequest, and the frame boundary survives — the
  //    intact request queued behind it on the same connection is answered.
  for (const std::size_t at : offsets) {
    if (at < 4) continue;
    std::vector<std::uint8_t> bytes(frame.begin(), frame.begin() + at);
    put_field(bytes, 0, static_cast<std::uint32_t>(at - 4));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    const Statuses bad_then_ok{serve::WireStatus::kBadRequest,
                               serve::WireStatus::kOk};
    expect_case(bytes, &bad_then_ok, "short body", at);
  }

  // 3. Bit flips. Header fields are structure: a flip in the length may
  //    leave trailing garbage that is parsed as further frames, so only
  //    kBadRequest answers (or none) are allowed there; a flipped id, id
  //    length or sample count is exactly one kBadRequest. A flipped
  //    deadline is kBadRequest (< -1) except the sign bit, which makes it
  //    the largest valid deadline; a flipped sample is a valid request.
  for (const std::size_t at : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      if (at >= samples_at && bit != (static_cast<int>(at) % 8)) continue;
      std::vector<std::uint8_t> bytes = frame;
      bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
      const std::size_t flat = at * 8 + static_cast<std::size_t>(bit);
      if (at < id_len_at) {
        expect_case(bytes, nullptr, "length bit flip", flat);
      } else if (at < samples_at && (at < deadline_at || at >= count_at)) {
        expect_case(bytes, &bad, "header bit flip", flat);
      } else if (at < count_at) {
        const bool sign = at == count_at - 1 && bit == 7;
        expect_case(bytes, sign ? &ok : &bad, "deadline bit flip", flat);
      } else {
        expect_case(bytes, &ok, "sample bit flip", flat);
      }
    }
  }

  // 4. Length-field sweeps with the original body behind them.
  const auto body_len = static_cast<std::uint32_t>(frame.size() - 4);
  for (const std::uint32_t len :
       {0u, 1u, 2u, 14u, 15u, body_len - 1, body_len + 1, 1u << 20,
        (1u << 20) + 1, 0x7fffffffu, 0xffffffffu}) {
    std::vector<std::uint8_t> bytes = frame;
    put_field(bytes, 0, len);
    expect_case(bytes, nullptr, "body_len", len);
  }
  for (const std::uint16_t len : {0, 2, 256, 257, 0xffff}) {
    std::vector<std::uint8_t> bytes = frame;
    put_field(bytes, id_len_at, static_cast<std::uint16_t>(len));
    expect_case(bytes, &bad, "id_len", len);
  }
  const auto count = static_cast<std::uint32_t>(kSampleNumel);
  for (const std::uint32_t n :
       {0u, count - 1, count + 1, 0x40000000u, 0xffffffffu}) {
    std::vector<std::uint8_t> bytes = frame;
    put_field(bytes, count_at, n);
    expect_case(bytes, &bad, "sample_count", n);
  }

  // 5. Clients that hang up before their answers are written: the second
  //    of two pipelined answers goes to a peer that already reset.
  std::vector<std::uint8_t> pair = frame;
  pair.insert(pair.end(), frame.begin(), frame.end());
  for (int i = 0; i < 8; ++i) {
    net::UniqueFd fd = net::connect_loopback(transport.port());
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(net::write_full(fd.get(), pair.data(), pair.size()));
  }

  fuzzing = false;
  clean_client.join();
  EXPECT_EQ(clean_failures.load(), 0);
  EXPECT_GE(clean_ok.load(), 4);
  EXPECT_GT(cases, 300);

  // The transport as a whole is still healthy.
  serve::TransportClient after(transport.port());
  std::vector<float> logits;
  EXPECT_EQ(after.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kOk);
  EXPECT_GT(transport.stats().bad_requests, 100u);

  transport.stop();
  server.stop();
}

#if CSQ_FAILPOINTS_ENABLED

class TransportFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::disarm_all(); }
};

TEST_F(TransportFailpointTest, InjectedFaultsDropOnlyTheAffectedConnection) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  std::vector<float> logits;
  std::vector<float> sample(static_cast<std::size_t>(kSampleNumel), 1.0f);

  // accept fault: the connection is closed immediately after accept. The
  // TCP handshake itself succeeds (backlog), so the failure surfaces on
  // the first round trip.
  fail::arm("transport.accept", fail::Policy::kOnce);
  serve::TransportClient refused(transport.port());
  EXPECT_EQ(refused.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kTransportError);

  // read fault: mid-connection read failure drops that client only.
  serve::TransportClient victim(transport.port());
  ASSERT_TRUE(victim.connected());
  fail::arm("transport.read", fail::Policy::kOnce);
  EXPECT_EQ(victim.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kTransportError);

  // write fault: the response write fails, the connection dies, and the
  // client observes EOF instead of a frame.
  serve::TransportClient write_victim(transport.port());
  ASSERT_TRUE(write_victim.connected());
  fail::arm("transport.write", fail::Policy::kOnce);
  EXPECT_EQ(write_victim.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kTransportError);

  // The transport as a whole survived every injected fault.
  serve::TransportClient healthy(transport.port());
  ASSERT_TRUE(healthy.connected());
  EXPECT_EQ(healthy.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kOk);
  EXPECT_GE(transport.stats().transport_errors, 3u);

  transport.stop();
  server.stop();
}

#endif  // CSQ_FAILPOINTS_ENABLED

// --------------------------------------------------------- replica scaling --

TEST(ReplicaScaling, ScaleUpBootstrapsBitIdenticalReplicas) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  Rng rng(9200);
  Tensor samples = random_tensor({8, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = single_sample_oracle(graph, samples);

  serve::ServerOptions options;
  options.max_replicas = 3;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  EXPECT_EQ(server.stats("m").replicas_active, 1);

  server.set_replicas("m", 3);
  ASSERT_TRUE(poll([&] { return server.stats("m").replicas_active == 3; }));
  EXPECT_EQ(server.stats("m").scale_ups, 2u);

  // Scaled-up replicas serve bit-identically (they are restore-template
  // rebuilds of the same program).
  const serve::ModelHandle handle = server.handle("m");
  std::vector<float> logits(10);
  for (int s = 0; s < 8; ++s) {
    ASSERT_EQ(server.try_infer(handle, samples.data() + s * kSampleNumel,
                               logits.data()),
              serve::ServeStatus::kOk);
    expect_bit_identical(expected[static_cast<std::size_t>(s)],
                         logits.data(), "post-scale-up");
  }

  // Cooperative scale-down: workers retire between batches; capacity
  // settles at the new target and requests keep succeeding.
  server.set_replicas("m", 1);
  ASSERT_TRUE(poll([&] { return server.stats("m").replicas_active == 1; }));
  EXPECT_EQ(server.stats("m").scale_downs, 2u);
  ASSERT_EQ(server.try_infer(handle, samples.data(), logits.data()),
            serve::ServeStatus::kOk);
  expect_bit_identical(expected[0], logits.data(), "post-scale-down");

  server.stop();
}

TEST(ReplicaScaling, TargetsOutsideTheSlotRangeAreRejected) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::ServerOptions options;
  options.max_replicas = 2;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  EXPECT_THROW(server.set_replicas("m", 0), check_error);
  EXPECT_THROW(server.set_replicas("m", 3), check_error);
  EXPECT_THROW(server.set_replicas("ghost", 1), check_error);
  // A no-op target is accepted and changes nothing.
  server.set_replicas("m", 1);
  EXPECT_EQ(server.stats("m").replicas_active, 1);
  server.stop();
}

TEST(ReplicaScaling, SetReplicasOutsideTheLifecycleIsANoOp) {
  // Lifecycle races are no-ops, never CHECKs: the autoscaler's policy
  // thread may tick concurrently with stop(), and a throw there cannot
  // propagate — it would std::terminate the process. Argument validation
  // still throws regardless of lifecycle state (caller bugs, not races).
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::ServerOptions options;
  options.max_replicas = 2;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));

  server.set_replicas("m", 2);  // before start: accepted, no effect
  EXPECT_THROW(server.set_replicas("ghost", 1), check_error);
  EXPECT_THROW(server.set_replicas("m", 0), check_error);
  EXPECT_EQ(server.stats("m").replicas_active, 0);

  server.start();
  EXPECT_EQ(server.stats("m").replicas_active, 1);
  server.stop();

  server.set_replicas("m", 2);  // after stop: accepted, no effect
  EXPECT_EQ(server.stats("m").replicas_active, 0);
}

TEST(Autoscaler, TicksAcrossServerStopAreHarmless) {
  // Shutdown-ordering pin (runs under the tsan preset): stopping the
  // SERVER first leaves the autoscaler ticking against a stopped server.
  // Every tick it lands — including one mid-stop — must no-op instead of
  // crashing the policy thread.
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::ServerOptions server_options;
  server_options.max_replicas = 2;
  serve::BatchingServer server(server_options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();

  serve::AutoscalerOptions policy;
  policy.interval_us = 200;  // tick as fast as possible across the stop
  policy.min_replicas = 1;
  policy.max_replicas = 2;
  policy.down_idle_ticks = 1;  // every idle tick proposes a target change
  policy.cooldown_ticks = 0;
  serve::ReplicaAutoscaler autoscaler(server, "m", policy);
  autoscaler.start();

  // Force targets above the floor so the idle policy keeps proposing
  // scale-downs — ticks that call set_replicas, not just observe.
  server.set_replicas("m", 2);
  server.stop();
  // Let ticks land on the stopped server before the autoscaler goes away.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  autoscaler.stop();

  // And the reverse order on a fresh cycle still works.
  server.start();
  serve::ReplicaAutoscaler late(server, "m", policy);
  late.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  late.stop();
  server.stop();
}

TEST(Autoscaler, ReplicasFollowOfferedLoad) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::ServerOptions server_options;
  server_options.max_batch = 1;  // one forward per request: easy backlog
  server_options.max_replicas = 3;
  serve::BatchingServer server(server_options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();

  serve::AutoscalerOptions policy;
  policy.interval_us = 2'000;
  policy.min_replicas = 1;
  policy.max_replicas = 3;
  policy.up_queue_depth = 2;
  policy.up_ticks = 2;
  policy.down_idle_ticks = 5;
  policy.cooldown_ticks = 1;
  serve::ReplicaAutoscaler autoscaler(server, "m", policy);
  autoscaler.start();

  // Sustained backlog from more producers than one replica can absorb.
  const serve::ModelHandle handle = server.handle("m");
  std::atomic<bool> load{true};
  std::vector<float> sample(static_cast<std::size_t>(kSampleNumel), 0.1f);
  std::vector<std::thread> producers;
  for (int p = 0; p < 6; ++p) {
    producers.emplace_back([&] {
      std::vector<float> logits(10);
      while (load.load()) {
        server.try_infer(handle, sample.data(), logits.data());
      }
    });
  }
  EXPECT_TRUE(poll([&] { return server.stats("m").replicas_active >= 2; }))
      << "no scale-up under sustained backlog";

  // Load stops; the policy walks the count back down to the floor.
  load.store(false);
  for (std::thread& producer : producers) producer.join();
  EXPECT_TRUE(poll([&] { return server.stats("m").replicas_active == 1; }))
      << "no scale-down when idle";
  const auto stats = autoscaler.stats();
  EXPECT_GE(stats.scale_ups, 1u);
  EXPECT_GE(stats.scale_downs, 1u);

  autoscaler.stop();
  server.stop();
}

// ----------------------------------------------------------- mmap loading --

TEST(MmapArtifact, ForwardsAreBitIdenticalToCopyLoad) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("mmap_identity");
  ASSERT_TRUE(runtime::save_graph(path, graph));

  Rng rng(9300);
  Tensor images = random_tensor({5, kChannels, kSide, kSide}, rng);
  runtime::CompiledGraph copied = runtime::load_graph(path, /*pooled=*/false);
  runtime::CompiledGraph mapped =
      runtime::load_graph_mmap(path, /*pooled=*/false);

  const Tensor want = copied.forward(images);
  const Tensor got = mapped.forward(images);
  ASSERT_TRUE(want.same_shape(got));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "logit " << i;
  }

  // The mapped graph borrows every layer's weight pages; the copied one
  // owns them.
  for (const runtime::PackedIntWeights* weights :
       mapped.layer_weight_views()) {
    EXPECT_TRUE(weights->borrowed());
  }
  for (const runtime::PackedIntWeights* weights :
       copied.layer_weight_views()) {
    EXPECT_FALSE(weights->borrowed());
  }
  EXPECT_EQ(mapped.weight_storage_bits(), copied.weight_storage_bits());
  std::remove(path.c_str());
}

TEST(MmapArtifact, ReplicasShareOneMappingAndStayBitIdentical) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("mmap_share");
  ASSERT_TRUE(runtime::save_graph(path, graph));

  runtime::CompiledGraph mapped =
      runtime::load_graph_mmap(path, /*pooled=*/false);
  runtime::CompiledGraph sibling = runtime::replicate(mapped);
  // The replica borrows from the SAME mapping (shared program), and the
  // mapping outlives the artifact file: unlink it, then keep serving.
  std::remove(path.c_str());
  for (const runtime::PackedIntWeights* weights :
       sibling.layer_weight_views()) {
    EXPECT_TRUE(weights->borrowed());
  }
  Rng rng(9310);
  Tensor images = random_tensor({3, kChannels, kSide, kSide}, rng);
  const Tensor want = mapped.forward(images);
  const Tensor got = sibling.forward(images);
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "logit " << i;
  }
}

TEST(MmapArtifact, ServesThroughTheBatchingServer) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("mmap_serve");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  Rng rng(9320);
  Tensor samples = random_tensor({4, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = single_sample_oracle(graph, samples);

  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::load_graph_mmap(path, /*pooled=*/false));
  replicas.push_back(runtime::replicate(replicas.front()));
  server.add_model("m", std::move(replicas));
  server.start();
  const serve::ModelHandle handle = server.handle("m");
  std::vector<float> logits(10);
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(server.try_infer(handle, samples.data() + s * kSampleNumel,
                               logits.data()),
              serve::ServeStatus::kOk);
    expect_bit_identical(expected[static_cast<std::size_t>(s)],
                         logits.data(), "mmap-backed serving");
  }
  server.stop();
  std::remove(path.c_str());
}

TEST(MmapArtifact, MappedProgramsCannotBeResaved) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("mmap_resave");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  runtime::CompiledGraph mapped =
      runtime::load_graph_mmap(path, /*pooled=*/false);
  // The owned codes are absent from a borrowed program: re-saving would
  // persist an empty layer section. Rejected loudly instead.
  EXPECT_THROW(runtime::save_graph(temp_path("mmap_resave_out"), mapped),
               check_error);
  std::remove(path.c_str());
}

TEST(MmapArtifact, PreV5ArtifactsAreRejectedCleanly) {
  // The committed pre-CRC fixture has neither a trailer nor a weight
  // section: the mmap loader must refuse it BEFORE parsing anything.
  const std::string golden =
      std::string(CSQ_TEST_DATA_DIR) + "/golden_v3.csqm";
  EXPECT_THROW(runtime::load_graph_mmap(golden), check_error);
}

}  // namespace
}  // namespace csq

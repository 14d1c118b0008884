// End-to-end benchmark of the CSQ stack: offline int8 scoring, open-loop
// wire serving and CSQ search training, plus a traced per-layer run.
// perfbench/README.md defines every workload and metric; perfbench/run.py
// builds this program and drives it.
//
//   csq_perfbench prepare --seed N --out ARTIFACT
//       Builds the model under test (ResNet-20, width 16, 16x16 input, the
//       fixed per-layer bit list below), finalizes, calibrates and saves it.
//   csq_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     --artifact ARTIFACT --out-dir DIR [--portable 0|1]
//                     [--commit ID]
//       Runs one workload. The last stdout line is the result object.
//   csq_perfbench list-metrics
//       Prints the metric names this program emits, one per line.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/budget.h"
#include "core/csq_weight.h"
#include "core/gate.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "nn/softmax_ce.h"
#include "inputs.h"
#include "openloop.h"
#include "opt/data_parallel.h"
#include "opt/sgd.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "runtime/packed_weights.h"
#include "serve/batching_server.h"
#include "serve/transport.h"
#include "stats.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using csq::Tensor;
namespace rt = csq::runtime;
namespace sv = csq::serve;

// ------------------------------------------------------------ definition --

constexpr std::int64_t kScoreBatch = 32;
constexpr std::int64_t kTrainBatch = 64;
constexpr std::int64_t kTrainLoBatch = 16;
constexpr int kImagePool = 512;
constexpr const char* kModelId = "resnet20";

// Serving configuration. The fixed rates are a third and two thirds of the
// wire capacity (~700 req/s saturated goodput with this client) measured on
// a 4-core x86-64 host at the commit that introduced this benchmark; they
// stay fixed so later commits are compared at the same offered load.
constexpr double kRateLo = 240.0;
constexpr double kRateHi = 480.0;
constexpr double kSloMs = 10.0;
constexpr std::int64_t kServeMaxBatch = 8;
constexpr std::int64_t kServeMaxLatencyUs = 200;
constexpr int kServeReplicas = 2;
constexpr int kSloProbes = 4;
constexpr std::size_t kCapacityRequests = 2000;

// CSQ search step configuration.
constexpr double kLambda = 0.01;
constexpr double kTargetBits = 3.0;
// The temperature follows the paper's exponential schedule from 1 to 200 in
// kBetaStages stages of kStepsPerBeta steps and then starts over, so a run
// of any length spends the same share of its steps at every temperature
// (the step cost grows with beta).
constexpr int kBetaStages = 8;
constexpr int kStepsPerBeta = 2;
constexpr int kReplaySteps = 2;     // steps replayed on one worker
constexpr int kSetupRepeats = 9;

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "images_per_s", "lat_p50_ms.lo", "lat_p50_ms.hi", "setup_s",
      "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "runtime.forward.ms",
      "runtime.us_per_image.b1",
      "runtime.us_per_image.b8",
      "runtime.us_per_image.b32",
      "runtime.workspace_bytes",
      "runtime.gemm_share",
      "tensor.gemm.ms",
      "tensor.im2col_u8.ms",
      "tensor.gemm.gops.s8u8",
      "tensor.gemm.gops.bitserial",
      "tensor.gemm.useful_mac_share",
      "serve.mean_batch",
      "serve.timer_flush_share",
      "serve.flush_wait_p99_us",
      "serve.failed",
      "serve.inproc_p50_us",
      "serve.overhead_p50_us",
      "transport.rtt_p50_us",
      "transport.overhead_p50_us",
      "transport.errors",
      "transport.pipelined_rtt_p50_us",
      "gen.late_p99_us",
      "opt.train_step.ms",
      "opt.dp_speedup",
      "opt.sgd.ms",
      "quant.materialize.ms",
      "nn.forward.ms",
      "nn.backward.ms",
      "core.budget.ms",
      "core.avg_bits",
      "trace.overhead_share",
  };
  return names;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Free-form facts printed with the result (counts per phase, bases of
// ratios, percentiles actually reported).
struct Notes {
  std::vector<std::pair<std::string, std::string>> items;
  std::string prefix;  // names the half of a traced run
  template <typename T>
  void add(const std::string& key, const T& value) {
    std::ostringstream os;
    os << std::setprecision(10) << value;
    items.emplace_back(prefix + key, os.str());
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ----------------------------------------------------------------- prepare --

int cmd_prepare(std::uint64_t seed, const std::string& out_path) {
  std::vector<csq::CsqWeightSource*> registry;
  csq::Model model = build_resnet(seed, &registry, /*fixed_bits=*/true);
  for (csq::CsqWeightSource* source : registry) source->finalize();
  rt::LowerOptions options;
  options.in_channels = kChannels;
  options.in_height = kSide;
  options.in_width = kSide;
  rt::CompiledGraph graph = rt::lower(model, options);
  // Held-out calibration batch: a different seed stream from every image
  // the workloads send.
  const csq::InMemoryDataset calib = make_images(seed ^ 0xca1b, 64);
  graph.calibrate(calib.images());
  if (!rt::save_graph(out_path, graph)) {
    std::cerr << "prepare: could not write " << out_path << "\n";
    return 1;
  }
  double bits = 0.0, weights = 0.0;
  for (const auto& layer : graph.layers()) {
    bits += static_cast<double>(layer.bits * layer.weight_count);
    weights += static_cast<double>(layer.weight_count);
    std::cout << "layer " << layer.name << " bits " << layer.bits
              << " kernel " << layer.kernel << "\n";
  }
  std::cout << "prepared " << out_path << " avg_bits " << bits / weights
            << "\n";
  return 0;
}

// ----------------------------------------------------------------- context --

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string artifact;
  std::string out_dir;
  std::string portable = "unknown";
  std::string commit = "unknown";
  int nproc = 1;
  Tracer tracer;
  Notes notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // output-check failures

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

std::string machine_context(const Context& ctx) {
  std::ostringstream os;
  const char* env = std::getenv("CSQ_THREADS");
  os << "{\"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"pool_threads\": " << csq::global_pool().num_threads()
     << ", \"csq_threads_env\": "
     << (env ? "\"" + json_escape(env) + "\"" : std::string("null"))
     << ", \"portable_build\": \"" << json_escape(ctx.portable)
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"commit\": \"" << json_escape(ctx.commit) << "\"}";
  return os.str();
}

// ------------------------------------------------------------- infer_batch --

struct InferRun {
  double images_per_s = 0.0;
  std::vector<double> b1_ms, b32_ms;
};

// Offline scoring through CompiledGraph::forward, pooled over every pool
// thread: a quarter of the time at batch 1 (lat *.lo), the rest at batch 32
// (lat *.hi and images_per_s). Outputs of sampled batches are kept and
// compared with serial per-sample forwards afterwards.
InferRun infer_phase(Context& ctx, rt::CompiledGraph& graph,
                     const std::vector<Tensor>& batches,
                     const std::vector<Tensor>& singles, double seconds,
                     std::map<std::size_t, Tensor>& kept32,
                     std::map<std::size_t, Tensor>& kept1) {
  InferRun run;
  const std::int64_t lo_end = now_ns() + static_cast<std::int64_t>(seconds * 0.25e9);
  for (std::size_t i = 0; now_ns() < lo_end; ++i) {
    const std::size_t which = i % singles.size();
    const std::int64_t t0 = now_ns();
    Tensor out;
    {
      ScopedSpan span(ctx.tracer, "runtime.forward.b1", static_cast<std::int64_t>(i));
      out = graph.forward(singles[which]);
    }
    run.b1_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    ++ctx.attempted;
    if (i < singles.size() && which % 8 == 0) kept1[which] = out;
  }
  std::int64_t images = 0;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 0.75e9);
  for (std::size_t i = 0; now_ns() < end; ++i) {
    const std::size_t which = i % batches.size();
    const std::int64_t t0 = now_ns();
    Tensor out;
    {
      ScopedSpan span(ctx.tracer, "runtime.forward.b32", static_cast<std::int64_t>(i));
      out = graph.forward(batches[which]);
    }
    run.b32_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    images += batches[which].dim(0);
    ++ctx.attempted;
    if (i < batches.size() && which % 4 == 0) kept32[which] = out;
  }
  run.images_per_s = static_cast<double>(images) / seconds_since(start);
  return run;
}

bool same_bits(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

// Serial single-sample forward of every image of `batch`, compared bit for
// bit with `logits` (B x out).
bool matches_serial(rt::CompiledGraph& serial, const Tensor& batch,
                    const Tensor& logits) {
  const std::int64_t b = batch.dim(0);
  const std::int64_t out = logits.dim(1);
  for (std::int64_t i = 0; i < b; ++i) {
    Tensor one = Tensor::uninitialized({1, kChannels, kSide, kSide});
    std::memcpy(one.data(), batch.data() + i * kSampleNumel,
                sizeof(float) * kSampleNumel);
    const Tensor ref = serial.forward(one);
    if (!same_bits(ref.data(), logits.data() + i * out, out)) return false;
  }
  return true;
}

// The p50 of a latency series is a metric; its tail (p99 when the series
// supports it, see stats.h) goes to the notes with its sample count. Tails
// moved up to 27% between runs on a shared host, more than any bound that
// could still gate a change, so they are reported but not gated.
Metrics add_latency(Context& ctx, Metrics metrics, const std::string& suffix,
                    const std::vector<double>& ms, const std::string& what) {
  ctx.check(!ms.empty(), "no " + what + " completed");
  const Tail tail = supported_tail(ms);
  metrics["lat_p50_ms." + suffix] = {median(ms), "ms"};
  ctx.notes.add("lat." + suffix + ".unit", what);
  ctx.notes.add("lat." + suffix + ".samples", tail.pct.samples);
  ctx.notes.add("lat." + suffix + ".tail_ms", tail.pct.value);
  ctx.notes.add("lat." + suffix + ".tail_percentile", tail.pct.p * 100.0);
  ctx.notes.add("lat." + suffix + ".beyond_tail", tail.pct.beyond);
  if (!tail.ok) ctx.notes.add("lat." + suffix + ".tail", "too few samples");
  return metrics;
}

Metrics run_infer_batch(Context& ctx, const csq::InMemoryDataset& pool,
                        double seconds, double* setup_s) {
  std::vector<Tensor> batches, singles;
  for (int b = 0; b < 16; ++b) {
    batches.push_back(gather_images(
        pool, image_choices(ctx.seed * 131 + static_cast<std::uint64_t>(b),
                            kScoreBatch, kImagePool)));
  }
  for (const std::int32_t pick : image_choices(ctx.seed * 977, 64, kImagePool)) {
    singles.push_back(gather_images(pool, {pick}));
  }

  std::vector<double> setups;
  std::unique_ptr<rt::CompiledGraph> graph;
  for (int r = 0; r < kSetupRepeats; ++r) {
    graph.reset();
    const std::int64_t t0 = now_ns();
    ScopedSpan span(ctx.tracer, "setup.infer");
    graph = std::make_unique<rt::CompiledGraph>(
        rt::load_graph_mmap(ctx.artifact, /*pooled=*/true));
    graph->prepare(kScoreBatch);
    graph->forward(batches[0]);
    graph->forward(singles[0]);
    setups.push_back(seconds_since(t0));
  }
  *setup_s = median(setups);

  std::map<std::size_t, Tensor> kept32, kept1;
  const InferRun run =
      infer_phase(ctx, *graph, batches, singles, seconds, kept32, kept1);

  rt::CompiledGraph serial = rt::load_graph_mmap(ctx.artifact, /*pooled=*/false);
  for (const auto& [which, logits] : kept32) {
    const bool ok = matches_serial(serial, batches[which], logits);
    ctx.check(ok, "infer_batch: batch-32 logits differ from serial forwards");
    if (!ok) ++ctx.failed;
  }
  for (const auto& [which, logits] : kept1) {
    const bool ok = matches_serial(serial, singles[which], logits);
    ctx.check(ok, "infer_batch: batch-1 logits differ from serial forwards");
    if (!ok) ++ctx.failed;
  }
  ctx.notes.add("infer.checked_batches", kept32.size() + kept1.size());
  ctx.notes.add("infer.b1_calls", run.b1_ms.size());
  ctx.notes.add("infer.b32_calls", run.b32_ms.size());

  Metrics m;
  m["images_per_s"] = {run.images_per_s, "img/s"};
  m = add_latency(ctx, m, "lo", run.b1_ms, "batch-1 forward call");
  m = add_latency(ctx, m, "hi", run.b32_ms, "batch-32 forward call");
  return m;
}

// -------------------------------------------------------------- serve_wire --

struct ServeStack {
  std::unique_ptr<sv::BatchingServer> server;
  std::unique_ptr<sv::ServeTransport> transport;
  ~ServeStack() {
    if (transport) transport->stop();
    if (server) server->stop();
  }
};

std::unique_ptr<ServeStack> start_serving(const std::string& artifact) {
  auto stack = std::make_unique<ServeStack>();
  sv::ServerOptions options;
  options.max_batch = kServeMaxBatch;
  options.max_latency_us = kServeMaxLatencyUs;
  stack->server = std::make_unique<sv::BatchingServer>(options);
  std::vector<rt::CompiledGraph> replicas;
  replicas.push_back(rt::load_graph_mmap(artifact, /*pooled=*/false));
  for (int r = 1; r < kServeReplicas; ++r) {
    replicas.push_back(rt::replicate(replicas.front()));
  }
  stack->server->add_model(kModelId, std::move(replicas));
  stack->server->start();
  stack->transport = std::make_unique<sv::ServeTransport>(*stack->server);
  stack->transport->start();
  return stack;
}

struct Oracle {
  std::vector<float> logits;  // kImagePool x out
  std::int64_t out = 0;
};

Oracle make_oracle(const std::string& artifact,
                   const csq::InMemoryDataset& pool) {
  rt::CompiledGraph serial = rt::load_graph_mmap(artifact, /*pooled=*/false);
  Oracle oracle;
  oracle.out = serial.io_shape().out_features;
  oracle.logits.resize(static_cast<std::size_t>(kImagePool * oracle.out));
  for (int i = 0; i < kImagePool; ++i) {
    const Tensor one = gather_images(pool, {i});
    const Tensor ref = serial.forward(one);
    std::memcpy(oracle.logits.data() + i * oracle.out, ref.data(),
                sizeof(float) * static_cast<std::size_t>(oracle.out));
  }
  return oracle;
}

struct Phase {
  OpenLoopResult result;
  Tail tail;
  double p50 = 0.0;
  bool meets_slo = false;
};

// One phase of wire traffic on the given due times (seconds from the
// phase start), every kOk reply checked against the oracle. `rate` names
// the phase in the notes.
Phase wire_phase(Context& ctx, const ServeStack& stack,
                 const csq::InMemoryDataset& pool, const Oracle& oracle,
                 const std::string& name, double rate, std::vector<double> due,
                 std::uint64_t stream, double drain_timeout_s) {
  Phase phase;
  OpenLoopConfig config;
  config.port = stack.transport->port();
  config.model_id = kModelId;
  config.connections = std::max(1, ctx.nproc);
  config.drain_timeout_s = drain_timeout_s;
  config.due_s = std::move(due);
  config.image = image_choices(ctx.seed * 7919 + stream, config.due_s.size(),
                               kImagePool);
  config.images = pool.images().data();
  config.sample_numel = kSampleNumel;
  const std::vector<std::int32_t>& image = config.image;
  phase.result = run_open_loop(
      config,
      [&](std::size_t request, const float* logits, std::uint32_t count) {
        return static_cast<std::int64_t>(count) == oracle.out &&
               same_bits(logits,
                         oracle.logits.data() +
                             static_cast<std::int64_t>(image[request]) *
                                 oracle.out,
                         oracle.out);
      },
      &ctx.tracer);
  const std::vector<double>& lat = phase.result.latency_ms;
  phase.tail = supported_tail(lat);
  phase.p50 = median(lat);
  // No growing backlog: the last tenth of the schedule is served within the
  // limit at its median, not only the phase as a whole at its p99.
  std::vector<double> last(lat.end() - static_cast<std::ptrdiff_t>(lat.size() / 10),
                           lat.end());
  const bool backlog_ok = last.empty() || median(last) <= kSloMs;
  phase.meets_slo = phase.result.failed == 0 && phase.tail.ok &&
                    phase.tail.pct.p >= 0.99 &&
                    phase.tail.pct.value <= kSloMs && backlog_ok;
  ctx.attempted += phase.result.sent;
  ctx.failed += phase.result.failed;
  ctx.check(phase.result.mismatched == 0,
            "serve_wire: a kOk wire response differs from the single-sample "
            "forward of its image");
  const Tail late = supported_tail(phase.result.lateness_us);
  const std::string key = "phase." + name + "@" + std::to_string(static_cast<int>(rate));
  ctx.notes.add(key + ".sent", phase.result.sent);
  ctx.notes.add(key + ".succeeded", phase.result.succeeded);
  ctx.notes.add(key + ".failed", phase.result.failed);
  for (std::size_t s = 1; s < phase.result.by_status.size(); ++s) {
    if (phase.result.by_status[s] != 0) {
      ctx.notes.add(key + ".failed." +
                        sv::wire_status_name(static_cast<sv::WireStatus>(s)),
                    phase.result.by_status[s]);
    }
  }
  ctx.notes.add(key + ".mismatched", phase.result.mismatched);
  ctx.notes.add(key + ".goodput_rps",
                static_cast<double>(phase.result.succeeded) / phase.result.elapsed_s);
  ctx.notes.add(key + ".p50_ms", phase.p50);
  ctx.notes.add(key + ".p" + std::to_string(phase.tail.pct.p * 100.0) + "_ms",
                phase.tail.pct.value);
  ctx.notes.add(key + ".gen_late_p99_us", late.pct.value);
  ctx.notes.add(key + ".meets_slo", phase.meets_slo ? "yes" : "no");
  return phase;
}

// Poisson arrivals at `rate` for `seconds`.
Phase open_loop_phase(Context& ctx, const ServeStack& stack,
                      const csq::InMemoryDataset& pool, const Oracle& oracle,
                      const std::string& name, double rate, double seconds,
                      std::uint64_t stream) {
  return wire_phase(ctx, stack, pool, oracle, name, rate,
                    poisson_schedule(ctx.seed * 1000003 + stream, rate, seconds),
                    stream, 5.0);
}

Metrics run_serve_wire(Context& ctx, const csq::InMemoryDataset& pool,
                       double seconds, double* setup_s) {
  const Oracle oracle = make_oracle(ctx.artifact, pool);

  std::vector<double> setups;
  std::unique_ptr<ServeStack> stack;
  for (int r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    ScopedSpan span(ctx.tracer, "setup.serve");
    stack = start_serving(ctx.artifact);
    setups.push_back(seconds_since(t0));
  }
  *setup_s = median(setups);

  // A quarter of the time at each fixed rate; every phase has at least
  // 1100 requests, so its p99 has more than ten samples beyond it.
  const Phase lo = open_loop_phase(ctx, *stack, pool, oracle, "lo", kRateLo,
                                   std::max(seconds / 4, 1100.0 / kRateLo), 1);
  const Phase hi = open_loop_phase(ctx, *stack, pool, oracle, "hi", kRateHi,
                                   std::max(seconds / 4, 1100.0 / kRateHi), 2);

  // Wire capacity (images_per_s): kCapacityRequests requests all due at
  // once, so every connection always has its next frame waiting — nproc
  // closed-loop clients. Saturated goodput depends on service speed, not
  // on the few host stalls that decide a p99.
  const Phase capacity = wire_phase(
      ctx, *stack, pool, oracle, "capacity", 0.0,
      std::vector<double>(kCapacityRequests, 0.0), 3, 60.0);
  const double capacity_rps = static_cast<double>(capacity.result.succeeded) /
                              capacity.result.elapsed_s;
  ctx.notes.add("wire_capacity_rps", capacity_rps);

  // slo_rps: log-scale bisection inside the bracket the fixed rates give
  // (below lo: [lo/4, lo]; between: [lo, hi]; above hi: [hi, 2.5 hi]), one
  // phase of a tenth of the time per probe, longer when needed for 1100
  // requests but never over a quarter (a probe too short for a supported
  // p99 counts as failing). The result is where the p99 crosses the limit,
  // interpolated on log scales between the highest passing and the lowest
  // failing rate (the p99 rises smoothly with the rate there, so this is
  // steadier than the last passing probe alone).
  struct Point {
    double rate = 0.0;
    double p99 = 0.0;
    bool measured = false;
  };
  Point good{kRateLo / 4.0, 0.0, false}, bad{kRateLo, lo.tail.pct.value, true};
  if (lo.meets_slo) {
    good = {kRateLo, lo.tail.pct.value, true};
    bad = {kRateHi, hi.tail.pct.value, true};
  }
  if (lo.meets_slo && hi.meets_slo) {
    good = {kRateHi, hi.tail.pct.value, true};
    bad = {2.5 * kRateHi, 0.0, false};
  }
  for (int i = 0; i < kSloProbes; ++i) {
    const double rate = std::sqrt(good.rate * bad.rate);
    const Phase probe = open_loop_phase(
        ctx, *stack, pool, oracle, "slo", rate,
        std::min(std::max(seconds / 10, 1100.0 / rate), seconds / 4),
        10 + static_cast<std::uint64_t>(i));
    (probe.meets_slo ? good : bad) = {rate, probe.tail.pct.value, true};
  }
  double slo_rps = good.rate;
  if (good.measured && bad.measured && good.p99 > 0.0 && good.p99 < kSloMs &&
      bad.p99 > kSloMs) {
    const double f = std::log(kSloMs / good.p99) / std::log(bad.p99 / good.p99);
    slo_rps = good.rate * std::pow(bad.rate / good.rate, f);
  }
  ctx.notes.add("slo_rps", slo_rps);
  ctx.notes.add("slo_rps.highest_passing_probe", good.rate);
  ctx.notes.add("slo_rps.lowest_failing_probe", bad.rate);
  ctx.notes.add("slo_limit_ms", kSloMs);
  if (!good.measured) ctx.notes.add("slo_rps.below_search_floor", "yes");

  Metrics m;
  m["images_per_s"] = {capacity_rps, "img/s"};
  m = add_latency(ctx, m, "lo", lo.result.latency_ms,
                  "wire request at rate lo, from due time");
  m = add_latency(ctx, m, "hi", hi.result.latency_ms,
                  "wire request at rate hi, from due time");
  return m;
}

// --------------------------------------------------------------- train_csq --

struct TrainStack {
  std::vector<csq::CsqWeightSource*> sources;   // primary
  std::vector<csq::CsqWeightSource*> mirrors;   // every replica's sources
  std::unique_ptr<csq::Model> primary;
  std::unique_ptr<csq::DataParallelTrainer> trainer;
  std::unique_ptr<csq::Sgd> sgd;
  std::vector<std::vector<csq::CsqWeightSource*>> replica_registries;
};

std::unique_ptr<TrainStack> build_trainer(std::uint64_t seed, int workers) {
  auto stack = std::make_unique<TrainStack>();
  stack->primary = std::make_unique<csq::Model>(
      build_resnet(seed, &stack->sources, /*fixed_bits=*/false));
  stack->replica_registries.reserve(static_cast<std::size_t>(workers));
  csq::DataParallelConfig config;
  config.workers = workers;
  TrainStack* raw = stack.get();
  stack->trainer = std::make_unique<csq::DataParallelTrainer>(
      *stack->primary,
      [raw, seed]() {
        raw->replica_registries.emplace_back();
        return build_resnet(seed, &raw->replica_registries.back(), false);
      },
      config);
  for (auto& registry : stack->replica_registries) {
    stack->mirrors.insert(stack->mirrors.end(), registry.begin(), registry.end());
  }
  csq::SgdConfig sgd;
  sgd.learning_rate = 0.05f;
  stack->sgd = std::make_unique<csq::Sgd>(stack->primary->arena(), sgd);
  return stack;
}

void set_beta(TrainStack& stack, std::int64_t step) {
  static const csq::TemperatureSchedule schedule(1.0f, 200.0f, kBetaStages);
  const int epoch = static_cast<int>((step / kStepsPerBeta) % kBetaStages);
  const float beta = schedule.at_epoch(epoch);
  for (auto* s : stack.sources) s->set_beta(beta);
  for (auto* s : stack.mirrors) s->set_beta(beta);
}

float train_step(Context& ctx, TrainStack& stack, const csq::Batch& batch,
                 std::int64_t step) {
  set_beta(stack, step);
  ScopedSpan span(ctx.tracer, "opt.train_step", step);
  const csq::DataParallelTrainer::StepStats stats = stack.trainer->train_step(
      batch, *stack.sgd, [&]() {
        ScopedSpan budget(ctx.tracer, "core.budget", step);
        csq::apply_budget_regularizer(stack.sources, kLambda, kTargetBits);
      });
  return stats.loss;
}

std::vector<csq::Batch> make_batches(const Context& ctx,
                                     const csq::InMemoryDataset& pool,
                                     std::int64_t size, int count,
                                     std::uint64_t stream) {
  std::vector<csq::Batch> batches;
  for (int b = 0; b < count; ++b) {
    const auto picks = image_choices(
        ctx.seed * 6151 + stream * 97 + static_cast<std::uint64_t>(b),
        static_cast<std::size_t>(size), kImagePool);
    batches.push_back(pool.gather(std::vector<int>(picks.begin(), picks.end())));
  }
  return batches;
}

Metrics run_train_csq(Context& ctx, const csq::InMemoryDataset& pool,
                      double seconds, double* setup_s) {
  const std::vector<csq::Batch> batches = make_batches(ctx, pool, kTrainBatch, 8, 1);
  const std::vector<csq::Batch> small = make_batches(ctx, pool, kTrainLoBatch, 8, 2);

  std::vector<double> setups;
  std::unique_ptr<TrainStack> stack;
  for (int r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    ScopedSpan span(ctx.tracer, "setup.train");
    stack = build_trainer(ctx.seed, ctx.nproc);
    setups.push_back(seconds_since(t0));
  }
  *setup_s = median(setups);

  // Every step counts as attempted; a step whose loss is not finite failed.
  std::int64_t step = 0;
  std::uint64_t nonfinite = 0;
  const auto run_step = [&](const csq::Batch& batch) {
    const float loss = train_step(ctx, *stack, batch, step++);
    ++ctx.attempted;
    if (!std::isfinite(loss)) ++nonfinite;
  };

  // Untimed first steps: warm-up, and the state the one-worker replay must
  // reproduce bit for bit.
  for (int i = 0; i < kReplaySteps; ++i) run_step(batches[static_cast<std::size_t>(i)]);
  const csq::ParameterArena& arena = stack->primary->arena();
  const std::vector<float> snapshot(arena.values(), arena.values() + arena.size());

  // A quarter of the time at batch 16 (lat *.lo), the rest at batch 64.
  std::vector<double> lo_ms, hi_ms;
  const std::int64_t lo_end = now_ns() + static_cast<std::int64_t>(seconds * 0.25e9);
  for (std::size_t i = 0; now_ns() < lo_end; ++i) {
    const std::int64_t t0 = now_ns();
    run_step(small[i % small.size()]);
    lo_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  std::int64_t images = 0;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 0.75e9);
  for (std::size_t i = 0; now_ns() < end; ++i) {
    const std::int64_t t0 = now_ns();
    run_step(batches[i % batches.size()]);
    hi_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    images += kTrainBatch;
  }
  const double images_per_s = static_cast<double>(images) / seconds_since(start);
  ctx.failed += nonfinite;
  ctx.check(nonfinite == 0, "train_csq: non-finite loss");
  ctx.notes.add("train.steps_attempted", step);
  ctx.notes.add("train.steps_completed", static_cast<std::uint64_t>(step) - nonfinite);
  ctx.notes.add("train.workers", ctx.nproc);
  stack.reset();

  // Determinism contract: one worker on the same shard grid reproduces the
  // parameter arena of the first steps exactly.
  {
    std::unique_ptr<TrainStack> one = build_trainer(ctx.seed, 1);
    Context quiet;  // replay steps are not traced or counted
    for (std::int64_t s = 0; s < kReplaySteps; ++s) {
      train_step(quiet, *one, batches[static_cast<std::size_t>(s)], s);
    }
    const csq::ParameterArena& replay = one->primary->arena();
    const bool same = replay.size() == static_cast<std::int64_t>(snapshot.size()) &&
                      same_bits(replay.values(), snapshot.data(), replay.size());
    ctx.check(same, "train_csq: parameter arena differs from the 1-worker replay");
    if (!same) ++ctx.failed;
    ctx.notes.add("train.replay_steps", kReplaySteps);
    ctx.notes.add("train.replay_identical", same ? "yes" : "no");
  }

  Metrics m;
  m["images_per_s"] = {images_per_s, "img/s"};
  m = add_latency(ctx, m, "lo", lo_ms, "train step at batch 16");
  m = add_latency(ctx, m, "hi", hi_ms, "train step at batch 64");
  return m;
}

Metrics run_workload(Context& ctx, const csq::InMemoryDataset& pool,
                     double seconds) {
  double setup_s = 0.0;
  Metrics m;
  if (ctx.workload == "infer_batch") {
    m = run_infer_batch(ctx, pool, seconds, &setup_s);
  } else if (ctx.workload == "serve_wire") {
    m = run_serve_wire(ctx, pool, seconds, &setup_s);
  } else if (ctx.workload == "train_csq") {
    m = run_train_csq(ctx, pool, seconds, &setup_s);
  } else {
    throw std::runtime_error("unknown workload " + ctx.workload);
  }
  m["setup_s"] = {setup_s, "s"};
  return m;
}

// ------------------------------------------------------------ layer probes --
//
// The traced run ends with the same probe sequence on every workload, so
// every per-layer metric is defined once, on one code path.

template <typename Fn>
double p50_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

struct LayerShape {
  const rt::PackedIntWeights* w = nullptr;
  bool conv = false;
  csq::ConvGeometry geom;
};

// Walks the program's instruction list to recover each lowered layer's
// input geometry (residual skips restart from the fork's shape).
std::vector<LayerShape> layer_shapes(const rt::CompiledGraph& graph) {
  using Kind = rt::ProgramInstr::Kind;
  const rt::GraphProgram& program = graph.program();
  const auto& views = graph.layer_weight_views();
  struct Dims { std::int64_t c, h, w; };
  Dims cur{kChannels, kSide, kSide};
  std::vector<std::pair<Dims, Dims>> stack;  // (fork, main-branch end)
  std::vector<LayerShape> out;
  const auto pooled_dim = [](std::int64_t x, std::int64_t k, std::int64_t s,
                             std::int64_t p) { return (x + 2 * p - k) / s + 1; };
  for (const rt::ProgramInstr& in : program.instrs) {
    switch (in.kind) {
      case Kind::kConv: {
        LayerShape shape;
        shape.w = views[static_cast<std::size_t>(in.layer)];
        shape.conv = true;
        shape.geom.channels = cur.c;
        shape.geom.height = cur.h;
        shape.geom.width = cur.w;
        shape.geom.kernel_h = shape.geom.kernel_w = in.kernel;
        shape.geom.stride = in.stride;
        shape.geom.pad = in.pad;
        cur = {shape.w->rows(), shape.geom.out_h(), shape.geom.out_w()};
        out.push_back(shape);
        break;
      }
      case Kind::kLinear: {
        LayerShape shape;
        shape.w = views[static_cast<std::size_t>(in.layer)];
        out.push_back(shape);
        cur = {shape.w->rows(), 1, 1};
        break;
      }
      case Kind::kMaxPool:
      case Kind::kAvgPool: {
        const std::int64_t kw = in.kernel_w ? in.kernel_w : in.kernel;
        cur.h = pooled_dim(cur.h, in.kernel, in.stride, in.pad);
        cur.w = pooled_dim(cur.w, kw, in.stride, in.pad);
        break;
      }
      case Kind::kGlobalAvgPool:
        cur.h = cur.w = 1;
        break;
      case Kind::kBeginResidual:
        stack.push_back({cur, cur});
        break;
      case Kind::kBeginSkip:
        stack.back().second = cur;
        cur = stack.back().first;
        break;
      case Kind::kEndResidual:
        cur = stack.back().second;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return out;
}

std::int64_t round_up(std::int64_t x, std::int64_t m) { return (x + m - 1) / m * m; }

void probe_runtime(Context& ctx, const csq::InMemoryDataset& pool, Metrics& m) {
  rt::CompiledGraph graph = rt::load_graph_mmap(ctx.artifact, /*pooled=*/true);
  graph.prepare(kScoreBatch);
  const Tensor b32 = gather_images(pool, image_choices(ctx.seed + 5, kScoreBatch, kImagePool));
  const Tensor b8 = gather_images(pool, image_choices(ctx.seed + 6, 8, kImagePool));
  const Tensor b1 = gather_images(pool, image_choices(ctx.seed + 7, 1, kImagePool));
  graph.forward(b32);
  const double forward_ms = p50_ms(30, [&] {
    ScopedSpan span(ctx.tracer, "probe.runtime.forward.b32");
    graph.forward(b32);
  });
  m["runtime.forward.ms"] = {forward_ms, "ms"};
  m["runtime.workspace_bytes"] = {static_cast<double>(graph.workspace_bytes()), "B"};

  graph.set_pooled(false);
  const std::pair<const Tensor*, int> serial[] = {{&b1, 300}, {&b8, 60}, {&b32, 20}};
  for (const auto& [input, reps] : serial) {
    graph.forward(*input);
    const double ms = p50_ms(reps, [&] {
      ScopedSpan span(ctx.tracer, "probe.runtime.forward.serial");
      graph.forward(*input);
    });
    m["runtime.us_per_image.b" + std::to_string(input->dim(0))] = {
        ms * 1e3 / static_cast<double>(input->dim(0)), "us"};
  }
  graph.set_pooled(true);

  // GEMM / im2col replay at each lowered layer's real shapes and batch 32,
  // with the runtime's parallel structure: samples across the pool, one
  // serial GEMM per sample into a per-thread im2col stripe (the linear head
  // is one pooled GEMM with n = batch). Time inside each sample is split
  // between im2col_u8 and the GEMM with per-call timers.
  const std::vector<LayerShape> shapes = layer_shapes(graph);
  const int slots = csq::pool_slot_count();
  std::map<std::string, std::pair<double, double>> by_kernel;  // ops, seconds
  double gemm_ms = 0.0, im2col_ms = 0.0, useful = 0.0, executed = 0.0;
  csq::Rng rng(ctx.seed + 11);
  for (const LayerShape& shape : shapes) {
    const rt::PackedIntWeights& w = *shape.w;
    const std::int64_t k = w.cols(), rows = w.rows();
    const std::int64_t p = shape.conv ? shape.geom.col_cols() : kScoreBatch;
    const std::int64_t in_numel =
        shape.conv ? shape.geom.channels * shape.geom.height * shape.geom.width : k;
    std::vector<std::uint8_t> input(static_cast<std::size_t>(kScoreBatch * in_numel));
    for (auto& v : input) v = static_cast<std::uint8_t>(rng.uniform_int(256));
    std::vector<std::uint8_t> stripes(static_cast<std::size_t>(slots * k * p));
    const std::int64_t acc_per = rows * p;
    std::vector<std::int32_t> acc(static_cast<std::size_t>(
        (shape.conv ? kScoreBatch : 1) * acc_per));
    const bool direct = shape.conv && shape.geom.kernel_h == 1 &&
                        shape.geom.stride == 1 && shape.geom.pad == 0;
    std::vector<double> gemm_runs, im2col_runs;
    for (int rep = 0; rep < 7; ++rep) {
      std::vector<std::int64_t> gemm_ns(static_cast<std::size_t>(slots), 0);
      std::vector<std::int64_t> col_ns(static_cast<std::size_t>(slots), 0);
      const std::int64_t t0 = now_ns();
      if (shape.conv) {
        csq::global_pool().parallel_for(0, kScoreBatch, [&](std::int64_t b) {
          const int slot = csq::pool_slot();
          const std::uint8_t* image = input.data() + b * in_numel;
          const std::uint8_t* col = image;
          const std::int64_t c0 = now_ns();
          if (!direct) {
            std::uint8_t* stripe = stripes.data() + slot * k * p;
            csq::im2col_u8(shape.geom, image, stripe, 0);
            col = stripe;
          }
          const std::int64_t c1 = now_ns();
          w.gemm(csq::Trans::no, p, col, p, acc.data() + b * acc_per, p, false);
          const std::int64_t c2 = now_ns();
          col_ns[static_cast<std::size_t>(slot)] += c1 - c0;
          gemm_ns[static_cast<std::size_t>(slot)] += c2 - c1;
        });
      } else {
        const std::int64_t c0 = now_ns();
        w.gemm(csq::Trans::yes, kScoreBatch, input.data(), k, acc.data(),
               kScoreBatch, true);
        gemm_ns[0] += now_ns() - c0;
      }
      const double wall = static_cast<double>(now_ns() - t0) / 1e6;
      double g = 0.0, c = 0.0;
      for (int s = 0; s < slots; ++s) {
        g += static_cast<double>(gemm_ns[static_cast<std::size_t>(s)]);
        c += static_cast<double>(col_ns[static_cast<std::size_t>(s)]);
      }
      gemm_runs.push_back(wall * g / std::max(1.0, g + c));
      im2col_runs.push_back(wall * c / std::max(1.0, g + c));
    }
    const double layer_gemm = median(gemm_runs);
    gemm_ms += layer_gemm;
    im2col_ms += median(im2col_runs);
    const double n_total = static_cast<double>(shape.conv ? kScoreBatch * p : p);
    const double macs = static_cast<double>(rows) * n_total * static_cast<double>(k);
    auto& family = by_kernel[w.kernel_name()];
    family.first += 2.0 * macs;
    family.second += layer_gemm / 1e3;
    useful += macs;
    const double calls = shape.conv ? static_cast<double>(kScoreBatch) : 1.0;
    executed += calls * static_cast<double>(round_up(rows, csq::kGemmMR)) *
                static_cast<double>(round_up(p, csq::kGemmNR)) *
                static_cast<double>(k);
  }
  m["tensor.gemm.ms"] = {gemm_ms, "ms"};
  m["tensor.im2col_u8.ms"] = {im2col_ms, "ms"};
  m["runtime.gemm_share"] = {gemm_ms / forward_ms, "ratio"};
  m["tensor.gemm.useful_mac_share"] = {useful / executed, "ratio"};
  for (const auto& [kernel, acc] : by_kernel) {
    m["tensor.gemm.gops." + kernel] = {acc.first / acc.second / 1e9, "Gop/s"};
    ctx.notes.add("gemm.ops." + kernel, acc.first);
  }
  ctx.notes.add("gemm_share.base", "pooled batch-32 forward p50");
  ctx.notes.add("useful_mac_share.base",
                "m*n*k over MACs with m padded to MR and n to NR, computed from shapes");
}

void probe_serve(Context& ctx, const csq::InMemoryDataset& pool, Metrics& m) {
  const Oracle oracle = make_oracle(ctx.artifact, pool);
  std::unique_ptr<ServeStack> stack = start_serving(ctx.artifact);
  const sv::ModelHandle handle = stack->server->handle(kModelId);
  std::vector<float> logits(static_cast<std::size_t>(oracle.out));
  const float* images = pool.images().data();
  std::uint64_t errors = 0, mismatches = 0;
  const auto expected = [&](int image) {
    return oracle.logits.data() + static_cast<std::int64_t>(image) * oracle.out;
  };
  const double inproc_ms = p50_ms(400, [&, i = 0]() mutable {
    const int image = i++ % kImagePool;
    ScopedSpan span(ctx.tracer, "probe.serve.try_infer");
    const sv::ServeStatus status = stack->server->try_infer(
        handle, images + image * kSampleNumel, logits.data());
    if (status != sv::ServeStatus::kOk) ++errors;
    else if (!same_bits(logits.data(), expected(image), oracle.out)) ++mismatches;
  });
  sv::TransportClient client(stack->transport->port());
  std::vector<float> wire_logits;
  const double rtt_ms = p50_ms(400, [&, i = 0]() mutable {
    const int image = i++ % kImagePool;
    ScopedSpan span(ctx.tracer, "probe.transport.request");
    const sv::WireStatus status = client.infer(
        kModelId, images + image * kSampleNumel, kSampleNumel, wire_logits);
    if (status != sv::WireStatus::kOk) ++errors;
    else if (static_cast<std::int64_t>(wire_logits.size()) != oracle.out ||
             !same_bits(wire_logits.data(), expected(image), oracle.out)) {
      ++mismatches;
    }
  });
  ctx.check(mismatches == 0,
            "serve probe: a reply differs from the single-sample forward");
  std::vector<double> pipelined;
  {
    ScopedSpan span(ctx.tracer, "probe.transport.pipelined_pairs");
    pipelined = pipelined_rtt_us(stack->transport->port(), kModelId, images,
                                 kSampleNumel, 32, 15);
  }
  if (pipelined.empty()) ++errors;
  m["transport.pipelined_rtt_p50_us"] = {pipelined.empty() ? -1.0 : median(pipelined), "us"};
  m["serve.inproc_p50_us"] = {inproc_ms * 1e3, "us"};
  m["serve.overhead_p50_us"] = {inproc_ms * 1e3 - m["runtime.us_per_image.b1"].value, "us"};
  m["transport.rtt_p50_us"] = {rtt_ms * 1e3, "us"};
  m["transport.overhead_p50_us"] = {(rtt_ms - inproc_ms) * 1e3, "us"};

  const sv::BatchingServer::ShardStats before = stack->server->stats(kModelId);
  const Phase phase = open_loop_phase(ctx, *stack, pool, oracle, "probe_hi",
                                      kRateHi, 1.5, 99);
  const sv::BatchingServer::ShardStats after = stack->server->stats(kModelId);
  const double batches = static_cast<double>(after.batches - before.batches);
  m["serve.mean_batch"] = {
      static_cast<double>(after.requests - before.requests) / std::max(1.0, batches),
      "req/batch"};
  m["serve.timer_flush_share"] = {
      static_cast<double>(after.timer_flushes - before.timer_flushes) /
          std::max(1.0, batches),
      "ratio"};
  m["serve.flush_wait_p99_us"] = {static_cast<double>(after.flush_wait_p99_us), "us"};
  m["serve.failed"] = {static_cast<double>(after.rejected + after.timed_out +
                                           after.shed),
                       "count"};
  const sv::ServeTransport::Stats ts = stack->transport->stats();
  m["transport.errors"] = {
      static_cast<double>(ts.transport_errors + ts.bad_requests + errors +
                          phase.result.by_status[6]),
      "count"};
  m["gen.late_p99_us"] = {supported_tail(phase.result.lateness_us).pct.value, "us"};
  ctx.notes.add("serve.overhead_base", "serve.inproc_p50_us - runtime.us_per_image.b1");
  ctx.notes.add("transport.overhead_base", "transport.rtt_p50_us - serve.inproc_p50_us");
}

void probe_train(Context& ctx, const csq::InMemoryDataset& pool, Metrics& m) {
  const std::vector<csq::Batch> batches = make_batches(ctx, pool, kTrainBatch, 4, 3);
  Context quiet;
  std::vector<double> steps_n, steps_1;
  {
    std::unique_ptr<TrainStack> many = build_trainer(ctx.seed, ctx.nproc);
    for (int s = 0; s < 7; ++s) {
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(ctx.tracer, "probe.opt.train_step.n");
        train_step(quiet, *many, batches[static_cast<std::size_t>(s) % 4], s);
      }
      if (s > 0) steps_n.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }
  std::unique_ptr<TrainStack> one = build_trainer(ctx.seed, 1);
  for (int s = 0; s < 4; ++s) {
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(ctx.tracer, "probe.opt.train_step.1");
      train_step(quiet, *one, batches[static_cast<std::size_t>(s) % 4], s);
    }
    if (s > 0) steps_1.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  m["opt.train_step.ms"] = {median(steps_n), "ms"};
  m["opt.dp_speedup"] = {median(steps_1) / median(steps_n), "ratio"};
  ctx.notes.add("dp_speedup.base", "p50 1-worker step / p50 " +
                                       std::to_string(ctx.nproc) +
                                       "-worker step, batch 64");

  // Serial one-shard decomposition on the primary model: a default-grid
  // shard (batch / 8 rows), forward, loss, backward, budget, SGD. It splits
  // one step's work by layer; it is not a profile of the parallel step.
  csq::SerialExecutionGuard serial;
  const csq::Batch& batch = batches[0];
  const std::int64_t rows = kTrainBatch / csq::kDefaultTrainShards;
  csq::Batch shard;
  shard.images = Tensor({rows, kChannels, kSide, kSide});
  std::memcpy(shard.images.data(), batch.images.data(),
              sizeof(float) * static_cast<std::size_t>(rows * kSampleNumel));
  shard.labels.assign(batch.labels.begin(), batch.labels.begin() + rows);
  csq::Model& model = *one->primary;
  csq::SoftmaxCrossEntropy loss;
  std::vector<double> fwd, bwd, mat, budget, sgd;
  for (int r = 0; r < 6; ++r) {
    std::int64_t t0 = now_ns();
    {
      ScopedSpan span(ctx.tracer, "probe.quant.materialize");
      for (csq::CsqWeightSource* source : one->sources) source->weight(true);
    }
    mat.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    t0 = now_ns();
    Tensor logits;
    {
      ScopedSpan span(ctx.tracer, "probe.nn.forward");
      logits = model.forward(shard.images, /*training=*/true);
    }
    fwd.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    loss.forward(logits, shard.labels);
    t0 = now_ns();
    {
      ScopedSpan span(ctx.tracer, "probe.nn.backward");
      model.backward(loss.backward());
    }
    bwd.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    t0 = now_ns();
    {
      ScopedSpan span(ctx.tracer, "probe.core.budget");
      csq::apply_budget_regularizer(one->sources, kLambda, kTargetBits);
    }
    budget.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    t0 = now_ns();
    {
      ScopedSpan span(ctx.tracer, "probe.opt.sgd");
      one->sgd->step();
    }
    sgd.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    model.zero_grad();
  }
  m["nn.forward.ms"] = {median(fwd), "ms"};
  m["nn.backward.ms"] = {median(bwd), "ms"};
  m["quant.materialize.ms"] = {median(mat), "ms"};
  m["core.budget.ms"] = {median(budget), "ms"};
  m["opt.sgd.ms"] = {median(sgd), "ms"};
  m["core.avg_bits"] = {csq::average_precision(one->sources), "count"};
  ctx.notes.add("nn.shard_rows", rows);
}

// ------------------------------------------------------------------ output --

void print_result(Context& ctx, const Metrics& metrics,
                  const std::vector<std::string>& expected) {
  // The emitted set must be exactly the declared set.
  std::set<std::string> want(expected.begin(), expected.end());
  std::set<std::string> have;
  for (const auto& [name, metric] : metrics) have.insert(name);
  ctx.check(want == have, "emitted metric names differ from the declared list");
  for (const auto& [name, metric] : metrics) {
    ctx.check(std::isfinite(metric.value), "metric " + name + " is not finite");
  }

  std::cout << "context " << machine_context(ctx) << "\n";
  for (const auto& [key, value] : ctx.notes.items) {
    std::cout << "note " << key << " = " << value << "\n";
  }
  for (const std::string& error : ctx.errors) {
    std::cout << "check failed: " << error << "\n";
  }
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (ctx.errors.empty() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(1, ctx.attempted)
     << ", \"failed\": " << ctx.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << (std::isfinite(metric.value) ? metric.value : -1.0)
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  // Detail record next to the trace: context, notes and the result line.
  std::ofstream detail(ctx.out_dir + "/result_" + ctx.workload + "_seed" +
                       std::to_string(ctx.seed) + "_trace" +
                       (ctx.trace ? "1" : "0") + ".json");
  detail << "{\"context\": " << machine_context(ctx) << ", \"notes\": {";
  first = true;
  for (const auto& [key, value] : ctx.notes.items) {
    detail << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \""
           << json_escape(value) << "\"";
    first = false;
  }
  detail << "}, \"result\": " << os.str() << "}\n";
  std::cout << os.str() << std::endl;
}

int cmd_run(Context& ctx) {
  ctx.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const csq::InMemoryDataset pool = make_images(ctx.seed, kImagePool);

  if (!ctx.trace) {
    Metrics m = run_workload(ctx, pool, ctx.seconds);
    m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    print_result(ctx, m, end_to_end_names());
    return ctx.errors.empty() ? 0 : 3;
  }

  // Traced run: the workload untraced and traced for half the time each
  // (their difference is the tracing overhead), then the layer probes.
  const std::string primary =
      ctx.workload == "serve_wire" ? "lat_p50_ms.hi" : "images_per_s";
  const bool higher_better = primary == "images_per_s";
  ctx.notes.prefix = "untraced.";
  const Metrics plain = run_workload(ctx, pool, ctx.seconds / 2);
  ctx.tracer.set_enabled(true);
  ctx.notes.prefix = "traced.";
  const Metrics traced = run_workload(ctx, pool, ctx.seconds / 2);
  ctx.notes.prefix = "";
  for (const auto& [name, metric] : traced) {
    ctx.notes.add("traced." + name, metric.value);
    ctx.notes.add("untraced." + name, plain.at(name).value);
  }
  Metrics m;
  const double a = plain.at(primary).value, b = traced.at(primary).value;
  m["trace.overhead_share"] = {higher_better ? a / b - 1.0 : b / a - 1.0, "ratio"};
  ctx.notes.add("trace.overhead_base", "traced vs untraced " + primary);
  probe_runtime(ctx, pool, m);
  probe_serve(ctx, pool, m);
  probe_train(ctx, pool, m);
  const std::string trace_path = ctx.out_dir + "/trace_" + ctx.workload +
                                 "_seed" + std::to_string(ctx.seed) + ".json";
  ctx.check(ctx.tracer.write(trace_path), "could not write " + trace_path);
  ctx.notes.add("trace.file", trace_path);
  for (const auto& [name, s] : ctx.tracer.summarize()) {
    std::ostringstream os;
    os << "count " << s.count << " total_ms " << s.total_ms << " self_ms "
       << s.self_ms << " p50_ms " << s.p50_ms;
    ctx.notes.add("span." + name, os.str());
  }
  print_result(ctx, m, per_layer_names());
  return ctx.errors.empty() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: csq_perfbench prepare|run|list-metrics ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto need = [&](const std::string& key) {
    const auto it = args.find(key);
    if (it == args.end()) throw std::runtime_error("missing " + key);
    return it->second;
  };
  try {
    if (cmd == "list-metrics") {
      for (const auto& name : end_to_end_names()) std::cout << "end_to_end " << name << "\n";
      for (const auto& name : per_layer_names()) std::cout << "per_layer " << name << "\n";
      return 0;
    }
    if (cmd == "prepare") {
      return cmd_prepare(std::stoull(need("--seed")), need("--out"));
    }
    if (cmd == "run") {
      Context ctx;
      ctx.workload = need("--workload");
      ctx.seed = std::stoull(need("--seed"));
      ctx.seconds = std::stod(need("--seconds"));
      ctx.trace = need("--trace") == "1";
      ctx.artifact = need("--artifact");
      ctx.out_dir = need("--out-dir");
      if (args.count("--portable")) ctx.portable = args["--portable"];
      if (args.count("--commit")) ctx.commit = args["--commit"];
      return cmd_run(ctx);
    }
  } catch (const std::exception& e) {
    std::cerr << "csq_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command " << cmd << "\n";
  return 2;
}

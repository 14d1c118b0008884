#include "serve/batching_server.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "runtime/graph_artifact.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace csq {
namespace serve {

namespace detail {

using Clock = std::chrono::steady_clock;

// One in-flight request. Lives on the producer's stack for the duration of
// its try_infer() call — the queue stores only the pointer, so the request
// path never allocates. Every admitted node is completed exactly once
// before its producer returns: normally by the worker that served it,
// force-completed with a failure status (quarantine overflow, shard death,
// drain deadline), or cancelled by its own producer on deadline expiry (the
// only path that removes a node without setting done).
struct Request {
  const float* sample = nullptr;
  float* logits = nullptr;
  Clock::time_point enqueued;
  bool done = false;
  ServeStatus status = ServeStatus::kOk;
};

// How a worker left its serving loop.
enum class WorkerExit {
  kStopped,  // stopping and fully drained
  kRetired,  // claimed a pending scale-down request
};

// Outcome of the backoff-rebuild loop shared by quarantine recovery and
// scale-up bootstrap.
enum class RestoreOutcome {
  kRestored,   // fresh warmed replica installed in the slot
  kRetired,    // claimed a pending scale-down request instead
  kStopped,    // server stopping
  kExhausted,  // restore_max_attempts rebuilds all failed
};

// One model id: a request ring plus one worker thread (and graph replica)
// per live replica slot. All queue state is guarded by `mutex`;
// `queue_cv` wakes workers (work arrived / batch filled / stop / retire /
// backoff interrupt), `done_cv` wakes producers (results ready, ring space
// freed) and start()'s warmup wait.
struct Shard {
  std::string id;
  // Replica slots, max_workers wide: [0, registered) are filled by
  // add_model, the rest are scale-up headroom (ServerOptions::max_replicas)
  // that bootstrap from the restore template on demand. A slot is null
  // whenever no worker owns it (never spawned, retired, or dead).
  std::vector<std::unique_ptr<runtime::CompiledGraph>> replicas;
  runtime::CompiledGraph::IoShape shape;
  const ServerOptions* options = nullptr;

  // Restore template: every replica was built from this shared immutable
  // program; quarantine recovery rebuilds dead replicas from it (no deep
  // copy of the codes) and re-installs the same edge-scale snapshot, so a
  // restored replica is bit-identical to its siblings.
  std::shared_ptr<const runtime::GraphProgram> program;
  runtime::LowerOptions graph_options;
  std::vector<runtime::EdgeScaleRecord> edge_records;

  std::mutex mutex;
  std::condition_variable queue_cv;
  std::condition_variable done_cv;
  std::vector<Request*> ring;  // preallocated; head/count index it
  std::size_t head = 0;
  std::size_t count = 0;
  bool accepting = false;  // start() opens, stop()/total failure closes —
                           // the only lifecycle state try_infer consults,
                           // so producers never race an unguarded flag
  bool stopping = false;
  bool failed = false;  // no live replica left (or warmup failed)
  std::exception_ptr worker_error;
  int workers_ready = 0;
  int worker_target = 0;   // start() rendezvous width
  int max_workers = 0;     // slot count: max(registered, max_replicas)
  int quarantined_now = 0;
  int dead_now = 0;
  // Scaling state. live_workers counts every worker that will eventually
  // serve or die trying — serving, quarantine-restoring, and bootstrapping
  // scale-up workers alike; the shard fails only when it hits zero.
  // retire_requests is the pending scale-down count: ANY worker that
  // observes it positive claims one and exits between batches.
  int live_workers = 0;
  int retire_requests = 0;
  std::vector<std::uint8_t> slot_busy;  // a worker owns this replica slot
  // Autoscaler latency signal: per-batch flush wait (oldest popped
  // request's queueing time, µs) over the last kFlushWindow batches.
  // Concurrency audit: BOTH sides of this ring are under `mutex` — the
  // worker writes flush_waits/flush_wait_pos/flush_wait_count inside the
  // locked pop scope of run_worker, and stats() copies them under the same
  // lock — so there is no torn-read window (the TSan stats-hammer test
  // pins this against a producer flood).
  static constexpr std::size_t kFlushWindow = 256;
  std::vector<std::int64_t> flush_waits;
  std::size_t flush_wait_pos = 0;
  std::size_t flush_wait_count = 0;
  BatchingServer::ShardStats stats;
  // Workers currently between pop and scatter-completion (running a
  // forward). Atomic rather than mutex-guarded so the idle-sibling release
  // guard in run_worker stays exception-safe without re-taking the lock on
  // the quarantine unwind path.
  std::atomic<int> flushing_now{0};

  std::vector<std::thread> workers;

  std::size_t capacity() const { return ring.size(); }

  void worker_loop(int worker_index);
  void scale_worker_loop(int worker_index);
  void serve_until_exit(int worker_index, std::vector<Request*>& taken,
                        std::size_t& n, Tensor& staging);
  WorkerExit run_worker(int worker_index, std::vector<Request*>& taken,
                        std::size_t& n, Tensor& staging);
  std::vector<Tensor> warmup_replica(runtime::CompiledGraph& graph,
                                     Tensor& staging);
  bool quarantine_and_restore(int worker_index, std::vector<Request*>& taken,
                              std::size_t& n);
  RestoreOutcome restore_with_backoff(int worker_index);
  // Permanent worker exit: releases the slot (freeing the replica's
  // memory), drops live_workers and — when the last live worker dies
  // unexpectedly — fails the shard. Takes `mutex`.
  void worker_exit(int worker_index, bool dead);
  // Completes every queued request with `status`. Caller holds `mutex` and
  // notifies done_cv afterwards.
  void complete_queued_locked(ServeStatus status);
};

void Shard::complete_queued_locked(ServeStatus status) {
  while (count > 0) {
    Request* request = ring[head];
    head = (head + 1) % capacity();
    --count;
    request->status = status;
    request->done = true;
    ++stats.rejected;
  }
}

// Warmup: grow the graph's activation workspace, this thread's GEMM packing
// scratch and the staging tensor to their steady-state extents so the
// request path never touches the heap. The flush policy can produce ANY
// batch size in [1, max_batch], and every worker can have one output tensor
// in flight at once — the returned outputs are HELD by the caller (across
// the start() rendezvous) to seed the tensor pool with the worst-case
// number of spans per size bucket.
std::vector<Tensor> Shard::warmup_replica(runtime::CompiledGraph& graph,
                                          Tensor& staging) {
  CSQ_FAILPOINT("serve.warmup");
  const std::int64_t max_batch = options->max_batch;
  graph.prepare(max_batch);
  std::vector<Tensor> warm_outputs;
  warm_outputs.reserve(static_cast<std::size_t>(max_batch));
  for (std::int64_t b = max_batch; b >= 1; --b) {
    staging.resize_unspecified({b, shape.channels, shape.height,
                                shape.width});
    warm_outputs.push_back(graph.forward(staging));
  }
  return warm_outputs;
}

void Shard::worker_loop(int worker_index) {
  // `taken` and `n` live here so the failure paths can account for the
  // requests this worker had already popped: a check_error escaping a
  // std::thread body would std::terminate the whole serving process, and a
  // producer must never be left waiting on (or a worker writing into) a
  // stack node whose batch died mid-flight.
  std::vector<Request*> taken(
      static_cast<std::size_t>(options->max_batch), nullptr);
  std::size_t n = 0;
  Tensor staging = Tensor::zeros(
      {options->max_batch, shape.channels, shape.height, shape.width});

  // Initial warmup. A failure here fails the whole shard and start()
  // rethrows it synchronously: a replica that cannot even warm up is a
  // configuration error, not a runtime fault worth a quarantine loop.
  std::vector<Tensor> warm_outputs;
  try {
    warm_outputs = warmup_replica(
        *replicas[static_cast<std::size_t>(worker_index)], staging);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex);
    failed = true;
    stopping = true;
    accepting = false;
    if (!worker_error) worker_error = std::current_exception();
    workers_ready = worker_target;  // release start()'s warmup wait
    --live_workers;
    complete_queued_locked(ServeStatus::kShardFailed);
    queue_cv.notify_all();
    done_cv.notify_all();
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ++workers_ready;
    done_cv.notify_all();
    done_cv.wait(lock, [&] {
      return workers_ready >= worker_target || stopping;
    });
  }
  warm_outputs.clear();

  serve_until_exit(worker_index, taken, n, staging);
}

// Scale-up entry point (set_replicas): the slot is claimed and counted in
// live_workers, but holds no replica yet — bootstrap one from the restore
// template with the same backoff loop quarantine recovery uses, then join
// the serving rotation. Requests keep flowing on the existing workers the
// whole time.
void Shard::scale_worker_loop(int worker_index) {
  std::vector<Request*> taken(
      static_cast<std::size_t>(options->max_batch), nullptr);
  std::size_t n = 0;
  Tensor staging = Tensor::zeros(
      {options->max_batch, shape.channels, shape.height, shape.width});

  switch (restore_with_backoff(worker_index)) {
    case RestoreOutcome::kRestored:
      break;
    case RestoreOutcome::kRetired:
      worker_exit(worker_index, /*dead=*/false);
      return;
    case RestoreOutcome::kStopped: {
      std::lock_guard<std::mutex> lock(mutex);
      --live_workers;
      return;
    }
    case RestoreOutcome::kExhausted:
      worker_exit(worker_index, /*dead=*/true);
      return;
  }
  serve_until_exit(worker_index, taken, n, staging);
}

// Serving loop with quarantine recovery: any exception escaping a batch
// (replica forward, pool submission, injected fault) quarantines THIS
// replica only — the popped batch is requeued for siblings, and a
// backoff-restore loop rebuilds the replica before rejoining.
void Shard::serve_until_exit(int worker_index, std::vector<Request*>& taken,
                             std::size_t& n, Tensor& staging) {
  while (true) {
    try {
      switch (run_worker(worker_index, taken, n, staging)) {
        case WorkerExit::kStopped: {
          std::lock_guard<std::mutex> lock(mutex);
          --live_workers;
          return;
        }
        case WorkerExit::kRetired:
          worker_exit(worker_index, /*dead=*/false);
          // A retiring worker may have been the one a queued request was
          // waiting on: hand the queue to a sibling.
          queue_cv.notify_all();
          return;
      }
    } catch (...) {
      if (!quarantine_and_restore(worker_index, taken, n)) return;
    }
  }
}

WorkerExit Shard::run_worker(int worker_index, std::vector<Request*>& taken,
                             std::size_t& n, Tensor& staging) {
  runtime::CompiledGraph& graph =
      *replicas[static_cast<std::size_t>(worker_index)];
  const std::int64_t sample_numel =
      shape.channels * shape.height * shape.width;
  const std::int64_t max_batch = options->max_batch;
  // The replica's own execution mode (which a caller may have flipped with
  // set_pooled after lowering, so graph_options.pooled is not authoritative):
  // the level an idle-core grant is restored to when siblings are busy.
  const bool base_pooled = graph.pooled();

  while (true) {
    CSQ_FAILPOINT("serve.worker_batch");
    n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex);
      while (true) {
        queue_cv.wait(lock, [&] {
          return stopping || retire_requests > 0 || count > 0;
        });
        // Scale-down: claim one pending retirement between batches — any
        // worker will do, queued work goes to the siblings. stop() wins
        // over retirement (the drain needs every worker).
        if (retire_requests > 0 && !stopping) {
          --retire_requests;
          ++stats.scale_downs;
          return WorkerExit::kRetired;
        }
        if (count == 0) {
          if (stopping) return WorkerExit::kStopped;  // fully drained
          continue;
        }
        // Flush policy: wait for a full batch until the oldest queued
        // request's latency bound expires (requests carry their enqueue
        // stamp, so the deadline survives partial pops exactly).
        if (count < static_cast<std::size_t>(max_batch) && !stopping) {
          const Clock::time_point deadline =
              ring[head]->enqueued +
              std::chrono::microseconds(options->max_latency_us);
          queue_cv.wait_until(lock, deadline, [&] {
            return count >= static_cast<std::size_t>(max_batch) || stopping ||
                   retire_requests > 0;
          });
          if (retire_requests > 0 && !stopping) {
            --retire_requests;
            ++stats.scale_downs;
            return WorkerExit::kRetired;
          }
          // A sibling worker (or a timed-out producer cancelling its node)
          // may have drained the queue while this one slept on the timer:
          // go back to waiting instead of recording an empty batch.
          if (count == 0 && !stopping) continue;
          if (count == 0) return WorkerExit::kStopped;
        }
        break;
      }
      // Autoscaler latency signal: how long the oldest request of this
      // flush sat queued.
      flush_waits[flush_wait_pos] =
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - ring[head]->enqueued)
              .count();
      flush_wait_pos = (flush_wait_pos + 1) % kFlushWindow;
      flush_wait_count = std::min(flush_wait_count + 1, kFlushWindow);
      n = std::min(count, static_cast<std::size_t>(max_batch));
      for (std::size_t i = 0; i < n; ++i) {
        taken[i] = ring[(head + i) % capacity()];
      }
      head = (head + n) % capacity();
      count -= n;
      ++stats.batches;
      if (n == static_cast<std::size_t>(max_batch)) {
        ++stats.full_flushes;
      } else if (stopping) {
        ++stats.drain_flushes;  // stop() drain: no timer fired
      } else {
        ++stats.timer_flushes;
      }
      stats.max_batch_observed =
          std::max(stats.max_batch_observed, static_cast<std::int64_t>(n));
    }
    // Ring space freed: unblock producers waiting on backpressure.
    done_cv.notify_all();

    // Idle-sibling core budget: when no sibling is mid-flush, run this
    // batch with in-graph pooled execution so a lone (often batch-1)
    // request fans its column-split GEMMs out over the idle cores. The
    // counter is released on EVERY exit path — the quarantine unwind
    // included — by the guard, so a replica failure never wedges the
    // grant. Pooled and serial execution are bit-identical, so the grant
    // may differ batch to batch without affecting outputs.
    struct FlushingGuard {
      std::atomic<int>& counter;
      ~FlushingGuard() { counter.fetch_sub(1, std::memory_order_acq_rel); }
    };
    const int siblings_flushing =
        flushing_now.fetch_add(1, std::memory_order_acq_rel);
    FlushingGuard flushing_guard{flushing_now};
    bool borrowed = false;
    if (options->borrow_idle_cores) {
      borrowed = siblings_flushing == 0;
      graph.set_pooled(base_pooled || borrowed);
    }

    // Gather -> one batched integer forward -> scatter. The integer path is
    // batch-invariant, so each row is bit-identical to a single-sample
    // forward of the same graph.
    staging.resize_unspecified({static_cast<std::int64_t>(n), shape.channels,
                                shape.height, shape.width});
    float* dst = staging.data();
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(dst + static_cast<std::int64_t>(i) * sample_numel,
                  taken[i]->sample,
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
    }
    CSQ_FAILPOINT("serve.replica_forward");
    Tensor logits = graph.forward(staging);
    const float* out = logits.data();
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(taken[i]->logits,
                  out + static_cast<std::int64_t>(i) * shape.out_features,
                  static_cast<std::size_t>(shape.out_features) *
                      sizeof(float));
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < n; ++i) taken[i]->done = true;
      if (borrowed) ++stats.borrowed_flushes;
      n = 0;  // completed: the failure path must not touch these again
    }
    done_cv.notify_all();
  }
}

bool Shard::quarantine_and_restore(int worker_index,
                                   std::vector<Request*>& taken,
                                   std::size_t& n) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    ++stats.quarantines;
    ++quarantined_now;
    // Put the popped batch back at the FRONT of the ring — original
    // enqueue stamps intact, so flush deadlines and FIFO order survive —
    // for the sibling workers (or this one, once restored) to serve. If
    // producers already refilled the freed space, fail the overflow
    // cleanly instead of overwriting live nodes.
    const std::size_t requeue = std::min(n, capacity() - count);
    if (requeue > 0) {
      head = (head + capacity() - requeue) % capacity();
      for (std::size_t i = 0; i < requeue; ++i) {
        ring[(head + i) % capacity()] = taken[i];
      }
      count += requeue;
    }
    for (std::size_t i = requeue; i < n; ++i) {
      taken[i]->status = ServeStatus::kShardFailed;
      taken[i]->done = true;
      ++stats.rejected;
    }
    n = 0;
  }
  queue_cv.notify_all();  // requeued work for the siblings
  done_cv.notify_all();   // overflow completions

  const RestoreOutcome outcome = restore_with_backoff(worker_index);
  {
    std::lock_guard<std::mutex> lock(mutex);
    --quarantined_now;
    if (outcome == RestoreOutcome::kRestored) ++stats.restores;
  }
  switch (outcome) {
    case RestoreOutcome::kRestored:
      return true;  // rejoin the serving loop
    case RestoreOutcome::kRetired:
      worker_exit(worker_index, /*dead=*/false);
      queue_cv.notify_all();
      return false;
    case RestoreOutcome::kStopped: {
      // stop() completes anything left queued.
      std::lock_guard<std::mutex> lock(mutex);
      --live_workers;
      return false;
    }
    case RestoreOutcome::kExhausted:
      worker_exit(worker_index, /*dead=*/true);
      return false;
  }
  return false;  // unreachable
}

// Exponential-backoff rebuild from the shard's shared immutable program.
// Runs outside the shard mutex: siblings keep serving (graceful
// degradation) while this thread rebuilds. Shared by quarantine recovery
// and scale-up bootstrap — a scale-up replica is just a restore into an
// empty slot. A pending scale-down is claimed in preference to rebuilding
// (no point warming a replica the policy no longer wants).
RestoreOutcome Shard::restore_with_backoff(int worker_index) {
  constexpr std::int64_t kMaxBackoffUs = 1'000'000;
  std::int64_t backoff_us = std::max<std::int64_t>(
      options->restore_backoff_us, 1);
  for (int attempt = 0; attempt < options->restore_max_attempts; ++attempt) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (attempt > 0 || options->restore_backoff_us > 0) {
        queue_cv.wait_for(lock, std::chrono::microseconds(backoff_us),
                          [&] { return stopping || retire_requests > 0; });
      }
      if (stopping) return RestoreOutcome::kStopped;
      if (retire_requests > 0) {
        --retire_requests;
        ++stats.scale_downs;
        return RestoreOutcome::kRetired;
      }
    }
    try {
      CSQ_FAILPOINT("serve.restore");
      runtime::CompiledGraph rebuilt =
          runtime::rebuild_replica(program, graph_options, edge_records);
      Tensor staging = Tensor::zeros(
          {options->max_batch, shape.channels, shape.height, shape.width});
      std::vector<Tensor> warm = warmup_replica(rebuilt, staging);
      std::lock_guard<std::mutex> lock(mutex);
      replicas[static_cast<std::size_t>(worker_index)] =
          std::make_unique<runtime::CompiledGraph>(std::move(rebuilt));
      return RestoreOutcome::kRestored;
    } catch (...) {
      backoff_us = std::min(backoff_us * 2, kMaxBackoffUs);
    }
  }
  return RestoreOutcome::kExhausted;
}

// Restore attempts exhausted (dead) or retirement claimed: release the
// slot. The shard fails only when the LAST live worker dies — then queued
// and future requests get kShardFailed instead of waiting on capacity that
// will never return. Retirement can never trip that (set_replicas keeps
// the target >= 1 and a retire is only claimed by a live worker).
void Shard::worker_exit(int worker_index, bool dead) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    --live_workers;
    slot_busy[static_cast<std::size_t>(worker_index)] = 0;
    replicas[static_cast<std::size_t>(worker_index)].reset();
    if (dead) {
      ++dead_now;
      if (live_workers <= 0 && !stopping) {
        failed = true;
        accepting = false;
        complete_queued_locked(ServeStatus::kShardFailed);
      }
    }
  }
  queue_cv.notify_all();
  done_cv.notify_all();
}

}  // namespace detail

using detail::Clock;
using detail::Request;
using detail::Shard;

const char* serve_status_name(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kTimeout:
      return "timeout";
    case ServeStatus::kOverloaded:
      return "overloaded";
    case ServeStatus::kShardFailed:
      return "shard_failed";
    case ServeStatus::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

BatchingServer::BatchingServer(ServerOptions options)
    : options_(options) {
  CSQ_CHECK(options_.max_batch >= 1)
      << "batching server: max_batch must be at least 1";
  CSQ_CHECK(options_.max_latency_us >= 0)
      << "batching server: negative max_latency_us";
  CSQ_CHECK(options_.queue_capacity >= 1)
      << "batching server: queue_capacity must be at least 1";
  CSQ_CHECK(options_.drain_deadline_us >= 0)
      << "batching server: negative drain_deadline_us";
  CSQ_CHECK(options_.restore_backoff_us >= 0)
      << "batching server: negative restore_backoff_us";
  CSQ_CHECK(options_.restore_max_attempts >= 1)
      << "batching server: restore_max_attempts must be at least 1";
  CSQ_CHECK(options_.max_replicas >= 0)
      << "batching server: negative max_replicas";
  options_.queue_capacity =
      std::max(options_.queue_capacity, options_.max_batch);
}

BatchingServer::~BatchingServer() { stop(); }

void BatchingServer::add_model(const std::string& model_id,
                               std::vector<runtime::CompiledGraph> replicas) {
  CSQ_CHECK(!started_)
      << "batching server: add_model after start is not supported";
  CSQ_CHECK(!replicas.empty())
      << "batching server: model " << model_id << " has no replicas";
  for (const auto& shard : shards_) {
    CSQ_CHECK(shard->id != model_id)
        << "batching server: duplicate model id " << model_id;
  }
  auto shard = std::make_shared<Shard>();
  shard->id = model_id;
  shard->shape = replicas.front().io_shape();
  CSQ_CHECK(shard->shape.out_features > 0)
      << "batching server: model " << model_id << " has no output head";
  for (auto& replica : replicas) {
    const auto shape = replica.io_shape();
    CSQ_CHECK(shape.channels == shard->shape.channels &&
              shape.height == shard->shape.height &&
              shape.width == shard->shape.width &&
              shape.out_features == shard->shape.out_features)
        << "batching server: replica shape mismatch for model " << model_id;
    // Resolve the requant constants NOW: an uncalibrated replica must fail
    // this registration call, not a worker thread's warmup forward.
    replica.edge_scales();
  }
  // Restore template for quarantine recovery and scale-up bootstrap: the
  // first replica's shared program + options + edge-scale snapshot
  // (replicas are required to be bit-identical siblings, so any one of
  // them defines the shard).
  shard->program = replicas.front().shared_program();
  shard->graph_options = replicas.front().options();
  shard->edge_records = replicas.front().edge_scales();
  shard->max_workers = std::max(static_cast<int>(replicas.size()),
                                options_.max_replicas);
  shard->replicas.resize(static_cast<std::size_t>(shard->max_workers));
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    shard->replicas[r] =
        std::make_unique<runtime::CompiledGraph>(std::move(replicas[r]));
  }
  shard->slot_busy.assign(static_cast<std::size_t>(shard->max_workers), 0);
  shard->flush_waits.assign(Shard::kFlushWindow, 0);
  shard->options = &options_;
  shard->ring.assign(static_cast<std::size_t>(options_.queue_capacity),
                     nullptr);
  shards_.push_back(std::move(shard));
}

void BatchingServer::add_model_from_artifact(const std::string& model_id,
                                             const std::string& artifact_path,
                                             int replicas, bool pooled) {
  CSQ_CHECK(replicas >= 1)
      << "batching server: model " << model_id << " needs >= 1 replicas";
  std::vector<runtime::CompiledGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(replicas));
  // One disk read + parse; the remaining replicas are bit-identical
  // in-memory program replays.
  graphs.push_back(runtime::load_graph(artifact_path, pooled));
  for (int i = 1; i < replicas; ++i) {
    // replicate() rebuilds from the loaded graph's program and options, so
    // the pooled flag carries over.
    graphs.push_back(runtime::replicate(graphs.front()));
  }
  add_model(model_id, std::move(graphs));
}

void BatchingServer::start() {
  CSQ_CHECK(!started_) << "batching server: start called twice";
  CSQ_CHECK(!shards_.empty()) << "batching server: no models registered";
  started_ = true;
  for (auto& shard : shards_) {
    int workers = 0;
    for (const auto& replica : shard->replicas) {
      if (replica != nullptr) ++workers;  // registered slots; the rest are
    }                                     // scale-up headroom
    shard->worker_target = workers;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->accepting = true;
      shard->live_workers = workers;
      for (int w = 0; w < workers; ++w) {
        shard->slot_busy[static_cast<std::size_t>(w)] = 1;
      }
    }
    shard->workers.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      shard->workers.emplace_back(
          [shard = shard.get(), w] { shard->worker_loop(w); });
    }
  }
  // Block until every worker finished its warmup so callers can rely on
  // the zero-allocation steady state from the first request on. (>=, not
  // ==: a failing worker's catch block jumps workers_ready to the target,
  // and siblings still warming increment it past that afterwards.)
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    shard->done_cv.wait(lock, [&] {
      return shard->workers_ready >= shard->worker_target;
    });
  }
  // Surface warmup failures synchronously instead of from a worker thread.
  std::exception_ptr error;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->failed && !error) error = shard->worker_error;
  }
  if (error) {
    stop();
    std::rethrow_exception(error);
  }
}

void BatchingServer::stop() {
  if (!started_) return;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->accepting = false;  // late try_infer calls get kShuttingDown
      shard->stopping = true;
    }
    shard->queue_cv.notify_all();
    shard->done_cv.notify_all();
  }
  // Deadline-bounded graceful drain: let the workers finish queued work,
  // then complete whatever is still queued with kShuttingDown so no
  // producer waits past the bound (in-flight batches always finish — they
  // hold stack nodes a worker is actively writing).
  if (options_.drain_deadline_us > 0) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::microseconds(options_.drain_deadline_us);
    for (auto& shard : shards_) {
      std::unique_lock<std::mutex> lock(shard->mutex);
      const bool drained = shard->done_cv.wait_until(
          lock, deadline, [&] { return shard->count == 0; });
      if (!drained) {
        shard->complete_queued_locked(ServeStatus::kShuttingDown);
        shard->queue_cv.notify_all();
        shard->done_cv.notify_all();
      }
    }
  }
  for (auto& shard : shards_) {
    for (std::thread& worker : shard->workers) worker.join();
    shard->workers.clear();
    // Reset under the mutex: a producer rejected above may still hold it.
    // Quarantined workers exit their restore loops on `stopping` without
    // serving, so anything they left queued completes here — no request
    // ever hangs across stop().
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->complete_queued_locked(ServeStatus::kShuttingDown);
    shard->done_cv.notify_all();
    shard->stopping = false;
    shard->failed = false;
    shard->worker_error = nullptr;
    shard->workers_ready = 0;
    shard->quarantined_now = 0;
    shard->dead_now = 0;
    shard->live_workers = 0;
    shard->retire_requests = 0;
  }
  started_ = false;
}

void BatchingServer::set_replicas(const std::string& model_id, int target) {
  // Argument validation still throws for genuinely bad calls (unknown model,
  // nonsensical target) regardless of lifecycle state -- those are caller
  // bugs, not races.
  Shard& shard = shard_for(model_id);
  CSQ_CHECK(target >= 1)
      << "batching server: replica target must be at least 1";
  CSQ_CHECK(target <= shard.max_workers)
      << "batching server: replica target " << target << " exceeds the "
      << shard.max_workers << " slots of model " << model_id
      << " (raise ServerOptions::max_replicas)";
  // Lifecycle, however, is a no-op, not a CHECK: the autoscaler's policy
  // thread calls this concurrently with stop(), and a CHECK throwing on a
  // thread that can't propagate it would std::terminate the process. A tick
  // that loses the race against stop() (or lands before start()) simply does
  // nothing; any worker it manages to spawn before `accepting` flips is
  // emplaced under shard.mutex ahead of stop()'s join loop, so it is joined.
  if (!started_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.stopping || shard.failed || !shard.accepting) return;
    // Workers already asked to retire don't count toward capacity.
    const int effective = shard.live_workers - shard.retire_requests;
    if (target > effective) {
      int need = target - effective;
      // Cancel pending retirements before spawning anything new.
      const int cancelled = std::min(need, shard.retire_requests);
      shard.retire_requests -= cancelled;
      need -= cancelled;
      for (int w = 0; w < shard.max_workers && need > 0; ++w) {
        if (shard.slot_busy[static_cast<std::size_t>(w)]) continue;
        shard.slot_busy[static_cast<std::size_t>(w)] = 1;
        ++shard.live_workers;
        ++shard.stats.scale_ups;
        --need;
        // Bootstrap off-thread: set_replicas returns immediately; the new
        // worker rebuilds + warms a replica, then joins the rotation.
        shard.workers.emplace_back(
            [s = &shard, w] { s->scale_worker_loop(w); });
      }
    } else if (target < effective) {
      shard.retire_requests += effective - target;
    }
  }
  shard.queue_cv.notify_all();
}

const std::shared_ptr<Shard>& BatchingServer::shard_ptr_for(
    const std::string& model_id) const {
  for (const auto& shard : shards_) {
    if (shard->id == model_id) return shard;
  }
  CSQ_CHECK(false) << "batching server: unknown model id " << model_id;
  // Unreachable; CSQ_CHECK throws.
  return shards_.front();
}

Shard& BatchingServer::shard_for(const std::string& model_id) const {
  return *shard_ptr_for(model_id);
}

ModelHandle BatchingServer::handle(const std::string& model_id) const {
  return ModelHandle(shard_ptr_for(model_id));
}

ServeStatus BatchingServer::try_infer(const ModelHandle& handle,
                                      const float* sample, float* logits,
                                      std::int64_t deadline_us) {
  // Stale handles (server destroyed, or a default-constructed handle)
  // resolve here instead of dereferencing freed memory.
  const std::shared_ptr<Shard> shard_ref = handle.shard_.lock();
  if (!shard_ref) return ServeStatus::kShuttingDown;
  Shard& shard = *shard_ref;

  // Deadlines beyond half the clock's range are unbounded in practice;
  // clamping them keeps the conversion to clock ticks from overflowing.
  constexpr std::int64_t kMaxDeadlineUs =
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::duration::max())
          .count() /
      2;
  const bool bounded = deadline_us >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         bounded ? std::min(deadline_us, kMaxDeadlineUs) : 0);

  Request request;
  request.sample = sample;
  request.logits = logits;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (shard.failed) {
      ++shard.stats.rejected;
      return ServeStatus::kShardFailed;
    }
    if (!shard.accepting) {
      ++shard.stats.rejected;
      return ServeStatus::kShuttingDown;
    }
    if (shard.count >= shard.capacity()) {
      // Admission control at the full ring: shed immediately, or apply
      // backpressure bounded by the caller's deadline.
      if (shard.options->shed_overload) {
        ++shard.stats.shed;
        return ServeStatus::kOverloaded;
      }
      const auto has_space = [&] {
        return shard.count < shard.capacity() || !shard.accepting;
      };
      if (bounded) {
        if (!shard.done_cv.wait_until(lock, deadline, has_space)) {
          ++shard.stats.timed_out;
          return ServeStatus::kTimeout;
        }
      } else {
        shard.done_cv.wait(lock, has_space);
      }
      if (shard.failed) {
        ++shard.stats.rejected;
        return ServeStatus::kShardFailed;
      }
      if (!shard.accepting) {
        ++shard.stats.rejected;
        return ServeStatus::kShuttingDown;
      }
    }
    request.enqueued = Clock::now();
    shard.ring[(shard.head + shard.count) % shard.capacity()] = &request;
    ++shard.count;
    ++shard.stats.requests;
  }
  shard.queue_cv.notify_one();
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    const auto completed = [&] { return request.done; };
    if (bounded && !shard.done_cv.wait_until(lock, deadline, completed)) {
      // Deadline expired. If the node is still queued, cancel it in place
      // — compact the ring so workers never see the dead entry. If a
      // worker already popped it, the result is one bounded forward away:
      // wait it out (a stack node in a worker's batch cannot be
      // abandoned) and report the actual outcome.
      bool cancelled = false;
      for (std::size_t i = 0; i < shard.count; ++i) {
        const std::size_t pos = (shard.head + i) % shard.capacity();
        if (shard.ring[pos] != &request) continue;
        for (std::size_t j = i; j + 1 < shard.count; ++j) {
          shard.ring[(shard.head + j) % shard.capacity()] =
              shard.ring[(shard.head + j + 1) % shard.capacity()];
        }
        --shard.count;
        cancelled = true;
        break;
      }
      if (cancelled) {
        ++shard.stats.timed_out;
        shard.done_cv.notify_all();  // ring space freed
        return ServeStatus::kTimeout;
      }
      shard.done_cv.wait(lock, completed);
    } else if (!bounded) {
      shard.done_cv.wait(lock, completed);
    }
  }
  return request.status;
}

void BatchingServer::infer(const ModelHandle& handle, const float* sample,
                           float* logits) {
  CSQ_CHECK(handle.valid()) << "batching server: invalid model handle";
  const ServeStatus status = try_infer(handle, sample, logits);
  CSQ_CHECK(status == ServeStatus::kOk)
      << "batching server: infer failed with status "
      << serve_status_name(status);
}

void BatchingServer::infer(const std::string& model_id, const float* sample,
                           float* logits) {
  infer(handle(model_id), sample, logits);
}

runtime::CompiledGraph::IoShape BatchingServer::model_shape(
    const std::string& model_id) const {
  return shard_for(model_id).shape;
}

BatchingServer::ShardStats BatchingServer::stats(
    const std::string& model_id) const {
  Shard& shard = shard_for(model_id);
  // Concurrency audit (flush-wait window): both the worker-side writes and
  // this read of flush_waits/flush_wait_count happen under shard.mutex, so a
  // snapshot never sees a torn window. What used to live under the lock was
  // the p99 itself -- a heap allocation plus nth_element while producers and
  // flushers contend for the same mutex. Copy the fixed-size window out under
  // the lock, select outside it.
  ShardStats snapshot;
  std::array<std::int64_t, Shard::kFlushWindow> window;
  std::size_t wait_count = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    snapshot = shard.stats;
    snapshot.replicas_quarantined = shard.quarantined_now;
    snapshot.replicas_dead = shard.dead_now;
    snapshot.queue_depth = static_cast<std::int64_t>(shard.count);
    snapshot.replicas_active = shard.live_workers - shard.quarantined_now;
    wait_count = shard.flush_wait_count;
    std::copy(shard.flush_waits.begin(),
              shard.flush_waits.begin() +
                  static_cast<std::ptrdiff_t>(wait_count),
              window.begin());
  }
  if (wait_count > 0) {
    // p99 over the window: small (<= kFlushWindow entries) and read-only
    // callers, so an on-demand partial sort beats bookkeeping on the hot
    // path -- and it now runs lock-free on the caller's stack copy.
    const std::size_t rank = (wait_count - 1) * 99 / 100;
    std::nth_element(window.begin(),
                     window.begin() + static_cast<std::ptrdiff_t>(rank),
                     window.begin() + static_cast<std::ptrdiff_t>(wait_count));
    snapshot.flush_wait_p99_us = window[rank];
  }
  return snapshot;
}

std::vector<std::int64_t> BatchingServer::replica_workspace_bytes(
    const std::string& model_id) const {
  Shard& shard = shard_for(model_id);
  // The shard mutex orders this read against worker-side workspace growth
  // (start()'s warmup grows every replica's buffers off-thread).
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::vector<std::int64_t> bytes;
  bytes.reserve(shard.replicas.size());
  for (const auto& replica : shard.replicas) {
    if (replica != nullptr) bytes.push_back(replica->workspace_bytes());
  }
  return bytes;
}

}  // namespace serve
}  // namespace csq

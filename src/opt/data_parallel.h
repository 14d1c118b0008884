// Deterministic data-parallel training over model replicas, reduced in
// weight space.
//
// One optimizer step processes a batch as a FIXED grid of micro-batch
// shards:
//   1. The calling thread materializes every primary WeightSource ONCE, in
//      training mode, with the pooled fixed-chunk kernels. A soft weight
//      (e.g. CSQ's Eq. 5) depends only on the parameters and the scheme
//      state, never on the batch, so no shard needs its own copy.
//   2. Each shard runs forward/backward on one replica. Its Conv2d/Linear
//      layers read the shared primary weights through the weight-capture
//      hook (nn/conv2d.h) and write dL/dW straight into the shard's span.
//      A span holds every layer's dW plus the grads of the parameters no
//      weight source owns (BatchNorm gamma/beta, biases) — about the size
//      of the weights, not of the 2-planes-per-bit parameterization.
//   3. The spans combine by a chunk-ordered pairwise tree
//      (tensor/quant_kernels.h tree_reduce_spans). Each primary source then
//      runs backward(dW) once, pooled, into the primary arena; the non-source
//      grads scatter into it alongside.
//   4. `before_step` and the optimizer run on the primary, and only the
//      non-source parameter values are broadcast to the replicas.
//
// Determinism contract — the point of the design: the numerical result of a
// step depends only on the batch and the shard grid, NOT on the worker
// count. Three mechanisms enforce it:
//   1. The shard grid is fixed by the micro-batch size alone (worker count
//      never enters the partition), so every worker count sees the same
//      per-shard forward/backward problems.
//   2. Each shard's kernels run serially on its worker thread
//      (util/thread_pool.h SerialExecutionGuard), and the once-per-step
//      materialization and source backward run pooled on the fixed chunk
//      grid, which is bit-identical to serial. So every per-shard span is
//      the same bytes whichever thread computed it.
//   3. Spans combine by a pairwise tree whose shape depends only on the
//      shard count, BatchNorm running statistics are captured per shard and
//      replayed in shard order (nn/batchnorm.h), and the per-shard losses
//      combine in shard order on the calling thread.
// Hence workers=1 and workers=8 produce byte-identical models, and the
// degenerate single-shard grid (micro_batch >= batch size) hands each
// source backward exactly the dW bytes the classic serial train_one_epoch
// step does, so the two are bit-identical.
//
// Replica state: a replica is a scratch model for shard forwards. It holds
// the synchronized non-source parameters (re-broadcast every step) and its
// activation caches; its weight sources are never materialized or
// backpropagated, so their parameters go stale and their gate caches are
// never allocated. Replica sources stay alive and callable (set_beta on
// them is harmless) but nothing reads them. Stateful quantizers (the LQ-Nets
// QEM basis) advance only on the primary, once per step, so replicas need
// no lockstep and the factory only has to reproduce the parameter layout.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model.h"
#include "nn/softmax_ce.h"
#include "opt/sgd.h"
#include "opt/trainer.h"

namespace csq {

struct DataParallelConfig {
  // Worker threads (including the calling thread). workers - 1 replicas are
  // built from the factory; worker w drives replica w (replica 0 is the
  // primary), shard s runs on replica s % workers.
  int workers = 1;
  // Micro-batch rows per shard. 0 selects ceil(B / kDefaultTrainShards) per
  // batch, giving at most kDefaultTrainShards shards. The resulting shard
  // count must not exceed kMaxReduceSpans (tensor/quant_kernels.h).
  std::int64_t micro_batch = 0;
};

// Default shard-grid size when micro_batch is left at 0: enough shards to
// feed 8 workers, few enough that tiny CIFAR batches keep useful shard
// sizes.
inline constexpr int kDefaultTrainShards = 8;

class DataParallelTrainer {
 public:
  using ModelFactory = std::function<Model()>;

  // `primary` is replica 0 and the model the optimizer steps; it must
  // outlive the trainer. `replica_factory` is invoked workers - 1 times and
  // must produce models with an identical parameter layout (checked via
  // ParameterArena::layout_matches). Every registered WeightSource must
  // belong to a Conv2d or Linear layer. Binds the primary's arena.
  DataParallelTrainer(Model& primary, const ModelFactory& replica_factory,
                      const DataParallelConfig& config);
  ~DataParallelTrainer();

  DataParallelTrainer(const DataParallelTrainer&) = delete;
  DataParallelTrainer& operator=(const DataParallelTrainer&) = delete;

  struct StepStats {
    float loss = 0.0f;  // batch mean loss (shard-weighted)
    int correct = 0;    // top-1 matches in the batch
  };

  // One optimizer step over `batch`: materialize the primary weights,
  // forward/backward per shard, tree-reduce the dW spans, run each primary
  // source's backward once, run `before_step` (budget regularizers), step
  // the optimizer, broadcast the non-source values to the replicas.
  // `optimizer` must be the arena-backed Sgd over primary().arena().
  StepStats train_step(const Batch& batch, Sgd& optimizer,
                       const std::function<void()>& before_step = {});

  Model& primary() { return *primary_; }
  int workers() const { return workers_; }

 private:
  // A layer that owns a WeightSource and takes the weight-capture hook.
  struct WeightLayer {
    Conv2d* conv = nullptr;
    Linear* linear = nullptr;
    WeightSource& source() const;
    void capture(const float* weight, float* grad_weight) const;
  };
  struct Replica {
    Model* model = nullptr;  // replicas_[0] aliases the primary
    SoftmaxCrossEntropy loss;
    std::vector<int> labels;                  // shard label scratch
    std::vector<std::int64_t> shard_shape;    // {b, C, H, W} scratch
    std::vector<BatchNorm2d*> batchnorms;     // depth-first module order
    std::vector<WeightLayer> layers;          // depth-first module order
  };
  // A run of arena elements whose parameters no weight source owns. Their
  // grads travel in the shard spans at span_offset; their values are what
  // the broadcast carries.
  struct LooseRange {
    std::int64_t arena_offset = 0;
    std::int64_t count = 0;
    std::int64_t span_offset = 0;
  };

  void worker_loop(int w);
  // Runs every shard assigned to worker w under a SerialExecutionGuard.
  void run_worker(int w);
  void run_shard(Replica& replica, int shard);
  // Grow-once sizing of the per-shard buffers for the current step.
  void prepare_step(const Batch& batch);
  void combine_and_step(Sgd& optimizer,
                        const std::function<void()>& before_step,
                        StepStats& stats);
  void broadcast_loose_values();

  Model* primary_ = nullptr;
  int workers_ = 1;
  std::int64_t micro_batch_config_ = 0;

  std::vector<Model> owned_replicas_;  // workers_ - 1 factory-built models
  std::vector<Replica> replicas_;      // size workers_; [0] is the primary

  // BatchNorm bookkeeping shared by all replicas (layouts are identical):
  // channel offset of each batchnorm in a per-shard stat span.
  std::vector<std::int64_t> bn_offsets_;
  std::int64_t bn_channels_ = 0;

  // Shard-span layout, shared by all replicas: layer j's dW at
  // dw_offsets_[j], then the loose ranges; span_floats_ in total.
  std::vector<std::int64_t> dw_offsets_;
  std::vector<LooseRange> loose_;
  std::int64_t span_floats_ = 0;
  // Primary weights materialized at the start of each step (layer order).
  std::vector<const float*> weights_;
  // The reduced span, and one borrow view per layer of its dW slice shaped
  // like the layer's weight (built once, so the step allocates nothing).
  std::vector<float> reduced_;
  std::vector<Tensor> reduced_dw_;

  // Per-step shard state (grow-once; steady state allocates nothing).
  const Batch* step_batch_ = nullptr;
  std::int64_t batch_rows_ = 0;
  std::int64_t sample_numel_ = 0;  // C*H*W of the current batch
  std::int64_t micro_batch_ = 0;
  int num_shards_ = 0;
  std::vector<std::vector<float>> shard_grads_;
  std::vector<float> bn_stats_;  // [shard][mean span | var span]
  std::vector<float> shard_loss_;
  std::vector<int> shard_correct_;
  std::vector<std::int64_t> shard_rows_;

  // Worker rendezvous: generation counter + countdown, one exception slot
  // per worker (first error wins at the barrier).
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
  std::vector<std::exception_ptr> errors_;
};

// Data-parallel counterparts of the serial loops in opt/trainer.h. The
// optimizer must be arena-backed over trainer.primary().arena(); evaluation
// runs on the primary.
EpochStats train_one_epoch(DataParallelTrainer& trainer, Sgd& optimizer,
                           DataLoader& loader, const FitHooks& hooks);

FitResult fit(DataParallelTrainer& trainer, const InMemoryDataset& train,
              const InMemoryDataset& test, const TrainConfig& config,
              const FitHooks& hooks = {});

}  // namespace csq

#include "opt/data_parallel.h"

#include <algorithm>
#include <cstring>

#include "tensor/quant_kernels.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace csq {

WeightSource& DataParallelTrainer::WeightLayer::source() const {
  return conv != nullptr ? conv->source() : linear->source();
}

void DataParallelTrainer::WeightLayer::capture(const float* weight,
                                               float* grad_weight) const {
  if (conv != nullptr) {
    conv->set_weight_capture(weight, grad_weight);
  } else {
    linear->set_weight_capture(weight, grad_weight);
  }
}

DataParallelTrainer::DataParallelTrainer(Model& primary,
                                         const ModelFactory& replica_factory,
                                         const DataParallelConfig& config)
    : primary_(&primary),
      workers_(config.workers),
      micro_batch_config_(config.micro_batch) {
  CSQ_CHECK(workers_ >= 1 && workers_ <= kMaxReduceSpans)
      << "data-parallel: worker count " << workers_ << " outside [1, "
      << kMaxReduceSpans << "]";
  CSQ_CHECK(micro_batch_config_ >= 0) << "data-parallel: bad micro_batch";

  ParameterArena& primary_arena = primary_->arena();

  owned_replicas_.reserve(static_cast<std::size_t>(workers_ - 1));
  replicas_.resize(static_cast<std::size_t>(workers_));
  replicas_[0].model = primary_;
  for (int w = 1; w < workers_; ++w) {
    CSQ_CHECK(static_cast<bool>(replica_factory))
        << "data-parallel: workers > 1 requires a replica factory";
    owned_replicas_.push_back(replica_factory());
    Model& replica = owned_replicas_.back();
    CSQ_CHECK(replica.arena().layout_matches(primary_arena))
        << "data-parallel: replica " << w
        << " parameter layout differs from the primary (factory must use "
           "the same builder)";
    replicas_[static_cast<std::size_t>(w)].model = &replica;
  }

  // Collect each replica's batchnorms and weight layers in depth-first
  // module order; the shared offsets let any worker capture into a shard's
  // spans and the primary replay from them.
  for (int w = 0; w < workers_; ++w) {
    Replica& rep = replicas_[static_cast<std::size_t>(w)];
    rep.model->for_each_module([&rep](Module& module) {
      if (auto* bn = dynamic_cast<BatchNorm2d*>(&module)) {
        rep.batchnorms.push_back(bn);
      } else if (auto* conv = dynamic_cast<Conv2d*>(&module)) {
        rep.layers.push_back({conv, nullptr});
      } else if (auto* linear = dynamic_cast<Linear*>(&module)) {
        rep.layers.push_back({nullptr, linear});
      }
    });
    rep.shard_shape.assign(4, 0);
    if (w == 0) {
      for (BatchNorm2d* bn : rep.batchnorms) {
        bn_offsets_.push_back(bn_channels_);
        bn_channels_ += bn->channels();
      }
      continue;
    }
    const Replica& head = replicas_[0];
    CSQ_CHECK(rep.batchnorms.size() == head.batchnorms.size() &&
              rep.layers.size() == head.layers.size())
        << "data-parallel: replica " << w << " module structure differs";
    for (std::size_t j = 0; j < rep.batchnorms.size(); ++j) {
      CSQ_CHECK(rep.batchnorms[j]->channels() ==
                head.batchnorms[j]->channels())
          << "data-parallel: replica " << w << " batchnorm " << j
          << " channel count differs";
    }
    for (std::size_t j = 0; j < rep.layers.size(); ++j) {
      CSQ_CHECK(rep.layers[j].source().weight_count() ==
                head.layers[j].source().weight_count())
          << "data-parallel: replica " << w << " weight layer " << j
          << " size differs";
    }
  }

  // Shard-span layout: every layer's dW, then the arena runs of parameters
  // no weight source owns.
  const std::vector<WeightLayer>& layers = replicas_[0].layers;
  std::vector<Parameter*> owned;
  for (const WeightLayer& layer : layers) {
    dw_offsets_.push_back(span_floats_);
    span_floats_ += layer.source().weight_count();
    layer.source().collect_parameters(owned);
  }
  for (const QuantLayer& registered : primary_->quant_layers()) {
    CSQ_CHECK(std::any_of(layers.begin(), layers.end(),
                          [&](const WeightLayer& layer) {
                            return &layer.source() == registered.source;
                          }))
        << "data-parallel: weight source " << registered.name
        << " is not owned by a Conv2d or Linear layer";
  }
  std::sort(owned.begin(), owned.end());
  for (const ParameterArena::View& view : primary_arena.views()) {
    if (std::binary_search(owned.begin(), owned.end(), view.param)) continue;
    if (!loose_.empty() && loose_.back().arena_offset + loose_.back().count ==
                               view.offset) {
      loose_.back().count += view.count;
    } else {
      loose_.push_back({view.offset, view.count, span_floats_});
    }
    span_floats_ += view.count;
  }

  weights_.assign(layers.size(), nullptr);
  reduced_.assign(static_cast<std::size_t>(span_floats_), 0.0f);
  reduced_dw_.reserve(layers.size());
  for (std::size_t j = 0; j < layers.size(); ++j) {
    reduced_dw_.push_back(Tensor::borrow(reduced_.data() + dw_offsets_[j],
                                         layers[j].source().weight_shape()));
  }

  broadcast_loose_values();

  errors_.resize(static_cast<std::size_t>(workers_));
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

DataParallelTrainer::~DataParallelTrainer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void DataParallelTrainer::broadcast_loose_values() {
  // Source parameters are not copied: replicas never read them. The loose
  // parameters (BatchNorm affine, biases) are read directly by their
  // modules, so no version bump is needed either.
  const float* src = primary_->arena().values();
  for (Model& replica : owned_replicas_) {
    float* dst = replica.arena().values();
    for (const LooseRange& range : loose_) {
      std::memcpy(dst + range.arena_offset, src + range.arena_offset,
                  static_cast<std::size_t>(range.count) * sizeof(float));
    }
  }
}

void DataParallelTrainer::prepare_step(const Batch& batch) {
  CSQ_CHECK(batch.images.ndim() == 4)
      << "data-parallel: expected (B,C,H,W) images, got "
      << batch.images.shape_string();
  batch_rows_ = batch.images.dim(0);
  CSQ_CHECK(batch_rows_ >= 1 &&
            batch_rows_ == static_cast<std::int64_t>(batch.labels.size()))
      << "data-parallel: batch size / label count mismatch";
  sample_numel_ =
      batch.images.dim(1) * batch.images.dim(2) * batch.images.dim(3);

  if (micro_batch_config_ > 0) {
    micro_batch_ = std::min(micro_batch_config_, batch_rows_);
  } else {
    const std::int64_t shards =
        std::min<std::int64_t>(kDefaultTrainShards, batch_rows_);
    micro_batch_ = (batch_rows_ + shards - 1) / shards;
  }
  const std::int64_t shard_count =
      (batch_rows_ + micro_batch_ - 1) / micro_batch_;
  CSQ_CHECK(shard_count <= kMaxReduceSpans)
      << "data-parallel: batch of " << batch_rows_ << " rows at micro_batch "
      << micro_batch_ << " needs " << shard_count << " shards (max "
      << kMaxReduceSpans << "); raise micro_batch";
  num_shards_ = static_cast<int>(shard_count);
  step_batch_ = &batch;

  // Grow-once scratch: these resizes only allocate until the largest shard
  // count has been seen, after which every step reuses the buffers. New
  // spans start zeroed, so the dW slice of a layer that never runs
  // backward reduces to a zero gradient.
  const auto shards = static_cast<std::size_t>(num_shards_);
  if (shard_grads_.size() < shards) shard_grads_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_grads_[s].resize(static_cast<std::size_t>(span_floats_));
  }
  const auto stat_floats = shards * 2 * static_cast<std::size_t>(bn_channels_);
  if (bn_stats_.size() < stat_floats) bn_stats_.resize(stat_floats);
  if (shard_loss_.size() < shards) shard_loss_.resize(shards);
  if (shard_correct_.size() < shards) shard_correct_.resize(shards);
  if (shard_rows_.size() < shards) shard_rows_.resize(shards);
}

DataParallelTrainer::StepStats DataParallelTrainer::train_step(
    const Batch& batch, Sgd& optimizer,
    const std::function<void()>& before_step) {
  prepare_step(batch);
  // One training materialization per primary source per step, pooled on
  // the calling thread while the workers are parked. Every shard reads
  // these tensors; nothing writes them until the source backward below.
  const std::vector<WeightLayer>& layers = replicas_[0].layers;
  for (std::size_t j = 0; j < layers.size(); ++j) {
    weights_[j] = layers[j].source().weight(/*training=*/true).data();
  }
  std::fill(errors_.begin(), errors_.end(), std::exception_ptr());

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++generation_;
    pending_ = workers_ - 1;
  }
  wake_.notify_all();

  try {
    run_worker(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
  }
  step_batch_ = nullptr;
  for (const std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }

  StepStats stats;
  combine_and_step(optimizer, before_step, stats);
  return stats;
}

void DataParallelTrainer::worker_loop(int w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    try {
      run_worker(w);
    } catch (...) {
      errors_[static_cast<std::size_t>(w)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_.notify_all();
    }
  }
}

void DataParallelTrainer::run_worker(int w) {
  // Shard parallelism is the only parallelism: inner kernels run serially
  // on this thread so N workers never contend for the shared pool, and the
  // fixed-chunk-grid kernels make serial execution bit-identical to pooled.
  SerialExecutionGuard guard;
  Replica& replica = replicas_[static_cast<std::size_t>(w)];
  for (int s = w; s < num_shards_; s += workers_) run_shard(replica, s);
}

void DataParallelTrainer::run_shard(Replica& replica, int shard) {
  const Batch& batch = *step_batch_;
  const std::int64_t begin = static_cast<std::int64_t>(shard) * micro_batch_;
  const std::int64_t end = std::min(begin + micro_batch_, batch_rows_);
  const std::int64_t rows = end - begin;
  const auto s = static_cast<std::size_t>(shard);

  replica.shard_shape[0] = rows;
  replica.shard_shape[1] = batch.images.dim(1);
  replica.shard_shape[2] = batch.images.dim(2);
  replica.shard_shape[3] = batch.images.dim(3);
  // The batch is contiguous (B,C,H,W), so a row range is a contiguous span:
  // the shard input is a borrow view, not a copy.
  const Tensor images =
      Tensor::borrow(const_cast<float*>(batch.images.data()) +
                         begin * sample_numel_,
                     replica.shard_shape);
  replica.labels.assign(batch.labels.begin() + begin,
                        batch.labels.begin() + end);

  // The loose grads accumulate in the replica arena; start them from zero.
  ParameterArena& arena = replica.model->arena();
  for (const LooseRange& range : loose_) {
    std::memset(arena.grads() + range.arena_offset, 0,
                static_cast<std::size_t>(range.count) * sizeof(float));
  }

  float* span = shard_grads_[s].data();
  float* stats = bn_stats_.data() +
                 s * 2 * static_cast<std::size_t>(bn_channels_);
  // Captures point into trainer-owned buffers; clear them on every exit so
  // no layer is left reading or writing them outside a shard.
  struct CaptureScope {
    Replica& replica;
    ~CaptureScope() {
      for (BatchNorm2d* bn : replica.batchnorms) {
        bn->set_stat_capture(nullptr, nullptr);
      }
      for (const WeightLayer& layer : replica.layers) {
        layer.capture(nullptr, nullptr);
      }
    }
  } scope{replica};
  for (std::size_t j = 0; j < replica.batchnorms.size(); ++j) {
    replica.batchnorms[j]->set_stat_capture(
        stats + bn_offsets_[j], stats + bn_channels_ + bn_offsets_[j]);
  }
  for (std::size_t j = 0; j < replica.layers.size(); ++j) {
    replica.layers[j].capture(weights_[j], span + dw_offsets_[j]);
  }

  Tensor logits = replica.model->forward(images, /*training=*/true);
  shard_loss_[s] = replica.loss.forward(logits, replica.labels);
  shard_correct_[s] = count_correct(replica.loss.predictions(),
                                    replica.labels);
  shard_rows_[s] = rows;

  // The loss gradient is the mean over the SHARD; rescale to the shard's
  // share of the full-batch mean so summing shard gradients reproduces the
  // serial full-batch gradient. scale == 1.0f exactly for a one-shard grid,
  // where the multiply is skipped to keep bits identical to the serial
  // path.
  Tensor grad = replica.loss.backward();
  const float scale =
      static_cast<float>(rows) / static_cast<float>(batch_rows_);
  if (scale != 1.0f) {
    float* g = grad.data();
    const std::int64_t count = grad.numel();
    for (std::int64_t i = 0; i < count; ++i) g[i] *= scale;
  }
  replica.model->backward(grad);

  for (const LooseRange& range : loose_) {
    std::memcpy(span + range.span_offset, arena.grads() + range.arena_offset,
                static_cast<std::size_t>(range.count) * sizeof(float));
  }
}

void DataParallelTrainer::combine_and_step(
    Sgd& optimizer, const std::function<void()>& before_step,
    StepStats& stats) {
  ParameterArena& arena = primary_->arena();

  // Pairwise tree over the shard spans; the tree shape depends only on the
  // shard count, and the pool is idle here, so the pooled fixed-chunk-grid
  // kernel is both fast and deterministic.
  const float* sources[kMaxReduceSpans];
  for (int s = 0; s < num_shards_; ++s) {
    sources[s] = shard_grads_[static_cast<std::size_t>(s)].data();
  }
  tree_reduce_spans(sources, num_shards_, reduced_.data(), span_floats_,
                    default_kernel_exec());

  // Full-batch gradients into the primary arena: the loose grads scatter,
  // and each source runs its (pooled) backward once on the reduced dW.
  arena.zero_grads();
  for (const LooseRange& range : loose_) {
    std::memcpy(arena.grads() + range.arena_offset,
                reduced_.data() + range.span_offset,
                static_cast<std::size_t>(range.count) * sizeof(float));
  }
  const std::vector<WeightLayer>& layers = replicas_[0].layers;
  for (std::size_t j = 0; j < layers.size(); ++j) {
    layers[j].source().backward(reduced_dw_[j]);
  }

  // Replay captured batchnorm statistics in shard order: the primary's
  // running stats see exactly the serial update sequence. Replicas only
  // run training forwards, which never read running stats.
  const Replica& head = replicas_[0];
  for (int s = 0; s < num_shards_; ++s) {
    const float* stat_base = bn_stats_.data() +
                             static_cast<std::size_t>(s) * 2 *
                                 static_cast<std::size_t>(bn_channels_);
    for (std::size_t j = 0; j < head.batchnorms.size(); ++j) {
      head.batchnorms[j]->replay_batch_stats(
          stat_base + bn_offsets_[j],
          stat_base + bn_channels_ + bn_offsets_[j]);
    }
  }

  // Shard-ordered loss/accuracy combine (double accumulator, caller
  // thread): bit-identical at any worker count, and exact for one shard.
  double loss_sum = 0.0;
  int correct = 0;
  for (int s = 0; s < num_shards_; ++s) {
    const auto idx = static_cast<std::size_t>(s);
    loss_sum += static_cast<double>(shard_loss_[idx]) *
                static_cast<double>(shard_rows_[idx]);
    correct += shard_correct_[idx];
  }
  stats.loss = static_cast<float>(loss_sum / static_cast<double>(batch_rows_));
  stats.correct = correct;

  if (before_step) before_step();
  optimizer.step();
  broadcast_loose_values();
}

EpochStats train_one_epoch(DataParallelTrainer& trainer, Sgd& optimizer,
                           DataLoader& loader, const FitHooks& hooks) {
  Batch batch;
  double total_loss = 0.0;
  std::int64_t correct = 0;
  std::int64_t samples = 0;

  loader.start_epoch();
  while (loader.next(batch)) {
    const DataParallelTrainer::StepStats step =
        trainer.train_step(batch, optimizer, hooks.before_step);
    const auto batch_count = static_cast<std::int64_t>(batch.labels.size());
    total_loss += static_cast<double>(step.loss) * batch_count;
    correct += step.correct;
    samples += batch_count;
  }

  EpochStats stats;
  stats.loss = static_cast<float>(total_loss / static_cast<double>(samples));
  stats.accuracy =
      100.0f * static_cast<float>(correct) / static_cast<float>(samples);
  return stats;
}

FitResult fit(DataParallelTrainer& trainer, const InMemoryDataset& train,
              const InMemoryDataset& test, const TrainConfig& config,
              const FitHooks& hooks) {
  SgdConfig sgd_config;
  sgd_config.learning_rate = config.learning_rate;
  sgd_config.momentum = config.momentum;
  sgd_config.weight_decay = config.weight_decay;
  Sgd optimizer(trainer.primary().arena(), sgd_config);

  CosineSchedule schedule(config.learning_rate, config.epochs,
                          config.warmup_epochs, config.lr_min);
  DataLoader loader(train, config.batch_size, /*shuffle=*/true,
                    Rng(config.seed));

  FitResult result;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.set_learning_rate(schedule.at_epoch(epoch));
    if (hooks.on_epoch_begin) hooks.on_epoch_begin(epoch);

    const EpochStats stats = train_one_epoch(trainer, optimizer, loader, hooks);
    result.final_train_loss = stats.loss;
    result.final_train_accuracy = stats.accuracy;

    if (hooks.on_epoch_end) {
      hooks.on_epoch_end(epoch, stats.loss, stats.accuracy);
    }
    if (config.verbose) {
      log_info() << "epoch " << epoch + 1 << "/" << config.epochs
                 << " lr=" << optimizer.learning_rate()
                 << " loss=" << stats.loss << " acc=" << stats.accuracy
                 << "% (dp x" << trainer.workers() << ")";
    }
  }
  result.test_accuracy =
      evaluate_accuracy(trainer.primary(), test, config.batch_size);
  return result;
}

}  // namespace csq

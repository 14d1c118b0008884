// Determinism tests for data-parallel training (opt/data_parallel): the
// optimizer step must be bit-identical to serial execution at every worker
// count, for every weight-source family (including the stateful LQ-Nets
// QEM quantizer), with batchnorm running statistics reproduced exactly and
// zero steady-state heap allocations. The weight-space reduction must
// materialize each primary source once per step, never touch the replica
// sources, and match a per-shard parameter-space reference gradient.
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"
#include "core/csq_trainer.h"
#include "core/csq_weight.h"
#include "data/dataloader.h"
#include "data/synthetic.h"
#include "nn/batchnorm.h"
#include "nn/models.h"
#include "nn/softmax_ce.h"
#include "opt/data_parallel.h"
#include "quant/bsq_weight.h"
#include "quant/dorefa_weight.h"
#include "quant/lqnets_weight.h"
#include "quant/ste_uniform_weight.h"
#include "util/rng.h"

namespace csq {
namespace {

// Weight-source families under test. Each call returns a FRESH factory so
// registry-recording families (csq, bsq) never share registries between
// models; the registries are kept alive by the returned closure.
WeightSourceFactory family_factory(const std::string& family) {
  if (family == "dense") return dense_weight_factory();
  if (family == "ste") return ste_uniform_weight_factory(3);
  if (family == "dorefa") return dorefa_weight_factory(3);
  if (family == "lqnets") return lqnets_weight_factory(2);
  if (family == "csq") {
    auto registry = std::make_shared<std::vector<CsqWeightSource*>>();
    WeightSourceFactory base = csq_weight_factory(registry.get());
    return [registry, base](const std::string& name,
                            std::vector<std::int64_t> shape,
                            std::int64_t fan_in, Rng& rng) {
      return base(name, std::move(shape), fan_in, rng);
    };
  }
  if (family == "bsq") {
    auto registry = std::make_shared<std::vector<BsqWeightSource*>>();
    WeightSourceFactory base = bsq_weight_factory(registry.get());
    return [registry, base](const std::string& name,
                            std::vector<std::int64_t> shape,
                            std::int64_t fan_in, Rng& rng) {
      return base(name, std::move(shape), fan_in, rng);
    };
  }
  ADD_FAILURE() << "unknown family " << family;
  return dense_weight_factory();
}

const std::vector<std::string>& all_families() {
  static const std::vector<std::string> families = {
      "dense", "csq", "bsq", "ste", "dorefa", "lqnets"};
  return families;
}

Model build_model(const std::string& family) {
  Rng rng(13);  // fixed seed: every build of a family is identical
  ModelConfig config;
  config.num_classes = 4;
  config.base_width = 4;
  return make_resnet_cifar(8, config, family_factory(family), nullptr, rng);
}

SyntheticDataset tiny_data() {
  SyntheticConfig config;
  config.num_classes = 4;
  config.train_samples = 96;
  config.test_samples = 32;
  config.height = 8;
  config.width = 8;
  config.seed = 12;
  return make_synthetic(config);
}

SgdConfig sgd_config() {
  SgdConfig config;
  config.learning_rate = 0.05f;
  config.momentum = 0.9f;
  config.weight_decay = 5e-4f;
  return config;
}

struct RunResult {
  std::vector<float> values;      // final primary arena values
  std::vector<float> losses;      // per-step batch losses
  std::vector<int> corrects;      // per-step top-1 matches
  std::vector<float> bn_stats;    // concatenated running mean/var
};

std::vector<float> collect_bn_stats(Model& model) {
  std::vector<float> stats;
  model.for_each_module([&stats](Module& module) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&module)) {
      const Tensor& mean = bn->running_mean();
      const Tensor& var = bn->running_var();
      stats.insert(stats.end(), mean.data(), mean.data() + mean.numel());
      stats.insert(stats.end(), var.data(), var.data() + var.numel());
    }
  });
  return stats;
}

void run_steps(const std::string& family, int workers,
               std::int64_t micro_batch, int steps, RunResult* result,
               std::int64_t batch_size = 32) {
  const SyntheticDataset data = tiny_data();
  Model model = build_model(family);

  DataParallelConfig dp_config;
  dp_config.workers = workers;
  dp_config.micro_batch = micro_batch;
  DataParallelTrainer trainer(
      model, [&family] { return build_model(family); }, dp_config);
  Sgd optimizer(model.arena(), sgd_config());

  DataLoader loader(data.train, batch_size, /*shuffle=*/true, Rng(3));
  loader.start_epoch();
  Batch batch;
  for (int i = 0; i < steps; ++i) {
    if (!loader.next(batch)) {
      loader.start_epoch();
      ASSERT_TRUE(loader.next(batch)) << "empty loader";
    }
    const DataParallelTrainer::StepStats stats =
        trainer.train_step(batch, optimizer);
    result->losses.push_back(stats.loss);
    result->corrects.push_back(stats.correct);
  }

  const ParameterArena& arena = model.arena();
  result->values.assign(arena.values(), arena.values() + arena.size());
  result->bn_stats = collect_bn_stats(model);
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.values.size(), b.values.size()) << label;
  EXPECT_EQ(std::memcmp(a.values.data(), b.values.data(),
                        a.values.size() * sizeof(float)),
            0)
      << label << ": parameter values diverged";
  ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i])
        << label << ": loss diverged at step " << i;
  }
  EXPECT_EQ(a.corrects, b.corrects) << label << ": accuracy diverged";
  ASSERT_EQ(a.bn_stats.size(), b.bn_stats.size()) << label;
  EXPECT_EQ(std::memcmp(a.bn_stats.data(), b.bn_stats.data(),
                        a.bn_stats.size() * sizeof(float)),
            0)
      << label << ": batchnorm running stats diverged";
}

// ---- bit-identity across worker counts ------------------------------------

TEST(DataParallel, BitIdenticalAcrossWorkerCountsAllFamilies) {
  for (const std::string& family : all_families()) {
    SCOPED_TRACE(family);
    // Default shard grid (micro_batch 0): batch 32 -> 8 shards of 4 rows,
    // the same grid at every worker count.
    RunResult reference;
    ASSERT_NO_FATAL_FAILURE(run_steps(family, /*workers=*/1,
                                      /*micro_batch=*/0, /*steps=*/3,
                                      &reference));
    for (const int workers : {2, 4, 8}) {
      RunResult run;
      ASSERT_NO_FATAL_FAILURE(
          run_steps(family, workers, /*micro_batch=*/0, /*steps=*/3, &run));
      expect_identical(reference, run,
                       family + " x" + std::to_string(workers));
    }
  }
}

TEST(DataParallel, IdleReplicasStayInLockstep) {
  // 5-row batches at micro_batch 2 make 3 shards: with 4 workers one
  // replica gets no shard. Quantizer state (LQ-Nets' QEM basis evolves once
  // per step) lives only on the primary, which materializes once per step
  // whatever the shard assignment, so an idle replica changes nothing.
  for (const std::string& family : {std::string("lqnets"),
                                    std::string("csq")}) {
    SCOPED_TRACE(family);
    RunResult reference;
    ASSERT_NO_FATAL_FAILURE(run_steps(family, /*workers=*/1,
                                      /*micro_batch=*/2, /*steps=*/3,
                                      &reference, /*batch_size=*/5));
    RunResult wide;
    ASSERT_NO_FATAL_FAILURE(run_steps(family, /*workers=*/4,
                                      /*micro_batch=*/2, /*steps=*/3, &wide,
                                      /*batch_size=*/5));
    expect_identical(reference, wide, family + " idle-replica");
  }
}

// ---- single-shard grid == classic serial loop -----------------------------

TEST(DataParallel, SingleShardEpochMatchesClassicTrainOneEpoch) {
  for (const std::string& family : all_families()) {
    SCOPED_TRACE(family);
    const SyntheticDataset data = tiny_data();

    Model classic = build_model(family);
    Sgd classic_opt(classic.arena(), sgd_config());
    DataLoader classic_loader(data.train, 32, /*shuffle=*/true, Rng(3));
    const EpochStats classic_stats =
        train_one_epoch(classic, classic_opt, classic_loader, FitHooks{});

    Model parallel = build_model(family);
    DataParallelConfig dp_config;
    dp_config.workers = 1;
    dp_config.micro_batch = 64;  // >= batch size: one shard
    DataParallelTrainer trainer(parallel, nullptr, dp_config);
    Sgd parallel_opt(parallel.arena(), sgd_config());
    DataLoader parallel_loader(data.train, 32, /*shuffle=*/true, Rng(3));
    const EpochStats parallel_stats =
        train_one_epoch(trainer, parallel_opt, parallel_loader, FitHooks{});

    EXPECT_EQ(classic_stats.loss, parallel_stats.loss);
    EXPECT_EQ(classic_stats.accuracy, parallel_stats.accuracy);

    const ParameterArena& a = classic.arena();
    const ParameterArena& b = parallel.arena();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.values(), b.values(),
                          static_cast<std::size_t>(a.size()) * sizeof(float)),
              0)
        << family << ": single-shard DP diverged from the classic loop";

    const std::vector<float> bn_a = collect_bn_stats(classic);
    const std::vector<float> bn_b = collect_bn_stats(parallel);
    ASSERT_EQ(bn_a.size(), bn_b.size());
    EXPECT_EQ(std::memcmp(bn_a.data(), bn_b.data(),
                          bn_a.size() * sizeof(float)),
              0)
        << family << ": batchnorm stats diverged from the classic loop";
  }
}

// ---- data-parallel CSQ pipeline -------------------------------------------

TEST(DataParallel, CsqTrainingPipelineMatchesSerial) {
  const SyntheticDataset data = tiny_data();
  const auto run = [&data](int workers, std::int64_t micro_batch) {
    std::vector<CsqWeightSource*> sources;
    Rng rng(13);
    ModelConfig model_config;
    model_config.num_classes = 4;
    model_config.base_width = 4;
    Model model = make_resnet_cifar(8, model_config,
                                    csq_weight_factory(&sources), nullptr,
                                    rng);
    CsqTrainConfig config;
    config.train.epochs = 2;
    config.train.batch_size = 32;
    config.train.learning_rate = 0.05f;
    config.lambda = 0.05;
    config.target_bits = 3.0;
    config.data_parallel.workers = workers;
    config.data_parallel.micro_batch = micro_batch;
    const CsqTrainResult result = train_csq(
        model, sources, data.train, data.test, config, [] {
          std::vector<CsqWeightSource*> replica_sources;
          Rng replica_rng(13);
          ModelConfig replica_config;
          replica_config.num_classes = 4;
          replica_config.base_width = 4;
          // The replica registry is not retained: the trainer rediscovers
          // the sources through the model's quant-layer registry.
          return make_resnet_cifar(8, replica_config,
                                   csq_weight_factory(&replica_sources),
                                   nullptr, replica_rng);
        });
    std::vector<float> values;
    const ParameterArena& arena = model.arena();
    values.assign(arena.values(), arena.values() + arena.size());
    return std::make_pair(result, values);
  };

  const auto expect_same = [](const std::pair<CsqTrainResult,
                                              std::vector<float>>& a,
                              const std::pair<CsqTrainResult,
                                              std::vector<float>>& b,
                              const std::string& label) {
    ASSERT_EQ(a.second.size(), b.second.size()) << label;
    EXPECT_EQ(std::memcmp(a.second.data(), b.second.data(),
                          a.second.size() * sizeof(float)),
              0)
        << label << ": CSQ pipeline parameters diverged";
    EXPECT_EQ(a.first.test_accuracy, b.first.test_accuracy) << label;
    EXPECT_EQ(a.first.average_bits, b.first.average_bits) << label;
    ASSERT_EQ(a.first.precision_trajectory.size(),
              b.first.precision_trajectory.size())
        << label;
    for (std::size_t i = 0; i < a.first.precision_trajectory.size(); ++i) {
      EXPECT_EQ(a.first.precision_trajectory[i],
                b.first.precision_trajectory[i])
          << label << ": trajectory diverged at epoch " << i;
    }
  };

  // Worker-count invariance on the shared default shard grid: the grid (and
  // hence the gradient reduction tree) depends only on the batch geometry,
  // so 2 and 4 workers must produce bit-identical pipelines.
  ASSERT_NO_FATAL_FAILURE(
      expect_same(run(2, 0), run(4, 0), "dp x2 vs dp x4"));

  // A one-shard grid (micro_batch >= batch size) skips the shard rescale and
  // reduces a single span, so the data-parallel pipeline — idle replicas and
  // all — must be bit-identical to the classic serial training loop.
  ASSERT_NO_FATAL_FAILURE(
      expect_same(run(1, 0), run(4, 32), "serial vs one-shard dp x4"));
}

// ---- steady-state allocation discipline -----------------------------------

// Runs one warmed-up 4-shard step at 2 workers and returns its heap
// allocation count.
std::uint64_t steady_state_step_allocations(const std::string& family) {
  const SyntheticDataset data = tiny_data();
  Model model = build_model(family);
  DataParallelConfig dp_config;
  dp_config.workers = 2;
  dp_config.micro_batch = 8;  // 4 shards over a 32-row batch
  DataParallelTrainer trainer(
      model, [&family] { return build_model(family); }, dp_config);
  Sgd optimizer(model.arena(), sgd_config());

  std::vector<int> indices(32);
  std::iota(indices.begin(), indices.end(), 0);
  const Batch batch = data.train.gather(indices);

  // Warmup: grow the shard buffers, the tensor pool, every per-replica
  // scratch vector and the primary sources' gate caches to their
  // steady-state high-water marks.
  for (int i = 0; i < 3; ++i) trainer.train_step(batch, optimizer);

  const std::uint64_t before = testing::alloc_count();
  trainer.train_step(batch, optimizer);
  return testing::alloc_count() - before;
}

TEST(DataParallel, SteadyStateStepPerformsNoAllocations) {
  EXPECT_EQ(steady_state_step_allocations("dense"), 0u)
      << "steady-state data-parallel step hit the heap";
}

TEST(DataParallel, SteadyStateCsqStepPerformsNoAllocations) {
  // The CSQ path adds the once-per-step materialization and the reduced-dW
  // source backward on the calling thread.
  EXPECT_EQ(steady_state_step_allocations("csq"), 0u)
      << "steady-state data-parallel CSQ step hit the heap";
}

// ---- weight-space reduction ------------------------------------------------

TEST(DataParallel, MaterializesOncePerStep) {
  // 24-row batches: micro_batch 24 / 8 / 3 give 1 / 3 / 8 shards, so some
  // grids leave replicas idle and some give a worker several shards.
  const SyntheticDataset data = tiny_data();
  std::vector<int> indices(24);
  std::iota(indices.begin(), indices.end(), 0);
  const Batch batch = data.train.gather(indices);

  for (const std::string& family : {std::string("csq"),
                                    std::string("lqnets")}) {
    for (const int workers : {1, 2, 4}) {
      for (const std::int64_t micro_batch : {24, 8, 3}) {
        SCOPED_TRACE(family + " x" + std::to_string(workers) +
                     " micro_batch " + std::to_string(micro_batch));
        Model model = build_model(family);
        std::vector<WeightSource*> replica_sources;
        DataParallelConfig dp_config;
        dp_config.workers = workers;
        dp_config.micro_batch = micro_batch;
        DataParallelTrainer trainer(
            model,
            [&family, &replica_sources] {
              Model replica = build_model(family);
              for (const QuantLayer& layer : replica.quant_layers()) {
                replica_sources.push_back(layer.source);
              }
              return replica;
            },
            dp_config);
        Sgd optimizer(model.arena(), sgd_config());

        const auto counts = [](const std::vector<WeightSource*>& sources) {
          std::vector<std::uint64_t> out;
          for (const WeightSource* source : sources) {
            out.push_back(source->materialize_count());
          }
          return out;
        };
        std::vector<WeightSource*> primary_sources;
        for (const QuantLayer& layer : model.quant_layers()) {
          primary_sources.push_back(layer.source);
        }
        ASSERT_FALSE(primary_sources.empty());
        const std::vector<std::uint64_t> replica_before =
            counts(replica_sources);
        std::vector<std::uint64_t> primary = counts(primary_sources);
        for (int step = 0; step < 3; ++step) {
          trainer.train_step(batch, optimizer);
          const std::vector<std::uint64_t> now = counts(primary_sources);
          for (std::size_t j = 0; j < now.size(); ++j) {
            EXPECT_EQ(now[j], primary[j] + 1)
                << "primary source " << j << " at step " << step;
          }
          primary = now;
        }
        EXPECT_EQ(counts(replica_sources), replica_before)
            << "a replica source materialized";
      }
    }
  }
}

TEST(DataParallel, WeightSpaceGradientMatchesPerShardReference) {
  // The trainer reduces dL/dW across shards and backpropagates each source
  // once; the reference runs every shard through the classic model (each
  // source backpropagating per shard, grads accumulating in parameter
  // space) with the same rows/batch loss scale. Source backwards are linear
  // in dW, so the two agree up to float summation order.
  const SyntheticDataset data = tiny_data();
  DataLoader loader(data.train, 32, /*shuffle=*/true, Rng(5));
  for (const std::string& family : {std::string("csq"), std::string("bsq"),
                                    std::string("lqnets")}) {
    SCOPED_TRACE(family);
    Model model = build_model(family);
    Model reference = build_model(family);
    DataParallelConfig dp_config;
    dp_config.workers = 4;
    dp_config.micro_batch = 4;  // 8 shards over a 32-row batch
    DataParallelTrainer trainer(
        model, [&family] { return build_model(family); }, dp_config);
    Sgd optimizer(model.arena(), sgd_config());
    ParameterArena& arena = model.arena();
    ParameterArena& ref_arena = reference.arena();
    ASSERT_TRUE(ref_arena.layout_matches(arena));

    loader.start_epoch();
    Batch batch;
    for (int step = 0; step < 2; ++step) {
      ASSERT_TRUE(loader.next(batch));
      ASSERT_EQ(batch.images.dim(0), 32);
      std::vector<float> dp_grads;
      trainer.train_step(batch, optimizer, [&] {
        dp_grads.assign(arena.grads(), arena.grads() + arena.size());
      });

      // Sequential per-shard reference from the same pre-step values.
      ref_arena.zero_grads();
      SoftmaxCrossEntropy loss;
      const std::int64_t sample = batch.images.numel() / 32;
      for (std::int64_t begin = 0; begin < 32; begin += 4) {
        Tensor images({4, batch.images.dim(1), batch.images.dim(2),
                       batch.images.dim(3)});
        std::memcpy(images.data(), batch.images.data() + begin * sample,
                    static_cast<std::size_t>(4 * sample) * sizeof(float));
        const std::vector<int> labels(batch.labels.begin() + begin,
                                      batch.labels.begin() + begin + 4);
        loss.forward(reference.forward(images, /*training=*/true), labels);
        Tensor grad = loss.backward();
        for (std::int64_t i = 0; i < grad.numel(); ++i) {
          grad.data()[i] *= 4.0f / 32.0f;
        }
        reference.backward(grad);
      }

      double diff = 0.0, norm = 0.0;
      for (std::int64_t i = 0; i < ref_arena.size(); ++i) {
        const double want = ref_arena.grads()[i];
        const double got = dp_grads[static_cast<std::size_t>(i)];
        diff += (got - want) * (got - want);
        norm += want * want;
      }
      ASSERT_GT(norm, 0.0);
      EXPECT_LE(std::sqrt(diff / norm), 1e-5) << "step " << step;

      // Next step starts the reference from the primary's updated values.
      ref_arena.load_values(arena.values());
    }
  }
}

}  // namespace
}  // namespace csq

// The seeded inputs of every workload: the image pool, the request
// schedule, the image picks and the model under test (architecture, fixed
// bit list and weight initialisation). The same seed gives the same inputs
// on every host; nothing else about a workload varies with the seed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/csq_weight.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "util/rng.h"

namespace perfbench {

constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kSide = 16;
constexpr std::int64_t kSampleNumel = kChannels * kSide * kSide;

// Per-layer weight precision of the model under test, in layer creation
// order (stem; each BasicBlock's conv1, conv2 and, where it downsamples,
// its 1x1 shortcut; the fc head): 6 bits at the ends and 2-4 bits in the
// body, ~3 bits element-weighted, the shape of the paper's Fig. 4. The
// 2/3-bit 3x3 layers select the bit-serial kernel and the 4/6-bit layers
// the s8u8 kernel. Part of the workload definition: it does not vary with
// the seed.
constexpr int kBitList[] = {6,                        // conv1 (stem)
                            4, 3, 4, 3, 3, 4,         // layer1
                            3, 3, 4, 3, 3, 3, 3,      // layer2 (+downsample)
                            3, 3, 4, 2, 3, 3, 4,      // layer3 (+downsample)
                            6};                       // fc
constexpr int kBitListSize = sizeof(kBitList) / sizeof(kBitList[0]);

// Poisson arrival schedule: due times (seconds from phase start) over
// `seconds`, with exponential gaps at `rate` per second, drawn from `seed`. The same
// seed and rate give the same schedule on every host.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double seconds) {
  csq::Rng rng(seed, 0x9e3779b97f4a7c15ULL);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    const double u = std::max(1e-12, static_cast<double>(rng.uniform()));
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

// Request -> image index into the seeded image pool.
inline std::vector<std::int32_t> image_choices(std::uint64_t seed,
                                               std::size_t count,
                                               std::uint32_t pool) {
  csq::Rng rng(seed, 0x2545f4914f6cdd1dULL);
  std::vector<std::int32_t> picks(count);
  for (auto& pick : picks) {
    pick = static_cast<std::int32_t>(rng.uniform_int(pool));
  }
  return picks;
}

// Seeded synthetic 16x16 images (data/synthetic.h): the image pool every
// workload draws from, with labels for training.
inline csq::InMemoryDataset make_images(std::uint64_t seed, std::int64_t count) {
  csq::SyntheticConfig config;
  config.train_samples = count;
  config.test_samples = 1;
  config.height = kSide;
  config.width = kSide;
  config.channels = kChannels;
  config.seed = seed;
  return csq::make_synthetic(config).train;
}

// The images at `picks` as one (B, C, H, W) batch.
inline csq::Tensor gather_images(const csq::InMemoryDataset& pool,
                                 const std::vector<std::int32_t>& picks) {
  std::vector<int> idx(picks.begin(), picks.end());
  return pool.gather(idx).images;
}

// ResNet-20 (width 16) with CSQ weight sources initialised from `seed`,
// recorded in `registry`: under the fixed bit list for the served model,
// with learned precision (fixed_precision = 0) for the search workload.
inline csq::Model build_resnet(std::uint64_t seed,
                               std::vector<csq::CsqWeightSource*>* registry,
                               bool fixed_bits) {
  csq::Rng rng(seed, 0x5851f42d4c957f2dULL);
  csq::ModelConfig config;
  config.base_width = 16;
  config.in_channels = kChannels;
  int layer = 0;
  const csq::WeightSourceFactory factory =
      [registry, fixed_bits, &layer](const std::string& name,
                                     std::vector<std::int64_t> shape,
                                     std::int64_t fan_in,
                                     csq::Rng& r) -> csq::WeightSourcePtr {
    csq::CsqWeightOptions options;  // learned precision by default
    if (fixed_bits) {
      if (layer >= kBitListSize) {
        throw std::runtime_error("bit list shorter than the model");
      }
      options.fixed_precision = kBitList[layer];
    }
    ++layer;
    auto source = std::make_unique<csq::CsqWeightSource>(
        name, std::move(shape), fan_in, options, r);
    registry->push_back(source.get());
    return source;
  };
  csq::Model model = csq::make_resnet20(config, factory, nullptr, rng);
  if (fixed_bits && layer != kBitListSize) {
    throw std::runtime_error("bit list longer than the model");
  }
  return model;
}

}  // namespace perfbench

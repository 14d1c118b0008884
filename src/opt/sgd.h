// Stochastic gradient descent with momentum and decoupled per-parameter
// weight decay — the optimizer used by every experiment in the paper
// (momentum 0.9, weight decay 5e-4 CIFAR / 1e-4 ImageNet).
#pragma once

#include <vector>

#include "nn/parameter.h"
#include "nn/parameter_arena.h"

namespace csq {

struct SgdConfig {
  float learning_rate = 0.1f;
  float momentum = 0.9f;
  float weight_decay = 5e-4f;
};

class Sgd {
 public:
  Sgd(std::vector<Parameter*> parameters, const SgdConfig& config);
  // Arena-backed optimizer: one flat velocity buffer, and step() is a
  // single sweep over the contiguous value/grad spans, pooled over the
  // fixed chunk grid — bit-identical to the per-parameter path (same
  // per-element arithmetic), but without the tensor pointer chase.
  Sgd(ParameterArena& arena, const SgdConfig& config);

  // One update: v = momentum*v + (grad + wd*w); w -= lr * v.
  // Weight decay is skipped for parameters flagged weight_decay == false.
  void step();

  void set_learning_rate(float lr) { config_.learning_rate = lr; }
  float learning_rate() const { return config_.learning_rate; }
  const SgdConfig& config() const { return config_; }

  // Clears momentum buffers (used when the CSQ finetune phase restarts
  // optimization under a rewound temperature).
  void reset_momentum();

 private:
  // Legacy scattered-tensor path (null arena_).
  std::vector<Parameter*> parameters_;
  std::vector<Tensor> velocities_;
  // Arena path: velocity shares the arena's flat layout.
  ParameterArena* arena_ = nullptr;
  std::vector<float> arena_velocity_;
  SgdConfig config_;
};

}  // namespace csq

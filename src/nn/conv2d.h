// 2-D convolution lowered to GEMM via im2col.
//
// Input  (B, IC, H, W) -> Output (B, OC, OH, OW).
// The forward pass parallelizes over the batch (each sample runs im2col,
// one serial blocked GEMM and its bias add); the backward pass parallelizes
// the input gradient over the batch and the weight+bias gradients over
// output channels so no accumulation races occur.
//
// Every recurring buffer — the cached im2col matrix, the per-thread
// grad_col stripes, the per-slot GEMM packing scratch and the dW staging
// tensor — lives in a per-layer Workspace with grow-once semantics, sized on
// the calling thread before each parallel region, so steady-state training
// steps perform zero heap allocations.
//
// Weight capture (set_weight_capture) lets the data-parallel trainer run
// the layer on a weight it materialized once for the whole step, and
// collect dL/dW per micro-batch shard without touching the source.
#pragma once

#include "nn/module.h"
#include "nn/weight_source.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace csq {

struct Conv2dConfig {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;
  bool bias = false;  // ResNet/VGG convs are bias-free (BN follows).
};

class Conv2d final : public Module {
 public:
  Conv2d(const std::string& name, const Conv2dConfig& config,
         const WeightSourceFactory& weight_factory, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  const char* kind() const override { return "conv2d"; }
  void lower(GraphLowering& lowering) override;

  WeightSource& source() { return *weight_source_; }
  const Conv2dConfig& config() const { return config_; }
  // Optional bias as a flat span (nullptr when the layer is bias-free).
  const float* bias_data() const {
    return has_bias_ ? bias_.value.data() : nullptr;
  }
  Workspace& workspace() { return ws_; }

  // Weight-capture mode for weight-space data-parallel training
  // (opt/data_parallel.h): while set, forward and backward read the weight
  // from `weight` (weight_count() floats in the source's layout) instead of
  // materializing the source, and backward OVERWRITES `grad_weight_out`
  // with dL/dW instead of calling the source's backward. The caller owns
  // both spans and runs the source's backward itself. Cleared with null
  // pointers; like BatchNorm2d::set_stat_capture.
  void set_weight_capture(const float* weight, float* grad_weight_out);

 private:
  // Workspace slot indices.
  enum TensorSlot : int { kColsSlot = 0, kGradWeightSlot = 1 };
  enum FloatSlot : int { kGradColSlot = 0, kEvalColSlot = 1 };

  ConvGeometry geometry_for(const Tensor& input) const;

  Conv2dConfig config_;
  WeightSourcePtr weight_source_;
  Parameter bias_;  // empty unless config_.bias
  bool has_bias_ = false;

  // Per-layer scratch arena; kColsSlot doubles as the training-mode cache
  // of the unfolded inputs (B, K, OH*OW), consumed by backward.
  Workspace ws_;
  ConvGeometry cached_geom_;  // geometry of the cached batch
  std::int64_t cached_batch_ = 0;

  // Weight-capture spans (null -> the source materializes and backpropagates).
  const float* capture_weight_ = nullptr;
  float* capture_grad_ = nullptr;
};

}  // namespace csq

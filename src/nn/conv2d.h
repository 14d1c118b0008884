// 2-D convolution as implicit GEMM over a once-padded input.
//
// Input  (B, IC, H, W) -> Output (B, OC, OH, OW).
// Forward pads each sample once into the layer Workspace (B x IC x (H+2p) x
// (W+2p)) and runs ONE GEMM with the batch folded into its columns:
// out(OC, B*OH*OW) = W(OC, IC*k*k) * [col_0 | col_1 | ...], where col_b is
// sample b's im2col matrix, packed straight from the padded copy through a
// ConvPackPlan (tensor/im2col.h) and never materialized; each column lands
// in its sample's output plane. The padded copy is the only per-batch state
// backward keeps. dW is one GEMM too, with the batch folded into its depth:
// dW(OC, K) = dOut(OC, B*OH*OW) * [col_0 | col_1 | ...]^T, reading the same
// padded copy transposed. Both GEMMs are pooled through the GEMM split
// policy at top level and run serially inside a parallel region (the
// data-parallel shards). The input gradient stays batch-parallel: per sample
// grad_col = W^T * dOut_b into a per-slot stripe, then col2im.
//
// Every recurring buffer — the padded input, the per-slot grad_col
// stripes, the GEMM packing scratch and the dW staging tensor — lives in a
// per-layer Workspace with grow-once semantics, sized on the calling thread
// before each parallel region, so steady-state training steps perform zero
// heap allocations.
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
  enum TensorSlot : int { kGradWeightSlot = 0 };
  enum FloatSlot : int { kPaddedSlot = 0, kGradColSlot = 1 };

  ConvGeometry geometry_for(const Tensor& input) const;
  // Packing scratch for this layer's one-call GEMMs: the workspace's at top
  // level, the calling thread's own (null) inside a parallel region.
  GemmScratch* gemm_scratch();

  Conv2dConfig config_;
  WeightSourcePtr weight_source_;
  Parameter bias_;  // empty unless config_.bias
  bool has_bias_ = false;

  // Per-layer scratch arena; kPaddedSlot holds the padded training batch
  // (B x plan_.padded_size() floats), consumed by backward.
  Workspace ws_;
  ConvPackPlan plan_;  // built for the last forward's geometry
  std::int64_t cached_batch_ = 0;  // 0: no training forward to backprop

  // Weight-capture spans (null -> the source materializes and backpropagates).
  const float* capture_weight_ = nullptr;
  float* capture_grad_ = nullptr;
};

}  // namespace csq

// Fully-connected layer: Y = X W^T + b, weights (OUT, IN).
//
// GEMMs run through the pooled blocked kernel with packed-panel scratch from
// the layer's Workspace; the dW staging tensor and the cached forward input
// are recycled across steps, so steady-state forward+backward performs zero
// heap allocations. Weight capture works as in Conv2d (nn/conv2d.h).
#pragma once

#include "nn/module.h"
#include "nn/weight_source.h"
#include "tensor/workspace.h"

namespace csq {

class Linear final : public Module {
 public:
  Linear(const std::string& name, std::int64_t in_features,
         std::int64_t out_features, const WeightSourceFactory& weight_factory,
         Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  const char* kind() const override { return "linear"; }
  void lower(GraphLowering& lowering) override;

  WeightSource& source() { return *weight_source_; }
  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  // Optional bias as a flat span (nullptr when the layer is bias-free).
  const float* bias_data() const {
    return has_bias_ ? bias_.value.data() : nullptr;
  }
  Workspace& workspace() { return ws_; }

  // Weight-capture mode for weight-space data-parallel training; same
  // contract as Conv2d::set_weight_capture.
  void set_weight_capture(const float* weight, float* grad_weight_out);

 private:
  enum TensorSlot : int { kGradWeightSlot = 0 };

  std::int64_t in_features_;
  std::int64_t out_features_;
  WeightSourcePtr weight_source_;
  Parameter bias_;
  bool has_bias_;

  Workspace ws_;
  // (B, IN) from the last training forward. The tensor keeps its storage
  // across steps (same-shape copy-assignment never allocates); the flag
  // gates backward-without-forward misuse.
  Tensor cached_input_;
  bool has_cached_input_ = false;

  // Weight-capture spans (null -> the source materializes and backpropagates).
  const float* capture_weight_ = nullptr;
  float* capture_grad_ = nullptr;
};

}  // namespace csq

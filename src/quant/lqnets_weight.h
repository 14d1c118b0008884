// LQ-Nets weight quantizer (Zhang et al., ECCV 2018).
//
// The quantizer learns a basis v in R^n per layer; a weight is encoded as
// b in {-1,+1}^n and dequantized as v.b (2^n learned, non-uniform levels).
// Training alternates, per materialization (i.e. per minibatch, as in the
// paper's QEM algorithm):
//   E-step: each weight picks the nearest of the 2^n levels;
//   M-step: v is refit by least squares v = (B^T B)^{-1} B^T w.
// Gradients flow to the latent weights by STE.
#pragma once

#include "nn/weight_source.h"

namespace csq {

class LqNetsWeightSource final : public WeightSource {
 public:
  LqNetsWeightSource(const std::string& name, std::vector<std::int64_t> shape,
                     std::int64_t fan_in, int bits, Rng& rng);

  const Tensor& weight(bool training) override;
  void backward(const Tensor& grad_weight) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  const char* kind() const override { return "lqnets"; }
  std::int64_t weight_count() const override { return latent_.value.numel(); }
  std::vector<std::int64_t> weight_shape() const override {
    return latent_.value.shape();
  }
  double bits_per_weight() const override { return bits_; }

  // Current learned basis (size n), exposed for tests.
  const std::vector<float>& basis() const { return basis_; }
  // Mean squared quantization error of the last materialization.
  float last_fit_error() const { return last_fit_error_; }

 private:
  void refresh_levels();

  Parameter latent_;
  Tensor quantized_;
  std::vector<float> basis_;          // v, size n
  std::vector<float> levels_;         // all 2^n values v.b, sorted
  std::vector<std::int8_t> codes_;    // packed encodings, n per weight
  // Per-chunk reduction scratch for the parallel E/M steps (fit error and
  // Gram/rhs partials), sized once at construction.
  std::vector<double> fit_partials_;
  std::vector<double> gram_partials_;
  float last_fit_error_ = 0.0f;
  int bits_;
  // Bumped when the M-step rewrites the basis (the eval dirty-flag stamp
  // must change: the cached encoding used the pre-update levels).
  std::uint64_t internal_rev_ = 0;
  // Training-side dirty flag: a training weight() whose inputs are
  // unchanged since the last QEM iteration reuses the materialized tensor
  // instead of running another E/M step. One optimizer step therefore
  // performs exactly ONE QEM iteration no matter how many times it asks
  // for the training weight (a layer's forward and backward both do).
  // Invalidated by any parameter/basis revision and by
  // eval-mode materializations (which re-encode against the post-update
  // levels, overwriting quantized_).
  std::uint64_t train_cache_stamp_ = 0;
  bool train_cache_valid_ = false;
};

WeightSourceFactory lqnets_weight_factory(int bits);

}  // namespace csq

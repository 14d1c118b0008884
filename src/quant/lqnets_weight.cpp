#include "quant/lqnets_weight.h"

#include <algorithm>
#include <cmath>

#include "quant/quantizer.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/quant_kernels.h"
#include "util/check.h"

namespace csq {

LqNetsWeightSource::LqNetsWeightSource(const std::string& name,
                                       std::vector<std::int64_t> shape,
                                       std::int64_t fan_in, int bits, Rng& rng)
    : bits_(bits) {
  CSQ_CHECK(bits >= 1 && bits <= 4)
      << "lqnets: enumerated encoding supports 1..4 bits, got " << bits;
  Tensor value(std::move(shape));
  fill_he_normal(value, fan_in, rng);
  latent_ = Parameter(name + ".latent", std::move(value),
                      /*apply_weight_decay=*/true);
  quantized_ = Tensor(latent_.value.shape());
  codes_.resize(static_cast<std::size_t>(latent_.value.numel()));
  const std::int64_t chunks = quant_chunk_count(latent_.value.numel());
  fit_partials_.resize(static_cast<std::size_t>(chunks));
  gram_partials_.resize(
      static_cast<std::size_t>(chunks * (bits * bits + bits)));

  // Initialize the basis so v.b spans a roughly uniform grid over the
  // initial weight range; QEM adapts it from there.
  const float max_w = max_abs_scale(latent_.value);
  basis_.resize(static_cast<std::size_t>(bits));
  const auto denom = static_cast<float>((1 << bits) - 1);
  for (int k = 0; k < bits; ++k) {
    basis_[static_cast<std::size_t>(k)] =
        max_w * static_cast<float>(1 << k) / denom;
  }
  refresh_levels();
}

void LqNetsWeightSource::refresh_levels() {
  const int combos = 1 << bits_;
  levels_.resize(static_cast<std::size_t>(combos));
  for (int c = 0; c < combos; ++c) {
    float level = 0.0f;
    for (int k = 0; k < bits_; ++k) {
      const float sign = (c >> k) & 1 ? 1.0f : -1.0f;
      level += sign * basis_[static_cast<std::size_t>(k)];
    }
    levels_[static_cast<std::size_t>(c)] = level;
  }
}

const Tensor& LqNetsWeightSource::weight(bool training) {
  // Eval dirty-flag: the E-step encoding is a pure function of the latents
  // and the current basis. A training call IS a QEM iteration (the M-step
  // refits the basis), so it is only ever skipped when its inputs are
  // UNCHANGED since the previous training call — repeated requests within
  // one optimizer step (a layer's forward and backward) reuse the
  // iteration's result instead of compounding extra M-steps.
  const std::uint64_t stamp = latent_.version + internal_rev_;
  if (!training && eval_cache_fresh(stamp)) return quantized_;
  if (training && train_cache_valid_ && train_cache_stamp_ == stamp) {
    return quantized_;
  }
  const float* w = latent_.value.data();
  float* q = quantized_.data();
  const std::int64_t count = latent_.value.numel();
  const int combos = 1 << bits_;
  const KernelExec exec = default_kernel_exec();

  // E-step: nearest-level encoding (2^n <= 16 candidates: linear scan).
  const double fit_error =
      nearest_level_encode(w, levels_.data(), combos, codes_.data(), q, count,
                           fit_partials_.data(), exec);
  last_fit_error_ = static_cast<float>(fit_error / static_cast<double>(count));

  if (training) {
    // M-step: v = (B^T B + eps I)^{-1} B^T w, an n x n solve with
    // G = sum_i b_i b_i^T and r = sum_i b_i w_i.
    const int n = bits_;
    double gram[16];  // n <= 4 -> at most 4x4
    double rhs[4];
    code_gram_accumulate(w, codes_.data(), n, gram, rhs, count,
                         gram_partials_.data(), exec);
    for (int a = 0; a < n; ++a) gram[a * n + a] += 1e-6 * count;

    // Gaussian elimination with partial pivoting.
    double solution[4];
    for (int a = 0; a < n; ++a) solution[a] = rhs[a];
    for (int col = 0; col < n; ++col) {
      int pivot = col;
      for (int row = col + 1; row < n; ++row) {
        if (std::fabs(gram[row * n + col]) > std::fabs(gram[pivot * n + col])) {
          pivot = row;
        }
      }
      if (pivot != col) {
        for (int j = 0; j < n; ++j) std::swap(gram[col * n + j], gram[pivot * n + j]);
        std::swap(solution[col], solution[pivot]);
      }
      const double diag = gram[col * n + col];
      if (std::fabs(diag) < 1e-12) continue;  // degenerate: keep old basis row
      for (int row = col + 1; row < n; ++row) {
        const double factor = gram[row * n + col] / diag;
        for (int j = col; j < n; ++j) gram[row * n + j] -= factor * gram[col * n + j];
        solution[row] -= factor * solution[col];
      }
    }
    bool valid = true;
    for (int col = n - 1; col >= 0; --col) {
      double acc = solution[col];
      for (int j = col + 1; j < n; ++j) acc -= gram[col * n + j] * solution[j];
      const double diag = gram[col * n + col];
      if (std::fabs(diag) < 1e-12) {
        valid = false;
        break;
      }
      solution[col] = acc / diag;
    }
    if (valid) {
      for (int a = 0; a < n; ++a) {
        // Keep basis magnitudes positive; signs are carried by the codes.
        basis_[static_cast<std::size_t>(a)] =
            std::fabs(static_cast<float>(solution[a]));
      }
      refresh_levels();
      // quantized_ was encoded against the pre-update levels: record the
      // rebuild but leave the eval cache invalid. The training cache is
      // stamped POST-update so same-step re-forwards reuse this iteration.
      ++internal_rev_;
      note_materialized_volatile();
      train_cache_valid_ = true;
      train_cache_stamp_ = latent_.version + internal_rev_;
      return quantized_;
    }
  }
  note_materialized(stamp);
  if (training) {
    train_cache_valid_ = true;
    train_cache_stamp_ = stamp;
  } else {
    // Eval re-encoded quantized_ against the current levels; a training
    // reuse of that buffer would skip the step's QEM iteration.
    train_cache_valid_ = false;
  }
  return quantized_;
}

void LqNetsWeightSource::backward(const Tensor& grad_weight) {
  CSQ_CHECK(grad_weight.same_shape(latent_.grad))
      << "lqnets: grad shape mismatch";
  // STE to the latent weights.
  accumulate(grad_weight.data(), latent_.grad.data(), latent_.grad.numel(),
             default_kernel_exec());
}

void LqNetsWeightSource::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&latent_);
}

WeightSourceFactory lqnets_weight_factory(int bits) {
  return [bits](const std::string& name, std::vector<std::int64_t> shape,
                std::int64_t fan_in, Rng& rng) -> WeightSourcePtr {
    return std::make_unique<LqNetsWeightSource>(name, std::move(shape), fan_in,
                                                bits, rng);
  };
}

}  // namespace csq

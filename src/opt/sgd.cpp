#include "opt/sgd.h"

#include <algorithm>

#include "tensor/quant_kernels.h"
#include "util/check.h"

namespace csq {

Sgd::Sgd(std::vector<Parameter*> parameters, const SgdConfig& config)
    : parameters_(std::move(parameters)), config_(config) {
  CSQ_CHECK(!parameters_.empty()) << "sgd: no parameters";
  velocities_.reserve(parameters_.size());
  for (const Parameter* param : parameters_) {
    CSQ_CHECK(param != nullptr) << "sgd: null parameter";
    velocities_.emplace_back(param->value.shape());
  }
}

Sgd::Sgd(ParameterArena& arena, const SgdConfig& config)
    : arena_(&arena), config_(config) {
  CSQ_CHECK(arena.size() > 0) << "sgd: empty arena";
  arena_velocity_.assign(static_cast<std::size_t>(arena.size()), 0.0f);
}

void Sgd::step() {
  const float lr = config_.learning_rate;
  const float momentum = config_.momentum;

  if (arena_ != nullptr) {
    // One sweep over the flat spans on the fixed chunk grid, pooled unless
    // the caller runs serially. The update is elementwise, so the chunking
    // cannot change a bit; each chunk walks the views it overlaps only to
    // switch the decay coefficient.
    float* value = arena_->values();
    const float* grad = arena_->grads();
    float* velocity = arena_velocity_.data();
    const std::vector<ParameterArena::View>& views = arena_->views();
    const float weight_decay = config_.weight_decay;
    for_each_quant_chunk(
        arena_->size(), default_kernel_exec(),
        [&](std::int64_t, std::int64_t begin, std::int64_t end) {
          // The last view starting at or before `begin` contains it.
          auto view =
              std::upper_bound(views.begin(), views.end(), begin,
                               [](std::int64_t offset,
                                  const ParameterArena::View& v) {
                                 return offset < v.offset;
                               }) -
              1;
          for (; begin < end; ++view) {
            const std::int64_t stop =
                std::min(end, view->offset + view->count);
            const float decay = view->weight_decay ? weight_decay : 0.0f;
            for (std::int64_t i = begin; i < stop; ++i) {
              const float g = grad[i] + decay * value[i];
              velocity[i] = momentum * velocity[i] + g;
              value[i] -= lr * velocity[i];
            }
            begin = stop;
          }
        });
    for (const ParameterArena::View& view : views) view.param->mark_updated();
    return;
  }

  for (std::size_t p = 0; p < parameters_.size(); ++p) {
    Parameter& param = *parameters_[p];
    const float decay = param.weight_decay ? config_.weight_decay : 0.0f;
    float* value = param.value.data();
    const float* grad = param.grad.data();
    float* velocity = velocities_[p].data();
    const std::int64_t count = param.value.numel();
    for (std::int64_t i = 0; i < count; ++i) {
      const float g = grad[i] + decay * value[i];
      velocity[i] = momentum * velocity[i] + g;
      value[i] -= lr * velocity[i];
    }
    param.mark_updated();
  }
}

void Sgd::reset_momentum() {
  std::fill(arena_velocity_.begin(), arena_velocity_.end(), 0.0f);
  for (Tensor& velocity : velocities_) velocity.zero();
}

}  // namespace csq

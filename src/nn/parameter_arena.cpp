#include "nn/parameter_arena.h"

#include <algorithm>
#include <cstring>

#include "tensor/quant_kernels.h"
#include "util/check.h"

namespace csq {

ParameterArena::ParameterArena(const std::vector<Parameter*>& params) {
  CSQ_CHECK(!params.empty()) << "parameter arena: empty parameter list";
  std::int64_t total = 0;
  views_.reserve(params.size());
  for (Parameter* param : params) {
    CSQ_CHECK(param != nullptr) << "parameter arena: null parameter";
    CSQ_CHECK(!param->value.is_borrowed())
        << "parameter arena: " << param->name << " is already arena-bound";
    View view;
    view.param = param;
    view.offset = total;
    view.count = param->value.numel();
    view.weight_decay = param->weight_decay;
    views_.push_back(view);
    total += view.count;
  }

  // Offsets are unpadded: the value span is exactly the concatenation of the
  // per-parameter tensors, which is what makes the arena checkpoint blob
  // byte-identical to per-tensor serialization (core/model_io checkpoints).
  values_.resize(static_cast<std::size_t>(total));
  grads_.resize(static_cast<std::size_t>(total));

  for (const View& view : views_) {
    Parameter& param = *view.param;
    std::copy(param.value.data(), param.value.data() + view.count,
              values_.data() + view.offset);
    std::copy(param.grad.data(), param.grad.data() + view.count,
              grads_.data() + view.offset);
    const std::vector<std::int64_t> shape = param.value.shape();
    param.value = Tensor::borrow(values_.data() + view.offset, shape);
    param.grad = Tensor::borrow(grads_.data() + view.offset, shape);
    // Storage moved: any cached materialization holding the old address
    // must be rebuilt, which the version bump forces.
    param.mark_updated();
  }
}

void ParameterArena::zero_grads() {
  float* grads = grads_.data();
  for_each_quant_chunk(size(), default_kernel_exec(),
                       [grads](std::int64_t, std::int64_t begin,
                               std::int64_t end) {
                         std::memset(grads + begin, 0,
                                     static_cast<std::size_t>(end - begin) *
                                         sizeof(float));
                       });
}

void ParameterArena::load_values(const float* src) {
  std::memcpy(values_.data(), src, values_.size() * sizeof(float));
  for (const View& view : views_) view.param->mark_updated();
}

bool ParameterArena::layout_matches(const ParameterArena& other) const {
  if (views_.size() != other.views_.size() || size() != other.size()) {
    return false;
  }
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (views_[i].offset != other.views_[i].offset ||
        views_[i].count != other.views_[i].count ||
        views_[i].weight_decay != other.views_[i].weight_decay) {
      return false;
    }
  }
  return true;
}

}  // namespace csq

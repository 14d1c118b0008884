#include "tensor/workspace.h"

#include "util/check.h"

namespace csq {

Workspace::Workspace(int max_slots) : max_slots_(max_slots) {
  CSQ_CHECK(max_slots > 0) << "workspace: bad slot capacity";
  // Reserving up front keeps slot creation from relocating sibling slots
  // (Tensor& references returned earlier must survive later slot growth).
  float_slots_.reserve(static_cast<std::size_t>(max_slots_));
  tensor_slots_.reserve(static_cast<std::size_t>(max_slots_));
}

template <typename T>
T* Workspace::flat_slot(std::vector<std::vector<T>>& slots, int slot,
                        std::int64_t count) {
  CSQ_CHECK(slot >= 0 && slot < max_slots_ && count >= 0)
      << "workspace: bad flat slot request";
  if (static_cast<std::size_t>(slot) >= slots.size()) {
    slots.resize(static_cast<std::size_t>(slot) + 1);
    ++growth_count_;
  }
  std::vector<T>& buffer = slots[static_cast<std::size_t>(slot)];
  if (buffer.size() < static_cast<std::size_t>(count)) {
    buffer.resize(static_cast<std::size_t>(count));
    ++growth_count_;
  }
  return buffer.data();
}

float* Workspace::floats(int slot, std::int64_t count) {
  return flat_slot(float_slots_, slot, count);
}

std::uint8_t* Workspace::bytes(int slot, std::int64_t count) {
  return flat_slot(byte_slots_, slot, count);
}

std::int32_t* Workspace::ints(int slot, std::int64_t count) {
  return flat_slot(int_slots_, slot, count);
}

Tensor& Workspace::tensor(int slot, const std::vector<std::int64_t>& shape) {
  Tensor& t = tensor_slot_for(slot, shape_numel(shape));
  t.resize_unspecified(shape);
  return t;
}

Tensor& Workspace::tensor(int slot, std::initializer_list<std::int64_t> shape) {
  std::int64_t count = 1;
  for (const std::int64_t extent : shape) count *= extent;
  Tensor& t = tensor_slot_for(slot, count);
  t.resize_unspecified(shape);
  return t;
}

Tensor& Workspace::tensor_slot_for(int slot, std::int64_t count) {
  CSQ_CHECK(slot >= 0 && slot < max_slots_) << "workspace: bad tensor slot";
  if (static_cast<std::size_t>(slot) >= tensor_slots_.size()) {
    tensor_slots_.resize(static_cast<std::size_t>(slot) + 1);
    tensor_high_water_.resize(static_cast<std::size_t>(slot) + 1, 0);
    ++growth_count_;
  }
  // Count growth only when the request exceeds the slot's high-water mark —
  // that is when resize_unspecified actually has to allocate. Shrinking and
  // re-growing within reserved capacity (ragged last batches, alternating
  // train/eval batch sizes) stays allocation-free and is not counted.
  std::int64_t& high_water = tensor_high_water_[static_cast<std::size_t>(slot)];
  if (count > high_water) {
    ++growth_count_;
    high_water = count;
  }
  return tensor_slots_[static_cast<std::size_t>(slot)];
}

void Workspace::reserve_slot_gemm(std::int64_t m, std::int64_t n,
                                  std::int64_t k) {
  slot_scratch_live_ = !inside_parallel_region();
  if (!slot_scratch_live_) return;
  if (slot_scratch_.empty()) {
    slot_scratch_.resize(static_cast<std::size_t>(pool_slot_count()));
    ++growth_count_;
  }
  for (GemmScratch& scratch : slot_scratch_) {
    const std::size_t before =
        scratch.packed_a.capacity() + scratch.packed_b.capacity();
    gemm_scratch_reserve(scratch, m, n, k);
    if (scratch.packed_a.capacity() + scratch.packed_b.capacity() != before) {
      ++growth_count_;
    }
  }
}

std::int64_t Workspace::total_bytes() const {
  std::int64_t total = 0;
  for (const auto& slot : float_slots_) {
    total += static_cast<std::int64_t>(slot.size() * sizeof(float));
  }
  for (const auto& slot : byte_slots_) {
    total += static_cast<std::int64_t>(slot.size());
  }
  for (const auto& slot : int_slots_) {
    total += static_cast<std::int64_t>(slot.size() * sizeof(std::int32_t));
  }
  for (const std::int64_t high_water : tensor_high_water_) {
    total += high_water * static_cast<std::int64_t>(sizeof(float));
  }
  return total;
}

const Tensor& Workspace::peek(int slot) const {
  CSQ_CHECK(slot >= 0 && static_cast<std::size_t>(slot) < tensor_slots_.size())
      << "workspace: peek of unpopulated slot " << slot;
  return tensor_slots_[static_cast<std::size_t>(slot)];
}

}  // namespace csq

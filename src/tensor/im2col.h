// im2col / col2im transforms for convolution lowering.
//
// A single image (C, H, W) is unfolded into a matrix
//   col[(c*kh + ki)*kw + kj, oy*out_w + ox] = x[c, oy*stride - pad + ki,
//                                               ox*stride - pad + kj]
// (zero where the source index falls in padding), so that a convolution with
// weight (OC, C, kh, kw) becomes one GEMM: out = W_mat(OC, C*kh*kw) * col.
// col2im is the adjoint scatter-add used by the input-gradient pass.
//
// Neither the integer runtime nor the float Conv2d materializes col:
// ConvPackPlan is its index map, which the int8 and float GEMMs pack B
// micro-panels through (implicit GEMM). im2col / im2col_u8 stay as the
// references those panels are tested against.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"

namespace csq {

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const {
    return (height + 2 * pad - kernel_h) / stride + 1;
  }
  std::int64_t out_w() const {
    return (width + 2 * pad - kernel_w) / stride + 1;
  }
  // Rows of the unfolded matrix.
  std::int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  // Columns of the unfolded matrix.
  std::int64_t col_cols() const { return out_h() * out_w(); }

  // Validates that the geometry yields a positive output grid.
  void validate() const;

  bool operator==(const ConvGeometry& o) const {
    return channels == o.channels && height == o.height && width == o.width &&
           kernel_h == o.kernel_h && kernel_w == o.kernel_w &&
           stride == o.stride && pad == o.pad;
  }
};

// image: C*H*W floats; col: col_rows()*col_cols() floats (fully overwritten).
void im2col(const ConvGeometry& geom, const float* image, float* col);

// Integer-runtime variant over unsigned 8-bit activation codes. Padding
// positions take `pad_code` — the code representing the real value zero of
// the producing edge (its zero point), so a zero-padded float convolution
// and the integer one see the same border.
void im2col_u8(const ConvGeometry& geom, const std::uint8_t* image,
               std::uint8_t* col, std::uint8_t pad_code);

// Implicit im2col for the int8 and float GEMMs. The sample is stored padded
// once — C x padded_h x padded_w elements, border set to the pad value
// (pad_sample_u8 / pad_sample) — so every tap of every output position is
// in bounds and
//   col[k, j] = padded[tap[k] + lane(j)]
//   tap[k]    = (c * padded_h + ki) * padded_w + kj,  k = (c*kh + ki)*kw + kj
//   lane(j)   = (oy * padded_w + ox) * stride,         j = oy*out_w + ox
// Offsets count elements, so one plan serves uint8 and float samples; a
// batch of padded samples stored back to back (padded_size() apart) is the
// float GEMM's operand (GemmB::conv). The GEMMs pack each kGemmNR-column
// micro-panel straight from the padded sample: they build the panel's lane
// table once, then read each depth row with one wide load where the lanes
// are consecutive and a per-lane gather otherwise. With pad == 0 the padded
// sample IS the sample (no copy needed).
struct ConvPackPlan {
  ConvGeometry geom;
  std::int64_t padded_h = 0;
  std::int64_t padded_w = 0;
  std::vector<std::int32_t> tap;  // k() entries

  std::int64_t k() const { return geom.col_rows(); }
  std::int64_t n() const { return geom.col_cols(); }
  bool needs_padding() const { return geom.pad > 0; }
  // Elements of one padded sample.
  std::int64_t padded_size() const {
    return geom.channels * padded_h * padded_w;
  }
  // Offset of output position j from a tap's base.
  std::int32_t lane(std::int64_t j) const {
    const std::int64_t out_w = geom.out_w();
    return static_cast<std::int32_t>((j / out_w * padded_w + j % out_w) *
                                     geom.stride);
  }
};

// Throws check_error unless the padded sample fits int32 offsets.
ConvPackPlan make_conv_pack_plan(const ConvGeometry& geom);

// Writes the padded copy of one C*H*W sample (plan.padded_size()
// elements): pad_sample_u8 fills the border with the edge's pad code,
// pad_sample with 0.0f.
void pad_sample_u8(const ConvPackPlan& plan, const std::uint8_t* image,
                   std::uint8_t* padded, std::uint8_t pad_code);
void pad_sample(const ConvPackPlan& plan, const float* image, float* padded);

// Adjoint: accumulates col back into image. `image` must be zeroed by the
// caller when a fresh gradient is wanted.
void col2im(const ConvGeometry& geom, const float* col, float* image);

}  // namespace csq

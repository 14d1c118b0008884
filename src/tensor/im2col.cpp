#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace csq {

void ConvGeometry::validate() const {
  CSQ_CHECK(channels > 0 && height > 0 && width > 0)
      << "conv geometry: bad input extents";
  CSQ_CHECK(kernel_h > 0 && kernel_w > 0) << "conv geometry: bad kernel";
  CSQ_CHECK(stride > 0) << "conv geometry: stride must be positive";
  CSQ_CHECK(pad >= 0) << "conv geometry: negative padding";
  CSQ_CHECK(height + 2 * pad >= kernel_h && width + 2 * pad >= kernel_w)
      << "conv geometry: kernel larger than padded input";
}

void im2col(const ConvGeometry& geom, const float* image, float* col) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  const std::int64_t col_cols = out_h * out_w;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    const float* channel = image + c * geom.height * geom.width;
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj, ++row) {
        float* col_row = col + row * col_cols;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * geom.stride - geom.pad + ki;
          float* dst = col_row + oy * out_w;
          if (iy < 0 || iy >= geom.height) {
            std::fill(dst, dst + out_w, 0.0f);
            continue;
          }
          const float* src_row = channel + iy * geom.width;
          // ix = ox*stride - pad + kj; copy the in-bounds middle segment in
          // one pass, zero the out-of-bounds edges.
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * geom.stride - geom.pad + kj;
            dst[ox] = (ix >= 0 && ix < geom.width) ? src_row[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void im2col_u8(const ConvGeometry& geom, const std::uint8_t* image,
               std::uint8_t* col, std::uint8_t pad_code) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  const std::int64_t col_cols = out_h * out_w;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    const std::uint8_t* channel = image + c * geom.height * geom.width;
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj, ++row) {
        std::uint8_t* col_row = col + row * col_cols;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * geom.stride - geom.pad + ki;
          std::uint8_t* dst = col_row + oy * out_w;
          if (iy < 0 || iy >= geom.height) {
            std::fill(dst, dst + out_w, pad_code);
            continue;
          }
          const std::uint8_t* src_row = channel + iy * geom.width;
          if (geom.stride == 1) {
            // Unit stride: ix = ox + kj - pad is contiguous — pad the two
            // border zones and memcpy the in-bounds middle (the inference
            // hot path; bytes make this a single wide copy). Both bounds
            // are clamped into [0, out_w]: a kernel wider than the output
            // grid can push the in-bounds window entirely off either edge.
            const std::int64_t ix0 = kj - geom.pad;
            const std::int64_t begin =
                std::clamp<std::int64_t>(-ix0, 0, out_w);
            const std::int64_t end =
                std::clamp<std::int64_t>(geom.width - ix0, begin, out_w);
            std::fill(dst, dst + begin, pad_code);
            if (end > begin) {
              std::memcpy(dst + begin, src_row + ix0 + begin,
                          static_cast<std::size_t>(end - begin));
            }
            std::fill(dst + end, dst + out_w, pad_code);
            continue;
          }
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * geom.stride - geom.pad + kj;
            dst[ox] =
                (ix >= 0 && ix < geom.width) ? src_row[ix] : pad_code;
          }
        }
      }
    }
  }
}

ConvPackPlan make_conv_pack_plan(const ConvGeometry& geom) {
  geom.validate();
  ConvPackPlan plan;
  plan.geom = geom;
  plan.padded_h = geom.height + 2 * geom.pad;
  plan.padded_w = geom.width + 2 * geom.pad;
  // Factor by factor, so a corrupt extent cannot overflow the product.
  constexpr std::int64_t kMaxBytes = std::int64_t{1} << 31;
  CSQ_CHECK(plan.padded_h < kMaxBytes && plan.padded_w < kMaxBytes &&
            plan.padded_h * plan.padded_w < kMaxBytes &&
            geom.channels < kMaxBytes &&
            plan.padded_size() < kMaxBytes && geom.stride < kMaxBytes)
      << "conv pack plan: padded sample " << geom.channels << "x"
      << plan.padded_h << "x" << plan.padded_w
      << " exceeds int32 offsets";
  plan.tap.reserve(static_cast<std::size_t>(plan.k()));
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj) {
        plan.tap.push_back(static_cast<std::int32_t>(
            (c * plan.padded_h + ki) * plan.padded_w + kj));
      }
    }
  }
  return plan;
}

namespace {

template <typename T>
void pad_sample_as(const ConvPackPlan& plan, const T* image, T* padded,
                   T pad_value) {
  const ConvGeometry& geom = plan.geom;
  const std::int64_t pad = geom.pad;
  const std::int64_t row = plan.padded_w;
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    T* dst = padded + c * plan.padded_h * row;
    std::fill(dst, dst + pad * row, pad_value);
    dst += pad * row;
    const T* src = image + c * geom.height * geom.width;
    for (std::int64_t y = 0; y < geom.height; ++y) {
      std::fill(dst, dst + pad, pad_value);
      std::memcpy(dst + pad, src + y * geom.width,
                  static_cast<std::size_t>(geom.width) * sizeof(T));
      std::fill(dst + pad + geom.width, dst + row, pad_value);
      dst += row;
    }
    std::fill(dst, dst + pad * row, pad_value);
  }
}

}  // namespace

void pad_sample_u8(const ConvPackPlan& plan, const std::uint8_t* image,
                   std::uint8_t* padded, std::uint8_t pad_code) {
  pad_sample_as(plan, image, padded, pad_code);
}

void pad_sample(const ConvPackPlan& plan, const float* image, float* padded) {
  pad_sample_as(plan, image, padded, 0.0f);
}

void col2im(const ConvGeometry& geom, const float* col, float* image) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  const std::int64_t col_cols = out_h * out_w;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    float* channel = image + c * geom.height * geom.width;
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj, ++row) {
        const float* col_row = col + row * col_cols;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * geom.stride - geom.pad + ki;
          if (iy < 0 || iy >= geom.height) continue;
          float* dst_row = channel + iy * geom.width;
          const float* src = col_row + oy * out_w;
          if (geom.stride == 1) {
            // Unit stride: ix = ox + kj - pad, so the in-bounds outputs are
            // one segment [begin, end) — clamped as in im2col_u8 — added
            // with no per-element bounds test (same adds, same order).
            const std::int64_t ix0 = kj - geom.pad;
            const std::int64_t begin =
                std::clamp<std::int64_t>(-ix0, 0, out_w);
            const std::int64_t end =
                std::clamp<std::int64_t>(geom.width - ix0, begin, out_w);
            for (std::int64_t ox = begin; ox < end; ++ox) {
              dst_row[ox + ix0] += src[ox];
            }
            continue;
          }
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * geom.stride - geom.pad + kj;
            if (ix >= 0 && ix < geom.width) dst_row[ix] += src[ox];
          }
        }
      }
    }
  }
}

}  // namespace csq

// Implicit-GEMM convolution tests (tensor/im2col.h ConvPackPlan +
// tensor/gemm.h IntGemmB::conv):
//
//  * packer parity grid — every B micro-panel the integer drivers pack
//    through a conv plan is byte-equal to im2col_u8 followed by the dense
//    pack, and both match the documented K-pair / K-quad layouts, across
//    1/3/5 and rectangular kernels, stride 1/2, pad 0/1/2, non-square
//    inputs, out_w in {4, 5, 7, 16}, K odd / not a multiple of 4 / beyond
//    kGemmKC, and every NR-aligned column offset (the column-split stripe
//    boundaries);
//  * an exact int64 direct-convolution reference for every kernel family
//    (s8u8, split hi/lo s8u8, bit-serial, bit-serial-wide, nibble), serial
//    and under forced row / column / grid task splits.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/packed_weights.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "util/check.h"
#include "util/rng.h"

namespace csq {
namespace {

using runtime::PackedIntWeights;
using runtime::WeightKernel;

std::vector<std::uint8_t> random_bytes(std::int64_t count, Rng& rng) {
  std::vector<std::uint8_t> values(static_cast<std::size_t>(count));
  for (auto& v : values) {
    v = static_cast<std::uint8_t>(rng.uniform(0.0f, 255.99f));
  }
  return values;
}

// The sample the implicit path reads: padded copy when the plan pads.
std::vector<std::uint8_t> padded_sample(const ConvPackPlan& plan,
                                        const std::vector<std::uint8_t>& image,
                                        std::uint8_t pad_code) {
  if (!plan.needs_padding()) return image;
  std::vector<std::uint8_t> padded(
      static_cast<std::size_t>(plan.padded_bytes()));
  pad_sample_u8(plan, image.data(), padded.data(), pad_code);
  return padded;
}

// Geometry with the requested output grid, or validate() == false when the
// kernel/stride/pad combination cannot produce it from a positive input.
bool make_geometry(std::int64_t channels, std::int64_t kernel_h,
                   std::int64_t kernel_w, std::int64_t stride,
                   std::int64_t pad, std::int64_t out_h, std::int64_t out_w,
                   ConvGeometry& geom) {
  geom.channels = channels;
  geom.kernel_h = kernel_h;
  geom.kernel_w = kernel_w;
  geom.stride = stride;
  geom.pad = pad;
  geom.height = (out_h - 1) * stride + kernel_h - 2 * pad;
  geom.width = (out_w - 1) * stride + kernel_w - 2 * pad;
  return geom.height > 0 && geom.width > 0 && pad < kernel_h &&
         pad < kernel_w && geom.out_h() == out_h && geom.out_w() == out_w;
}

// The documented micro-panel layouts, written straight from the column
// matrix: K-pair int16 entry (p, j) at [(p/2)*NR + j]*2 + p%2, K-quad byte
// entry (p, j) at [(p/4)*NR + j]*4 + p%4; zero past n and past kc.
std::vector<std::uint8_t> reference_panel(bool pairs,
                                          const std::vector<std::uint8_t>& col,
                                          std::int64_t n, std::int64_t pc,
                                          std::int64_t j0, std::int64_t kc) {
  const std::int64_t depth = pairs ? (kc + 1) / 2 * 2 : (kc + 3) / 4 * 4;
  if (pairs) {
    std::vector<std::int16_t> panel(static_cast<std::size_t>(depth * kGemmNR),
                                    0);
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t j = 0; j < kGemmNR && j0 + j < n; ++j) {
        panel[static_cast<std::size_t>(((p / 2) * kGemmNR + j) * 2 + p % 2)] =
            col[static_cast<std::size_t>((pc + p) * n + j0 + j)];
      }
    }
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(panel.data());
    return std::vector<std::uint8_t>(bytes, bytes + panel.size() * 2);
  }
  std::vector<std::uint8_t> panel(static_cast<std::size_t>(depth * kGemmNR),
                                  0);
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t j = 0; j < kGemmNR && j0 + j < n; ++j) {
      panel[static_cast<std::size_t>(((p / 4) * kGemmNR + j) * 4 + p % 4)] =
          col[static_cast<std::size_t>((pc + p) * n + j0 + j)];
    }
  }
  return panel;
}

// Packs one panel into a canary-filled buffer; returns the written extent
// and checks the bytes past it were left alone.
std::vector<std::uint8_t> packed_panel(IntKernel kernel, const IntGemmB& b,
                                       std::int64_t n, std::int64_t pc,
                                       std::int64_t j0, std::int64_t kc,
                                       std::size_t extent) {
  std::vector<std::uint8_t> buffer(
      static_cast<std::size_t>(kGemmKC * kGemmNR * 2 + 64), 0xA5);
  gemm_s8u8_pack_b_panel(kernel, b, n, pc, j0, kc, buffer.data());
  for (std::size_t i = extent; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer[i], 0xA5) << "panel overran its extent at byte " << i;
  }
  buffer.resize(extent);
  return buffer;
}

TEST(Int8Gemm, ConvPlanPanelsMatchIm2colThenDensePack) {
  Rng rng(1601);
  struct Kernel {
    std::int64_t h, w;
  };
  const Kernel kernels[] = {{1, 1}, {3, 3}, {5, 5}, {3, 2}};
  // Channels 3 keep K odd (or a non-multiple of 4); 30 pushes the 3x3/5x5
  // depths past kGemmKC (270, 750) and 3x2 to a non-multiple of 4 (180).
  const std::int64_t channels_list[] = {3, 30};
  const std::int64_t out_ws[] = {4, 5, 7, 16};
  int checked = 0;
  for (const Kernel& kernel : kernels) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t pad : {0, 1, 2}) {
        for (const std::int64_t channels : channels_list) {
          for (const std::int64_t out_w : out_ws) {
            ConvGeometry geom;
            // out_h != out_w: non-square inputs throughout.
            if (!make_geometry(channels, kernel.h, kernel.w, stride, pad,
                               /*out_h=*/3, out_w, geom)) {
              continue;
            }
            const std::uint8_t pad_code =
                static_cast<std::uint8_t>(rng.uniform(1.0f, 255.0f));
            const auto image = random_bytes(
                geom.channels * geom.height * geom.width, rng);
            const std::int64_t k = geom.col_rows();
            const std::int64_t n = geom.col_cols();
            std::vector<std::uint8_t> col(static_cast<std::size_t>(k * n));
            im2col_u8(geom, image.data(), col.data(), pad_code);
            const ConvPackPlan plan = make_conv_pack_plan(geom);
            ASSERT_EQ(plan.k(), k);
            ASSERT_EQ(plan.n(), n);
            const auto sample = padded_sample(plan, image, pad_code);
            const IntGemmB conv = IntGemmB::conv(plan, sample.data());
            const IntGemmB dense = IntGemmB::dense(Trans::no, col.data(), n);
            for (const IntKernel layout : {IntKernel::kS8U8,
                                           IntKernel::kLowBit}) {
              const bool pairs = layout == IntKernel::kS8U8;
              for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
                const std::int64_t kc = std::min(kGemmKC, k - pc);
                for (std::int64_t j0 = 0; j0 < n; j0 += kGemmNR) {
                  const auto expected =
                      reference_panel(pairs, col, n, pc, j0, kc);
                  const auto via_plan = packed_panel(layout, conv, n, pc, j0,
                                                     kc, expected.size());
                  const auto via_col = packed_panel(layout, dense, n, pc, j0,
                                                    kc, expected.size());
                  ASSERT_EQ(via_col, expected)
                      << "dense pack k=" << k << " n=" << n << " pc=" << pc
                      << " j0=" << j0 << " pairs=" << pairs;
                  ASSERT_EQ(via_plan, via_col)
                      << "kernel " << kernel.h << "x" << kernel.w
                      << " stride " << stride << " pad " << pad
                      << " channels " << channels << " out_w " << out_w
                      << " pc=" << pc << " j0=" << j0 << " pairs=" << pairs;
                  ++checked;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 500);
}

// acc[o, j] = sum_k plane_code[o, k] * im2col(x)[k, j] with out-of-bounds
// taps reading pad_code — a direct convolution, no im2col involved.
std::vector<std::int64_t> direct_conv_reference(
    const ConvGeometry& geom, const PackedIntWeights& weights,
    const std::vector<std::uint8_t>& image, std::uint8_t pad_code) {
  const std::int64_t rows = weights.rows();
  const std::int64_t out_w = geom.out_w();
  const std::int64_t n = geom.col_cols();
  std::vector<std::int64_t> acc(static_cast<std::size_t>(rows * n), 0);
  for (std::int64_t o = 0; o < rows; ++o) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t oy = j / out_w, ox = j % out_w;
      std::int64_t sum = 0;
      std::int64_t k = 0;
      for (std::int64_t c = 0; c < geom.channels; ++c) {
        for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
          for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj, ++k) {
            const std::int64_t y = oy * geom.stride - geom.pad + ki;
            const std::int64_t x = ox * geom.stride - geom.pad + kj;
            const std::int64_t v =
                (y >= 0 && y < geom.height && x >= 0 && x < geom.width)
                    ? image[static_cast<std::size_t>(
                          (c * geom.height + y) * geom.width + x)]
                    : pad_code;
            const std::int64_t code =
                weights.full_code(o * weights.cols() + k) /
                (std::int64_t{1} << weights.shift());
            sum += code * v;
          }
        }
      }
      acc[static_cast<std::size_t>(o * n + j)] = sum;
    }
  }
  return acc;
}

TEST(LowBitGemm, ImplicitConvMatchesExactReferenceEveryKernelAndSplit) {
  Rng rng(1602);
  struct Family {
    const char* name;
    WeightKernel kernel;
    int bits;
    float magnitude;
    bool force_split;
  };
  const Family families[] = {
      {"s8u8", WeightKernel::kS8U8, 8, 127.0f, false},
      {"s8u8-split", WeightKernel::kS8U8, 8, 255.0f, true},
      {"bitserial", WeightKernel::kBitSerial, 3, 7.0f, false},
      {"bitserial-w16", WeightKernel::kBitSerialWide, 2, 1.0f, false},
      {"nibble", WeightKernel::kNibble, 4, 7.0f, false},
  };
  struct Shape {
    std::int64_t channels, height, width, kernel_h, kernel_w, stride, pad,
        out_channels;
  };
  // Each shape is big enough (2*m*n*k >= 2^18) for the pooled dispatch to
  // fan out; 80 output channels give two MC row tiles for the row split.
  const Shape shapes[] = {
      {8, 16, 13, 3, 3, 1, 1, 80},   // padded 3x3, n = 208
      {12, 21, 17, 3, 2, 2, 1, 72},  // rectangular, strided gather panels
      {40, 9, 7, 1, 1, 1, 0, 72},    // unpadded 1x1 reads the edge itself
      {6, 14, 11, 5, 5, 2, 2, 64},   // 5x5 stride 2, pad 2
      {32, 8, 9, 3, 3, 1, 1, 24},    // K = 288 crosses kGemmKC
  };
  for (const Family& family : families) {
    for (const Shape& shape : shapes) {
      ConvGeometry geom;
      geom.channels = shape.channels;
      geom.height = shape.height;
      geom.width = shape.width;
      geom.kernel_h = shape.kernel_h;
      geom.kernel_w = shape.kernel_w;
      geom.stride = shape.stride;
      geom.pad = shape.pad;
      geom.validate();
      const std::int64_t k = geom.col_rows();
      std::vector<std::int32_t> codes(
          static_cast<std::size_t>(shape.out_channels * k));
      for (auto& code : codes) {
        code = static_cast<std::int32_t>(
            rng.uniform(-family.magnitude, family.magnitude + 0.99f));
        if (family.kernel == WeightKernel::kNibble) {
          code = std::clamp(code, -7, 7);
        }
      }
      if (family.force_split) codes[0] = 255;
      codes[1] |= 1;  // keep the layer shift at 0 so plane == full code
      if (family.kernel == WeightKernel::kBitSerialWide) {
        codes[1] = std::clamp(codes[1], -1, 1);
      }
      const PackedIntWeights weights(codes, 0.01f, family.bits,
                                     shape.out_channels, k, family.kernel);
      ASSERT_EQ(weights.kernel(), family.kernel) << family.name;
      ASSERT_EQ(weights.split(), family.force_split) << family.name;

      const std::uint8_t pad_code = 11;
      const auto image =
          random_bytes(geom.channels * geom.height * geom.width, rng);
      const auto expected =
          direct_conv_reference(geom, weights, image, pad_code);
      const ConvPackPlan plan = make_conv_pack_plan(geom);
      const auto sample = padded_sample(plan, image, pad_code);
      const auto check = [&](bool pooled, GemmSplit split, int ways) {
        std::vector<std::int32_t> acc(expected.size(), -1);
        weights.gemm_conv(plan, sample.data(), acc.data(), pooled, split,
                          ways);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(acc[i], expected[i])
              << family.name << " " << shape.kernel_h << "x"
              << shape.kernel_w << " s" << shape.stride << " p" << shape.pad
              << " pooled=" << pooled << " split=" << static_cast<int>(split)
              << " ways=" << ways << " at " << i;
        }
      };
      check(/*pooled=*/false, GemmSplit::kAuto, 0);
      for (const GemmSplit split :
           {GemmSplit::kRows, GemmSplit::kCols, GemmSplit::kGrid}) {
        for (const int ways : {2, 3, 4}) check(/*pooled=*/true, split, ways);
      }
    }
  }
}

TEST(Int8Gemm, ConvPlanRejectsOffsetsBeyondInt32) {
  ConvGeometry geom;
  geom.channels = 4;
  geom.height = geom.width = 1 << 15;
  geom.kernel_h = geom.kernel_w = 3;
  geom.pad = 1;
  EXPECT_THROW(make_conv_pack_plan(geom), check_error);
}

}  // namespace
}  // namespace csq

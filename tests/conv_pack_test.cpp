// Implicit-GEMM convolution tests (tensor/im2col.h ConvPackPlan +
// tensor/gemm.h IntGemmB::conv / GemmB::conv, nn/conv2d.h):
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
//    and under forced row / column / grid task splits;
//  * the float packer grid — every B micro-panel the float driver packs
//    from a padded batch through a conv plan (forward and transposed dW
//    orientation, 1 and 3 samples) is byte-equal to im2col followed by the
//    dense pack, and the dense pack matches the documented layout;
//  * the Conv2d parity grid — forward byte-equal to per-sample im2col +
//    gemm, input gradient byte-equal to per-sample gemm + col2im, dW against
//    a float64 direct convolution, serial == pooled exactly; plus the
//    stride-1 col2im fast path byte-equal to the per-element loop.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/conv2d.h"
#include "runtime/packed_weights.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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
      static_cast<std::size_t>(plan.padded_size()));
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

// ------------------------------------------------------- float implicit ---

std::vector<float> random_floats(std::int64_t count, Rng& rng) {
  std::vector<float> values(static_cast<std::size_t>(count));
  for (float& v : values) v = rng.uniform(-1.0f, 1.0f);
  return values;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Packs one float micro-panel into a canary-filled buffer; checks nothing
// past kc * kGemmNR floats was written.
std::vector<float> packed_float_panel(const GemmB& b, std::int64_t k,
                                      std::int64_t n, std::int64_t pc,
                                      std::int64_t j0, std::int64_t kc) {
  const float canary = -1234.5f;
  std::vector<float> buffer(static_cast<std::size_t>(kGemmKC * kGemmNR + 16),
                            canary);
  gemm_pack_b_panel(b, k, n, pc, j0, kc, buffer.data());
  for (std::size_t i = static_cast<std::size_t>(kc * kGemmNR);
       i < buffer.size(); ++i) {
    EXPECT_EQ(buffer[i], canary) << "panel overran its extent at " << i;
  }
  buffer.resize(static_cast<std::size_t>(kc * kGemmNR));
  return buffer;
}

TEST(FloatConvGemm, PlanPanelsMatchIm2colThenDensePack) {
  Rng rng(1701);
  struct Kernel {
    std::int64_t h, w;
  };
  const Kernel kernels[] = {{1, 1}, {3, 3}, {5, 5}, {3, 2}};
  int checked = 0;
  for (const Kernel& kernel : kernels) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t pad : {0, 1, 2}) {
        for (const std::int64_t channels : {3, 30}) {
          for (const std::int64_t out_w : {4, 5, 7, 16}) {
            ConvGeometry geom;
            if (!make_geometry(channels, kernel.h, kernel.w, stride, pad,
                               /*out_h=*/3, out_w, geom)) {
              continue;
            }
            const ConvPackPlan plan = make_conv_pack_plan(geom);
            const std::int64_t taps = plan.k();
            const std::int64_t positions = plan.n();
            const std::int64_t sample_numel =
                geom.channels * geom.height * geom.width;
            for (const std::int64_t samples : {1, 3}) {
              const auto images = random_floats(samples * sample_numel, rng);
              // The batch's im2col matrices side by side: taps x
              // (samples * positions), and the padded batch the plan reads.
              const std::int64_t cols = samples * positions;
              std::vector<float> col(static_cast<std::size_t>(taps * cols));
              std::vector<float> one(static_cast<std::size_t>(taps * positions));
              std::vector<float> padded(
                  static_cast<std::size_t>(samples * plan.padded_size()));
              for (std::int64_t s = 0; s < samples; ++s) {
                im2col(geom, images.data() + s * sample_numel, one.data());
                for (std::int64_t t = 0; t < taps; ++t) {
                  std::copy_n(one.data() + t * positions, positions,
                              col.data() + t * cols + s * positions);
                }
                pad_sample(plan, images.data() + s * sample_numel,
                           padded.data() + s * plan.padded_size());
              }
              for (const Trans trans : {Trans::no, Trans::yes}) {
                // Trans::no: op(B) = col (taps x cols); Trans::yes: col^T.
                const std::int64_t k = trans == Trans::no ? taps : cols;
                const std::int64_t n = trans == Trans::no ? cols : taps;
                const GemmB conv = GemmB::conv(plan, padded.data(), trans);
                const GemmB dense = GemmB::dense(trans, col.data(), cols);
                for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
                  const std::int64_t kc = std::min(kGemmKC, k - pc);
                  for (std::int64_t j0 = 0; j0 < n; j0 += kGemmNR) {
                    std::vector<float> expected(
                        static_cast<std::size_t>(kc * kGemmNR), 0.0f);
                    for (std::int64_t p = 0; p < kc; ++p) {
                      for (std::int64_t j = 0; j < kGemmNR && j0 + j < n;
                           ++j) {
                        const std::int64_t row = pc + p, column = j0 + j;
                        expected[static_cast<std::size_t>(p * kGemmNR + j)] =
                            trans == Trans::no
                                ? col[static_cast<std::size_t>(row * cols +
                                                               column)]
                                : col[static_cast<std::size_t>(column * cols +
                                                               row)];
                      }
                    }
                    const auto via_col =
                        packed_float_panel(dense, k, n, pc, j0, kc);
                    const auto via_plan =
                        packed_float_panel(conv, k, n, pc, j0, kc);
                    ASSERT_TRUE(same_bytes(via_col, expected))
                        << "dense pack k=" << k << " n=" << n << " pc=" << pc
                        << " j0=" << j0;
                    ASSERT_TRUE(same_bytes(via_plan, via_col))
                        << "kernel " << kernel.h << "x" << kernel.w
                        << " stride " << stride << " pad " << pad
                        << " channels " << channels << " out_w " << out_w
                        << " samples " << samples << " trans "
                        << (trans == Trans::yes) << " pc=" << pc
                        << " j0=" << j0;
                    ++checked;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 2000);
}

TEST(FloatConvGemm, ConvOperandMustCoverWholeSamples) {
  ConvGeometry geom;
  geom.channels = 2;
  geom.height = 5;
  geom.width = 6;
  geom.kernel_h = geom.kernel_w = 3;
  geom.pad = 1;
  const ConvPackPlan plan = make_conv_pack_plan(geom);
  std::vector<float> padded(static_cast<std::size_t>(2 * plan.padded_size()));
  std::vector<float> a(static_cast<std::size_t>(4 * plan.k()), 1.0f);
  std::vector<float> c(static_cast<std::size_t>(4 * 2 * plan.n()));
  const GemmB conv = GemmB::conv(plan, padded.data());
  // One column short of two samples.
  EXPECT_THROW(gemm_ex(4, 2 * plan.n() - 1, plan.k(), 1.0f,
                       GemmA{a.data(), Trans::no, plan.k(), {}}, conv, 0.0f,
                       GemmC{c.data(), 2 * plan.n(), {}}, nullptr, false),
               check_error);
  // Depth other than the tap count.
  EXPECT_THROW(gemm_ex(4, 2 * plan.n(), plan.k() - 1, 1.0f,
                       GemmA{a.data(), Trans::no, plan.k(), {}}, conv, 0.0f,
                       GemmC{c.data(), 2 * plan.n(), {}}, nullptr, false),
               check_error);
}

// The col2im loop before its stride-1 fast path: every element bounds-
// tested. The fast path must add the same values in the same order.
void col2im_per_element(const ConvGeometry& geom, const float* col,
                        float* image) {
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    float* channel = image + c * geom.height * geom.width;
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj, ++row) {
        const float* col_row = col + row * out_h * out_w;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * geom.stride - geom.pad + ki;
          if (iy < 0 || iy >= geom.height) continue;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * geom.stride - geom.pad + kj;
            if (ix >= 0 && ix < geom.width) {
              channel[iy * geom.width + ix] += col_row[oy * out_w + ox];
            }
          }
        }
      }
    }
  }
}

TEST(FloatConvGemm, Col2imFastPathIsByteEqualToPerElementLoop) {
  Rng rng(1702);
  struct Case {
    std::int64_t height, width, kernel, stride, pad;
  };
  // Includes kernels wider than the output grid (the clamped-off window).
  const Case cases[] = {{7, 10, 3, 1, 1}, {5, 4, 5, 1, 2}, {1, 1, 7, 1, 3},
                        {9, 6, 1, 1, 0}, {4, 3, 3, 1, 2}, {8, 11, 3, 2, 1}};
  for (const Case& tc : cases) {
    ConvGeometry geom;
    geom.channels = 3;
    geom.height = tc.height;
    geom.width = tc.width;
    geom.kernel_h = geom.kernel_w = tc.kernel;
    geom.stride = tc.stride;
    geom.pad = tc.pad;
    geom.validate();
    const auto col = random_floats(geom.col_rows() * geom.col_cols(), rng);
    const auto seed = random_floats(geom.channels * geom.height * geom.width,
                                    rng);
    std::vector<float> fast = seed, reference = seed;
    col2im(geom, col.data(), fast.data());
    col2im_per_element(geom, col.data(), reference.data());
    EXPECT_TRUE(same_bytes(fast, reference))
        << tc.height << "x" << tc.width << " k" << tc.kernel << " s"
        << tc.stride << " p" << tc.pad;
  }
}

// One Conv2d training pass on a captured weight: output, input gradient,
// dW (the capture span) and the bias gradient.
struct ConvPass {
  std::vector<float> out, grad_in, grad_w, grad_b;
};

ConvPass run_conv(Conv2d& conv, const std::vector<float>& weight,
                  const Tensor& input, const Tensor& grad_output) {
  ConvPass pass;
  pass.grad_w.assign(weight.size(), -7.0f);
  conv.set_weight_capture(weight.data(), pass.grad_w.data());
  std::vector<Parameter*> params;
  conv.collect_parameters(params);
  for (Parameter* p : params) p->zero_grad();
  const Tensor out = conv.forward(input, /*training=*/true);
  const Tensor grad_in = conv.backward(grad_output);
  conv.set_weight_capture(nullptr, nullptr);
  pass.out.assign(out.data(), out.data() + out.numel());
  pass.grad_in.assign(grad_in.data(), grad_in.data() + grad_in.numel());
  if (conv.bias_data() != nullptr) {
    const Parameter* bias = params.back();
    pass.grad_b.assign(bias->grad.data(),
                       bias->grad.data() + bias->grad.numel());
  }
  return pass;
}

TEST(FloatConvGemm, Conv2dMatchesIm2colReferenceSerialAndPooled) {
  Rng rng(1703);
  struct Shape {
    std::int64_t channels, out_channels, height, width;
  };
  // Non-square inputs; 30 * 3 * 3 = 270 and 30 * 5 * 5 = 750 push the
  // depth past kGemmKC; 72 output channels give two MC row tiles.
  const Shape shapes[] = {{3, 8, 7, 10}, {30, 24, 6, 5}, {5, 72, 9, 7}};
  int checked = 0;
  for (const Shape& shape : shapes) {
    for (const std::int64_t kernel : {1, 3, 5}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t pad : {0, 1, 2}) {
          ConvGeometry geom;
          geom.channels = shape.channels;
          geom.height = shape.height;
          geom.width = shape.width;
          geom.kernel_h = geom.kernel_w = kernel;
          geom.stride = stride;
          geom.pad = pad;
          if (shape.height + 2 * pad < kernel ||
              shape.width + 2 * pad < kernel) {
            continue;
          }
          const std::int64_t taps = geom.col_rows();
          const std::int64_t positions = geom.col_cols();
          const std::int64_t oc = shape.out_channels;
          const bool bias = kernel == 3;
          Conv2dConfig config;
          config.in_channels = shape.channels;
          config.out_channels = oc;
          config.kernel = kernel;
          config.stride = stride;
          config.pad = pad;
          config.bias = bias;
          Conv2d conv("conv", config, dense_weight_factory(), rng);
          const auto weight = random_floats(oc * taps, rng);
          if (bias) {
            std::vector<Parameter*> params;
            conv.collect_parameters(params);
            Tensor& b = params.back()->value;
            for (std::int64_t i = 0; i < b.numel(); ++i) {
              b.data()[i] = rng.uniform(-1.0f, 1.0f);
            }
          }
          for (const std::int64_t batch : {1, 3, 8}) {
            const std::int64_t sample_numel =
                shape.channels * shape.height * shape.width;
            const Tensor input = [&] {
              Tensor t({batch, shape.channels, shape.height, shape.width});
              for (std::int64_t i = 0; i < t.numel(); ++i) {
                t.data()[i] = rng.uniform(-1.0f, 1.0f);
              }
              return t;
            }();
            const Tensor grad_output = [&] {
              Tensor t({batch, oc, geom.out_h(), geom.out_w()});
              for (std::int64_t i = 0; i < t.numel(); ++i) {
                t.data()[i] = rng.uniform(-1.0f, 1.0f);
              }
              return t;
            }();
            const ConvPass pooled = run_conv(conv, weight, input, grad_output);
            ConvPass serial;
            {
              SerialExecutionGuard guard;
              serial = run_conv(conv, weight, input, grad_output);
            }
            const std::string where =
                "c" + std::to_string(shape.channels) + " oc" +
                std::to_string(oc) + " " + std::to_string(shape.height) +
                "x" + std::to_string(shape.width) + " k" +
                std::to_string(kernel) + " s" + std::to_string(stride) +
                " p" + std::to_string(pad) + " batch " +
                std::to_string(batch);
            ASSERT_TRUE(same_bytes(pooled.out, serial.out)) << where;
            ASSERT_TRUE(same_bytes(pooled.grad_in, serial.grad_in)) << where;
            ASSERT_TRUE(same_bytes(pooled.grad_w, serial.grad_w)) << where;
            ASSERT_TRUE(same_bytes(pooled.grad_b, serial.grad_b)) << where;

            // Forward: per-sample im2col + gemm (+ bias), byte for byte.
            // Input gradient: per-sample gemm + col2im, byte for byte.
            std::vector<float> out(pooled.out.size());
            std::vector<float> grad_in(pooled.grad_in.size(), 0.0f);
            std::vector<float> col(static_cast<std::size_t>(taps * positions));
            for (std::int64_t b = 0; b < batch; ++b) {
              im2col(geom, input.data() + b * sample_numel, col.data());
              float* out_b = out.data() + b * oc * positions;
              gemm(Trans::no, Trans::no, oc, positions, taps, 1.0f,
                   weight.data(), taps, col.data(), positions, 0.0f, out_b,
                   positions);
              if (bias) {
                const float* bv = conv.bias_data();
                for (std::int64_t o = 0; o < oc; ++o) {
                  for (std::int64_t q = 0; q < positions; ++q) {
                    out_b[o * positions + q] += bv[o];
                  }
                }
              }
              gemm(Trans::yes, Trans::no, taps, positions, oc, 1.0f,
                   weight.data(), taps,
                   grad_output.data() + b * oc * positions, positions, 0.0f,
                   col.data(), positions);
              col2im(geom, col.data(), grad_in.data() + b * sample_numel);
            }
            ASSERT_TRUE(same_bytes(pooled.out, out)) << where;
            ASSERT_TRUE(same_bytes(pooled.grad_in, grad_in)) << where;

            // dW and the bias gradient: a float64 direct convolution.
            const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
            for (std::int64_t o = 0; o < oc; ++o) {
              for (std::int64_t t = 0; t < taps; ++t) {
                const std::int64_t c = t / (kernel * kernel);
                const std::int64_t ki = t / kernel % kernel, kj = t % kernel;
                double sum = 0.0, magnitude = 0.0;
                for (std::int64_t b = 0; b < batch; ++b) {
                  for (std::int64_t y = 0; y < out_h; ++y) {
                    for (std::int64_t x = 0; x < out_w; ++x) {
                      const std::int64_t iy = y * stride - pad + ki;
                      const std::int64_t ix = x * stride - pad + kj;
                      if (iy < 0 || iy >= shape.height || ix < 0 ||
                          ix >= shape.width) {
                        continue;
                      }
                      const double term =
                          static_cast<double>(
                              grad_output.data()[((b * oc + o) * out_h + y) *
                                                     out_w +
                                                 x]) *
                          input.data()[b * sample_numel +
                                       (c * shape.height + iy) * shape.width +
                                       ix];
                      sum += term;
                      magnitude += std::fabs(term);
                    }
                  }
                }
                ASSERT_NEAR(pooled.grad_w[static_cast<std::size_t>(
                                o * taps + t)],
                            sum, 1e-5 * magnitude + 1e-6)
                    << where << " dW[" << o << ", " << t << "]";
              }
              if (bias) {
                double sum = 0.0, magnitude = 0.0;
                for (std::int64_t b = 0; b < batch; ++b) {
                  for (std::int64_t q = 0; q < positions; ++q) {
                    const double g =
                        grad_output.data()[(b * oc + o) * positions + q];
                    sum += g;
                    magnitude += std::fabs(g);
                  }
                }
                ASSERT_NEAR(pooled.grad_b[static_cast<std::size_t>(o)], sum,
                            1e-5 * magnitude + 1e-6)
                    << where << " db[" << o << "]";
              }
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
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

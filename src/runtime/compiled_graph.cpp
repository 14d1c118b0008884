#include "runtime/compiled_graph.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "data/dataloader.h"
#include "nn/pooling.h"
#include "runtime/packed_weights.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csq {
namespace runtime {

namespace {

// Activation edge between two ops. u8 edges carry unsigned codes with an
// affine mapping real = scale * (code - zero_point); interior edges are
// post-ReLU so their zero point is 0, the input edge is signed. i32 edges
// carry raw GEMM accumulators whose semantics live in the consuming
// requantization.
struct EdgeData {
  std::int64_t channels = 0;
  std::int64_t height = 1;
  std::int64_t width = 1;
  bool is_acc = false;
  float scale = 0.0f;
  std::int32_t zero_point = 0;
  // Code grid of the edge (largest representable code). Act-quant-pinned
  // edges keep the module's trained 2^bits - 1 grid so the served
  // quantization matches the QAT forward; calibrated edges use the graph's
  // act_bits grid.
  float levels = 0.0f;
  bool scale_fixed = false;  // pinned by an act-quant clip at lowering
  int derived_from = -1;  // pools: same scale as their input edge
  float observed_max = 0.0f;
  float observed_min = 0.0f;
  bool observed = false;
  int slot = -1;  // byte-slot space (u8) or int-slot space (i32)

  std::int64_t per_sample() const { return channels * height * width; }
};

class Op;

}  // namespace

// Everything the ops execute against. Declared as the public Impl so the
// pimpl'd CompiledGraph methods and the (file-local) op classes share it.
struct CompiledGraph::Impl {
  LowerOptions options;
  // The program this graph was replayed from, kept for save_graph /
  // replicate (codes are int32 per weight — comparable to the packed
  // planes). Shared, not owned: replicate() hands every replica the same
  // immutable program, so a shard of N replicas pays for ONE copy.
  std::shared_ptr<const GraphProgram> program;
  std::int64_t levels = 255;  // 2^act_bits - 1

  std::vector<EdgeData> edges;
  std::vector<std::unique_ptr<Op>> ops;
  std::unique_ptr<Workspace> ws;
  int byte_slots_used = 0;
  int int_slots_used = 0;

  std::vector<CompiledGraph::LayerInfo> layer_infos;
  std::vector<const PackedIntWeights*> layer_weights;

  int input_edge = 0;
  std::int64_t out_features = 0;
  bool pooled = true;
  bool scales_final = false;
  std::int64_t prepared_batch = 0;

  // Per-run state.
  std::int64_t batch = 0;
  const Tensor* run_input = nullptr;
  Tensor run_output;

  // Float reference walk (calibration / parity): transient per-edge real
  // values. Only the integer path is allocation-free.
  std::vector<std::vector<float>> float_edges;
  bool calibrating = false;

  std::uint8_t* u8(int edge) {
    const EdgeData& e = edges[static_cast<std::size_t>(edge)];
    return ws->bytes(e.slot, batch * e.per_sample());
  }
  std::int32_t* i32(int edge) {
    const EdgeData& e = edges[static_cast<std::size_t>(edge)];
    return ws->ints(e.slot, batch * e.per_sample());
  }
  float* f32(int edge) {
    const EdgeData& e = edges[static_cast<std::size_t>(edge)];
    std::vector<float>& buffer = float_edges[static_cast<std::size_t>(edge)];
    const auto needed = static_cast<std::size_t>(batch * e.per_sample());
    if (buffer.size() < needed) buffer.resize(needed);
    return buffer.data();
  }

  void record_range(int edge, float lo, float hi) {
    EdgeData& e = edges[static_cast<std::size_t>(edge)];
    if (!e.observed) {
      e.observed_min = lo;
      e.observed_max = hi;
      e.observed = true;
    } else {
      e.observed_min = std::min(e.observed_min, lo);
      e.observed_max = std::max(e.observed_max, hi);
    }
  }

  void check_input(const Tensor& input) const;
  void prepare(std::int64_t new_batch);
  void finalize_scales();
  void run_int_all();
  void run_float_all();
};

namespace {

// Batch loop that is pooled or serial on demand. Integer op bodies are
// order-independent (exact arithmetic, disjoint per-sample outputs), so the
// two modes are bit-identical.
template <typename Ctx>
void for_each_sample(bool pooled, std::int64_t batch, const Ctx& ctx,
                     void (*body)(const Ctx&, std::int64_t)) {
  if (!pooled) {
    for (std::int64_t b = 0; b < batch; ++b) body(ctx, b);
    return;
  }
  struct Shared {
    const Ctx* ctx;
    void (*body)(const Ctx&, std::int64_t);
  } shared{&ctx, body};
  // Single-reference capture keeps the closure inside std::function's
  // small-buffer optimization: no allocation per dispatch.
  parallel_for(0, batch,
               [&shared](std::int64_t b) { shared.body(*shared.ctx, b); });
}

// Round-to-nearest uint8 code with the clamp fused: clamp to [0, levels]
// first, then add-half truncate. Equal to lround-then-clamp on this domain
// (values are non-negative after the clamp) and free of the per-element
// libm call.
inline std::uint8_t round_clamp_code(float value, float levels) {
  value = value < 0.0f ? 0.0f : (value > levels ? levels : value);
  return static_cast<std::uint8_t>(value + 0.5f);
}

// ------------------------------------------------- requantization spans --
//
// The three accumulator-to-code sweeps of the integer path. The AVX2 forms
// process 32 outputs per iteration (convert, FMA, clamp, truncate, pack
// 32->16->8 with a lane-fix permute) — the auto-vectorizer refuses the
// narrowing u8 store chain, and these sweeps are ~20% of the serving
// forward. Scalar tails/fallbacks compute the identical value.

#if defined(__AVX2__)

inline __m256i requant8(__m256i acc, __m256 mul, __m256 add, __m256 levels,
                        __m256 half) {
  __m256 value = _mm256_fmadd_ps(_mm256_cvtepi32_ps(acc), mul, add);
  value = _mm256_min_ps(_mm256_max_ps(value, _mm256_setzero_ps()), levels);
  return _mm256_cvttps_epi32(_mm256_add_ps(value, half));
}

// Packs four 8-lane int32 code vectors (values in [0, 255]) into 32 uint8
// codes in order.
inline __m256i pack32(__m256i q0, __m256i q1, __m256i q2, __m256i q3) {
  const __m256i p01 = _mm256_packs_epi32(q0, q1);
  const __m256i p23 = _mm256_packs_epi32(q2, q3);
  const __m256i packed = _mm256_packus_epi16(p01, p23);
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  return _mm256_permutevar8x32_epi32(packed, order);
}

#endif  // __AVX2__

// out[p] = clamp(round(mul * acc[p] + add)).
inline void requant_span(const std::int32_t* acc, std::uint8_t* out,
                         std::int64_t count, float mul, float add,
                         float levels) {
  std::int64_t p = 0;
#if defined(__AVX2__)
  const __m256 vmul = _mm256_set1_ps(mul);
  const __m256 vadd = _mm256_set1_ps(add);
  const __m256 vlev = _mm256_set1_ps(levels);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  for (; p + 32 <= count; p += 32) {
    const auto* src = reinterpret_cast<const __m256i*>(acc + p);
    const __m256i q0 = requant8(_mm256_loadu_si256(src + 0), vmul, vadd,
                                vlev, vhalf);
    const __m256i q1 = requant8(_mm256_loadu_si256(src + 1), vmul, vadd,
                                vlev, vhalf);
    const __m256i q2 = requant8(_mm256_loadu_si256(src + 2), vmul, vadd,
                                vlev, vhalf);
    const __m256i q3 = requant8(_mm256_loadu_si256(src + 3), vmul, vadd,
                                vlev, vhalf);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p),
                        pack32(q0, q1, q2, q3));
  }
#endif
  for (; p < count; ++p) {
    out[p] = round_clamp_code(mul * static_cast<float>(acc[p]) + add, levels);
  }
}

// out[p] = clamp(round(mul1 * acc1[p] + mul2 * acc2[p] + add)).
inline void join_acc_span(const std::int32_t* acc1, const std::int32_t* acc2,
                          std::uint8_t* out, std::int64_t count, float mul1,
                          float mul2, float add, float levels) {
  std::int64_t p = 0;
#if defined(__AVX2__)
  const __m256 vmul1 = _mm256_set1_ps(mul1);
  const __m256 vmul2 = _mm256_set1_ps(mul2);
  const __m256 vadd = _mm256_set1_ps(add);
  const __m256 vlev = _mm256_set1_ps(levels);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const auto fuse8 = [&](std::int64_t offset) {
    const __m256i a1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc1 + offset));
    const __m256i a2 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc2 + offset));
    const __m256 sum = _mm256_fmadd_ps(
        _mm256_cvtepi32_ps(a1), vmul1,
        _mm256_fmadd_ps(_mm256_cvtepi32_ps(a2), vmul2, vadd));
    const __m256 clamped =
        _mm256_min_ps(_mm256_max_ps(sum, _mm256_setzero_ps()), vlev);
    return _mm256_cvttps_epi32(_mm256_add_ps(clamped, vhalf));
  };
  for (; p + 32 <= count; p += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + p),
        pack32(fuse8(p), fuse8(p + 8), fuse8(p + 16), fuse8(p + 24)));
  }
#endif
  for (; p < count; ++p) {
    const float sum = mul1 * static_cast<float>(acc1[p]) +
                      mul2 * static_cast<float>(acc2[p]) + add;
    out[p] = round_clamp_code(sum, levels);
  }
}

// out[p] = clamp(round(mul1 * acc1[p] + ratio * skip[p] + add)).
inline void join_skip_span(const std::int32_t* acc1, const std::uint8_t* skip,
                           std::uint8_t* out, std::int64_t count, float mul1,
                           float ratio, float add, float levels) {
  std::int64_t p = 0;
#if defined(__AVX2__)
  const __m256 vmul1 = _mm256_set1_ps(mul1);
  const __m256 vratio = _mm256_set1_ps(ratio);
  const __m256 vadd = _mm256_set1_ps(add);
  const __m256 vlev = _mm256_set1_ps(levels);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const auto fuse8 = [&](std::int64_t offset) {
    const __m256i a1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc1 + offset));
    const __m256i s = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(skip + offset)));
    const __m256 sum = _mm256_fmadd_ps(
        _mm256_cvtepi32_ps(a1), vmul1,
        _mm256_fmadd_ps(_mm256_cvtepi32_ps(s), vratio, vadd));
    const __m256 clamped =
        _mm256_min_ps(_mm256_max_ps(sum, _mm256_setzero_ps()), vlev);
    return _mm256_cvttps_epi32(_mm256_add_ps(clamped, vhalf));
  };
  for (; p + 32 <= count; p += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + p),
        pack32(fuse8(p), fuse8(p + 8), fuse8(p + 16), fuse8(p + 24)));
  }
#endif
  for (; p < count; ++p) {
    const float sum = mul1 * static_cast<float>(acc1[p]) +
                      ratio * static_cast<float>(skip[p]) + add;
    out[p] = round_clamp_code(sum, levels);
  }
}

class Op {
 public:
  virtual ~Op() = default;
  virtual const char* kind() const = 0;
  virtual void run_int(CompiledGraph::Impl& g) = 0;
  virtual void run_float(CompiledGraph::Impl& g) = 0;
  // Resolves requantization constants once every edge scale is known.
  virtual void finalize(CompiledGraph::Impl& g) { (void)g; }
  // Frees buffers only the float reference walk needs (re-materialized on
  // demand if another walk runs).
  virtual void release_float_cache() {}
  // Grows op-private scratch for the given batch.
  virtual void prepare(CompiledGraph::Impl& g, std::int64_t batch) {
    (void)g;
    (void)batch;
  }
  // Installs the workspace slot of the op's private scratch buffer (conv
  // padded-sample stripes, the linear accumulator). Called by the buffer planner
  // after the walk; ops without scratch ignore it.
  virtual void set_scratch_slot(int slot) { (void)slot; }
  virtual std::string describe(const CompiledGraph::Impl& g) const = 0;
};

// Dequantized weight matrix for the float reference walk, materialized on
// first use — serving-only graphs (calibrate once, then integer forwards)
// never pay the 4-bytes/weight float copy.
const std::vector<float>& float_weights(const PackedIntWeights& weights,
                                        std::vector<float>& cache) {
  if (cache.empty()) {
    const std::int64_t count = weights.rows() * weights.cols();
    cache.resize(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      cache[static_cast<std::size_t>(i)] = weights.weight(i);
    }
  }
  return cache;
}

std::string edge_string(const CompiledGraph::Impl& g, int edge) {
  const EdgeData& e = g.edges[static_cast<std::size_t>(edge)];
  std::ostringstream out;
  out << "e" << edge << (e.is_acc ? ":i32(" : ":u8(") << e.channels << "x"
      << e.height << "x" << e.width << ")";
  return out.str();
}

// ------------------------------------------------------- quantize input --

class QuantizeInputOp final : public Op {
 public:
  explicit QuantizeInputOp(int out_edge) : out_edge_(out_edge) {}
  const char* kind() const override { return "quantize_input"; }

  void run_int(CompiledGraph::Impl& g) override {
    const EdgeData& e = g.edges[static_cast<std::size_t>(out_edge_)];
    struct Ctx {
      const float* in;
      std::uint8_t* out;
      std::int64_t stride;
      float inv_scale;
      float zp;
      float levels;
    } ctx;
    ctx.in = g.run_input->data();
    ctx.out = g.u8(out_edge_);
    ctx.stride = e.per_sample();
    ctx.inv_scale = 1.0f / e.scale;
    ctx.zp = static_cast<float>(e.zero_point);
    ctx.levels = e.levels;
    for_each_sample(g.pooled, g.batch, ctx, +[](const Ctx& c, std::int64_t b) {
      const float* src = c.in + b * c.stride;
      std::uint8_t* dst = c.out + b * c.stride;
      for (std::int64_t i = 0; i < c.stride; ++i) {
        dst[i] = round_clamp_code(src[i] * c.inv_scale + c.zp, c.levels);
      }
    });
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& e = g.edges[static_cast<std::size_t>(out_edge_)];
    const std::int64_t count = g.batch * e.per_sample();
    const float* src = g.run_input->data();
    float* dst = g.f32(out_edge_);
    std::copy(src, src + count, dst);
    if (g.calibrating) {
      float lo = 0.0f, hi = 0.0f;
      for (std::int64_t i = 0; i < count; ++i) {
        lo = std::min(lo, src[i]);
        hi = std::max(hi, src[i]);
      }
      g.record_range(out_edge_, lo, hi);
    }
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    return std::string("quantize_input -> ") + edge_string(g, out_edge_);
  }

 private:
  int out_edge_;
};

// ------------------------------------------------------------------ conv --

class ConvOp final : public Op {
 public:
  ConvOp(std::string name, int in_edge, int acc_edge, const ConvGeometry& geom,
         PackedIntWeights weights)
      : name_(std::move(name)),
        in_edge_(in_edge),
        acc_edge_(acc_edge),
        plan_(make_conv_pack_plan(geom)),
        weights_(std::move(weights)) {}

  const char* kind() const override { return "conv2d"; }
  const PackedIntWeights& weights() const { return weights_; }
  const std::string& name() const { return name_; }
  void release_float_cache() override {
    float_weights_.clear();
    float_weights_.shrink_to_fit();
  }
  void set_scratch_slot(int slot) override { pad_slot_ = slot; }

  // A padded convolution copies each sample once into a pool_slot() stripe
  // bordered with the edge's pad code (cache-line-rounded stripes); the
  // GEMM then packs its B micro-panels straight from that copy through the
  // plan. Unpadded convolutions read the edge sample itself.
  bool needs_stripes() const { return plan_.needs_padding(); }
  std::int64_t stripe_bytes() const {
    return (plan_.padded_size() + 63) / 64 * 64;
  }

  void prepare(CompiledGraph::Impl& g, std::int64_t batch) override {
    (void)batch;
    if (needs_stripes()) {
      g.ws->bytes(pad_slot_, pool_slot_count() * stripe_bytes());
    }
  }

  void run_int(CompiledGraph::Impl& g) override {
    struct Ctx {
      const ConvPackPlan* plan;
      const PackedIntWeights* w;
      const std::uint8_t* in;
      std::uint8_t* stripes;  // pool_slot() stripes (null when unpadded)
      std::int32_t* acc;
      std::int64_t in_stride, stripe_bytes, acc_stride;
      std::uint8_t pad_code;
      bool gemm_pooled;
    } ctx;
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    ctx.plan = &plan_;
    ctx.w = &weights_;
    ctx.in = g.u8(in_edge_);
    ctx.stripes =
        needs_stripes()
            ? g.ws->bytes(pad_slot_, pool_slot_count() * stripe_bytes())
            : nullptr;
    ctx.acc = g.i32(acc_edge_);
    ctx.in_stride = in.per_sample();
    ctx.stripe_bytes = stripe_bytes();
    ctx.acc_stride =
        g.edges[static_cast<std::size_t>(acc_edge_)].per_sample();
    ctx.pad_code = static_cast<std::uint8_t>(in.zero_point);
    // Parallelism picks the outermost productive level: larger batches
    // split across samples; batches at or below the sample-loop's pooling
    // threshold (kParallelForSerialThreshold) run pooled GEMMs instead so
    // latency-critical small requests still fan out. These GEMMs are the
    // canonical wide-N/small-M shape (m = out_channels, one MC tile; n =
    // spatial positions), so the kAuto split resolves to the column split —
    // a batch-1 conv forward packs and multiplies on the whole pool.
    ctx.gemm_pooled = g.pooled && g.batch <= kParallelForSerialThreshold;
    for_each_sample(g.pooled, g.batch, ctx, +[](const Ctx& c, std::int64_t b) {
      const std::uint8_t* sample = c.in + b * c.in_stride;
      if (c.stripes != nullptr) {
        std::uint8_t* padded = c.stripes + pool_slot() * c.stripe_bytes;
        pad_sample_u8(*c.plan, sample, padded, c.pad_code);
        sample = padded;
      }
      // acc_b(OC, P) = W_codes(OC, K) * im2col(sample)(K, P).
      c.w->gemm_conv(*c.plan, sample, c.acc + b * c.acc_stride,
                     c.gemm_pooled);
    });
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::int64_t k = plan_.k();
    const std::int64_t p = plan_.n();
    const float* src = g.f32(in_edge_);
    float* acc = g.f32(acc_edge_);
    const std::vector<float>& w = float_weights(weights_, float_weights_);
    std::vector<float> col(static_cast<std::size_t>(k * p));
    for (std::int64_t b = 0; b < g.batch; ++b) {
      im2col(plan_.geom, src + b * in.per_sample(), col.data());
      gemm(Trans::no, Trans::no, weights_.rows(), p, k, 1.0f, w.data(), k,
           col.data(), p, 0.0f, acc + b * weights_.rows() * p, p);
    }
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    std::ostringstream out;
    out << "conv2d " << name_ << " " << edge_string(g, in_edge_) << " -> "
        << edge_string(g, acc_edge_) << " [" << weights_.bits() << "b codes"
        << (weights_.split() ? ", split" : "") << ", shift "
        << weights_.shift() << ", " << weights_.kernel_name() << "]";
    return out.str();
  }

 private:
  std::string name_;
  int in_edge_;
  int acc_edge_;
  ConvPackPlan plan_;
  PackedIntWeights weights_;
  std::vector<float> float_weights_;
  int pad_slot_ = -1;
};

// ------------------------------------------------------- requantization --

// One accumulator-to-real recipe: the folded BatchNorm affine, the optional
// convolution bias, and the weight/activation scales of the producing GEMM.
struct AccRequant {
  int acc_edge = -1;
  int in_edge = -1;
  const PackedIntWeights* weights = nullptr;
  std::vector<float> bn_scale, bn_bias;  // empty = identity
  std::vector<float> bias;               // empty = none
  std::int64_t channels = 0;
  std::int64_t plane = 0;  // out_h * out_w
  // Resolved integer-path constants: code = clamp(round(mul*acc + add)).
  std::vector<float> mul, add;

  float bn_a(std::int64_t c) const {
    return bn_scale.empty() ? 1.0f : bn_scale[static_cast<std::size_t>(c)];
  }
  float bn_b(std::int64_t c) const {
    return bn_bias.empty() ? 0.0f : bn_bias[static_cast<std::size_t>(c)];
  }
  float bias_at(std::int64_t c) const {
    return bias.empty() ? 0.0f : bias[static_cast<std::size_t>(c)];
  }

  // Real pre-activation value from the float reference conv output.
  float real_from_float(float conv_value, std::int64_t c) const {
    return bn_a(c) * (conv_value + bias_at(c)) + bn_b(c);
  }

  void resolve(const std::vector<EdgeData>& edges, float out_scale) {
    const EdgeData& in = edges[static_cast<std::size_t>(in_edge)];
    const float step = weights->effective_step();
    const float s_in = in.scale;
    mul.resize(static_cast<std::size_t>(channels));
    add.resize(static_cast<std::size_t>(channels));
    for (std::int64_t c = 0; c < channels; ++c) {
      const float a = bn_a(c);
      const double zp_term =
          static_cast<double>(step) * s_in * in.zero_point *
          static_cast<double>(
              weights->row_code_sums()[static_cast<std::size_t>(c)]);
      mul[static_cast<std::size_t>(c)] = a * step * s_in / out_scale;
      add[static_cast<std::size_t>(c)] = static_cast<float>(
          (a * (bias_at(c) - zp_term) + bn_b(c)) / out_scale);
    }
  }
};

class RequantOp final : public Op {
 public:
  RequantOp(AccRequant main, int out_edge)
      : main_(std::move(main)), out_edge_(out_edge) {}
  const char* kind() const override { return "requant"; }

  void finalize(CompiledGraph::Impl& g) override {
    main_.resolve(g.edges,
                  g.edges[static_cast<std::size_t>(out_edge_)].scale);
  }

  void run_int(CompiledGraph::Impl& g) override {
    struct Ctx {
      const AccRequant* r;
      const std::int32_t* acc;
      std::uint8_t* out;
      std::int64_t stride;
      float levels;
    } ctx;
    ctx.r = &main_;
    ctx.acc = g.i32(main_.acc_edge);
    ctx.out = g.u8(out_edge_);
    ctx.stride = main_.channels * main_.plane;
    ctx.levels = g.edges[static_cast<std::size_t>(out_edge_)].levels;
    for_each_sample(g.pooled, g.batch, ctx, +[](const Ctx& c, std::int64_t b) {
      const std::int32_t* acc = c.acc + b * c.stride;
      std::uint8_t* out = c.out + b * c.stride;
      const std::int64_t plane = c.r->plane;
      for (std::int64_t ch = 0; ch < c.r->channels; ++ch) {
        // The clamp at zero IS the fused ReLU (negative pre-activations
        // fall below code 0 because the output zero point is 0).
        requant_span(acc + ch * plane, out + ch * plane, plane,
                     c.r->mul[static_cast<std::size_t>(ch)],
                     c.r->add[static_cast<std::size_t>(ch)], c.levels);
      }
    });
  }

  void run_float(CompiledGraph::Impl& g) override {
    const float* acc = g.f32(main_.acc_edge);
    float* out = g.f32(out_edge_);
    const std::int64_t stride = main_.channels * main_.plane;
    float edge_max = 0.0f;
    for (std::int64_t b = 0; b < g.batch; ++b) {
      for (std::int64_t ch = 0; ch < main_.channels; ++ch) {
        const std::int64_t base = b * stride + ch * main_.plane;
        for (std::int64_t p = 0; p < main_.plane; ++p) {
          const float y =
              std::max(0.0f, main_.real_from_float(acc[base + p], ch));
          out[base + p] = y;
          edge_max = std::max(edge_max, y);
        }
      }
    }
    if (g.calibrating) g.record_range(out_edge_, 0.0f, edge_max);
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    std::ostringstream out;
    out << "requant" << (main_.bn_scale.empty() ? "" : "+bn") << "+relu "
        << edge_string(g, main_.acc_edge) << " -> "
        << edge_string(g, out_edge_);
    return out.str();
  }

 private:
  AccRequant main_;
  int out_edge_;
};

// Residual join: main accumulator (conv2+bn2) plus either an identity skip
// (u8 edge, re-scaled) or a downsample accumulator (conv+bn), requantized
// through the shared ReLU clamp.
class JoinOp final : public Op {
 public:
  JoinOp(AccRequant main, int skip_edge, int out_edge)
      : main_(std::move(main)), skip_edge_(skip_edge), out_edge_(out_edge) {}
  JoinOp(AccRequant main, AccRequant skip, int out_edge)
      : main_(std::move(main)),
        skip_acc_(std::move(skip)),
        has_skip_acc_(true),
        out_edge_(out_edge) {}

  const char* kind() const override { return "join"; }

  void finalize(CompiledGraph::Impl& g) override {
    const float out_scale =
        g.edges[static_cast<std::size_t>(out_edge_)].scale;
    main_.resolve(g.edges, out_scale);
    if (has_skip_acc_) {
      skip_acc_.resolve(g.edges, out_scale);
    } else {
      const EdgeData& skip = g.edges[static_cast<std::size_t>(skip_edge_)];
      skip_ratio_ = skip.scale / out_scale;
      skip_offset_ = -skip_ratio_ * static_cast<float>(skip.zero_point);
    }
  }

  void run_int(CompiledGraph::Impl& g) override {
    struct Ctx {
      const AccRequant* main;
      const AccRequant* skip_acc;  // null for identity skips
      const std::int32_t* acc1;
      const std::int32_t* acc2;     // skip accumulator (or null)
      const std::uint8_t* skip_u8;  // identity skip codes (or null)
      float skip_ratio;
      float skip_offset;
      std::uint8_t* out;
      std::int64_t stride;
      float levels;
    } ctx;
    ctx.main = &main_;
    ctx.skip_acc = has_skip_acc_ ? &skip_acc_ : nullptr;
    ctx.acc1 = g.i32(main_.acc_edge);
    ctx.acc2 = has_skip_acc_ ? g.i32(skip_acc_.acc_edge) : nullptr;
    ctx.skip_u8 = has_skip_acc_ ? nullptr : g.u8(skip_edge_);
    ctx.skip_ratio = skip_ratio_;
    ctx.skip_offset = skip_offset_;
    ctx.out = g.u8(out_edge_);
    ctx.stride = main_.channels * main_.plane;
    ctx.levels = g.edges[static_cast<std::size_t>(out_edge_)].levels;
    for_each_sample(g.pooled, g.batch, ctx, +[](const Ctx& c, std::int64_t b) {
      const std::int64_t plane = c.main->plane;
      for (std::int64_t ch = 0; ch < c.main->channels; ++ch) {
        const std::int64_t base = b * c.stride + ch * plane;
        const float mul1 = c.main->mul[static_cast<std::size_t>(ch)];
        const float add1 = c.main->add[static_cast<std::size_t>(ch)];
        if (c.skip_acc != nullptr) {
          join_acc_span(c.acc1 + base, c.acc2 + base, c.out + base, plane,
                        mul1, c.skip_acc->mul[static_cast<std::size_t>(ch)],
                        add1 + c.skip_acc->add[static_cast<std::size_t>(ch)],
                        c.levels);
        } else {
          join_skip_span(c.acc1 + base, c.skip_u8 + base, c.out + base,
                         plane, mul1, c.skip_ratio, add1 + c.skip_offset,
                         c.levels);
        }
      }
    });
  }

  void run_float(CompiledGraph::Impl& g) override {
    const float* acc1 = g.f32(main_.acc_edge);
    const float* skip = has_skip_acc_ ? g.f32(skip_acc_.acc_edge)
                                      : g.f32(skip_edge_);
    float* out = g.f32(out_edge_);
    const std::int64_t stride = main_.channels * main_.plane;
    float edge_max = 0.0f;
    for (std::int64_t b = 0; b < g.batch; ++b) {
      for (std::int64_t ch = 0; ch < main_.channels; ++ch) {
        const std::int64_t base = b * stride + ch * main_.plane;
        for (std::int64_t p = 0; p < main_.plane; ++p) {
          const float skip_real =
              has_skip_acc_
                  ? skip_acc_.real_from_float(skip[base + p], ch)
                  : skip[base + p];
          const float y = std::max(
              0.0f,
              main_.real_from_float(acc1[base + p], ch) + skip_real);
          out[base + p] = y;
          edge_max = std::max(edge_max, y);
        }
      }
    }
    if (g.calibrating) g.record_range(out_edge_, 0.0f, edge_max);
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    std::ostringstream out;
    out << "join+relu " << edge_string(g, main_.acc_edge) << " + "
        << (has_skip_acc_ ? edge_string(g, skip_acc_.acc_edge)
                          : edge_string(g, skip_edge_))
        << " -> " << edge_string(g, out_edge_);
    return out.str();
  }

 private:
  AccRequant main_;
  AccRequant skip_acc_;
  bool has_skip_acc_ = false;
  int skip_edge_ = -1;
  float skip_ratio_ = 1.0f;
  float skip_offset_ = 0.0f;
  int out_edge_;
};

// ------------------------------------------------------------- pooling --

class MaxPoolOp final : public Op {
 public:
  MaxPoolOp(int in_edge, int out_edge, const Pool2dConfig& config)
      : in_edge_(in_edge), out_edge_(out_edge), config_(config) {}
  const char* kind() const override { return "maxpool"; }

  void run_int(CompiledGraph::Impl& g) override {
    struct Ctx {
      const MaxPoolOp* op;
      const EdgeData* in_e;
      const EdgeData* out_e;
      const std::uint8_t* in;
      std::uint8_t* out;
    } ctx;
    ctx.op = this;
    ctx.in_e = &g.edges[static_cast<std::size_t>(in_edge_)];
    ctx.out_e = &g.edges[static_cast<std::size_t>(out_edge_)];
    ctx.in = g.u8(in_edge_);
    ctx.out = g.u8(out_edge_);
    for_each_sample(g.pooled, g.batch, ctx, +[](const Ctx& c, std::int64_t b) {
      c.op->pool_sample<std::uint8_t>(*c.in_e, *c.out_e,
                                      c.in + b * c.in_e->per_sample(),
                                      c.out + b * c.out_e->per_sample());
    });
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& out_e = g.edges[static_cast<std::size_t>(out_edge_)];
    const float* in = g.f32(in_edge_);
    float* out = g.f32(out_edge_);
    for (std::int64_t b = 0; b < g.batch; ++b) {
      pool_sample<float>(in_e, out_e, in + b * in_e.per_sample(),
                         out + b * out_e.per_sample());
    }
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    std::ostringstream out;
    out << "maxpool" << config_.kernel_h << "x" << config_.kernel_w << "s"
        << config_.stride;
    if (config_.pad > 0) out << "p" << config_.pad;
    out << " " << edge_string(g, in_edge_) << " -> "
        << edge_string(g, out_edge_);
    return out.str();
  }

 private:
  // Max over the in-bounds window only — padded taps are the implicit -inf
  // of the float module, and the max is order-preserving on codes, so the
  // integer and float walks pick the same taps.
  template <typename T>
  void pool_sample(const EdgeData& in_e, const EdgeData& out_e, const T* in,
                   T* out) const {
    for (std::int64_t c = 0; c < in_e.channels; ++c) {
      const T* plane = in + c * in_e.height * in_e.width;
      T* dst = out + c * out_e.height * out_e.width;
      for (std::int64_t oy = 0; oy < out_e.height; ++oy) {
        for (std::int64_t ox = 0; ox < out_e.width; ++ox) {
          std::int64_t y0, y1, x0, x1;
          config_.window(oy, config_.kernel_h, in_e.height, y0, y1);
          config_.window(ox, config_.kernel_w, in_e.width, x0, x1);
          T best = plane[y0 * in_e.width + x0];
          for (std::int64_t iy = y0; iy < y1; ++iy) {
            for (std::int64_t ix = x0; ix < x1; ++ix) {
              best = std::max(best, plane[iy * in_e.width + ix]);
            }
          }
          dst[oy * out_e.width + ox] = best;
        }
      }
    }
  }

  int in_edge_;
  int out_edge_;
  Pool2dConfig config_;
};

// Average pooling: exact int32 window sums (padded taps contribute the
// input edge's zero-point code — the code of real zero), then one
// requantization back to uint8 with the fixed 1/(kernel_h*kernel_w)
// divisor folded into the scale. The divisor never touches the integer
// sum, so no precision is lost to a pool-time integer division.
class AvgPoolOp final : public Op {
 public:
  AvgPoolOp(int in_edge, int sum_edge, int out_edge,
            const Pool2dConfig& config, bool exclude_pad)
      : in_edge_(in_edge),
        sum_edge_(sum_edge),
        out_edge_(out_edge),
        config_(config),
        exclude_pad_(exclude_pad) {}
  const char* kind() const override { return "avgpool"; }

  void finalize(CompiledGraph::Impl& g) override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& out = g.edges[static_cast<std::size_t>(out_edge_)];
    const auto window =
        static_cast<float>(config_.kernel_h * config_.kernel_w);
    // real mean = in.scale * (sum / divisor - in.zp); code = real/out.scale
    // + out.zp. Derived edges (out == in scale/zp) reduce to sum/divisor.
    // The zero-point term is divisor-free (each window's mean of a constant
    // in.zp is in.zp), so add_ is shared by both divisor policies.
    mul_ = in.scale / (out.scale * window);
    add_ = static_cast<float>(out.zero_point) -
           in.scale * static_cast<float>(in.zero_point) / out.scale;
    if (exclude_pad_) {
      // Per-position divisors: border windows divide by their valid-tap
      // count. Geometry is static, so the constants resolve once here.
      mul_per_pos_.resize(
          static_cast<std::size_t>(out.height * out.width));
      for (std::int64_t oy = 0; oy < out.height; ++oy) {
        for (std::int64_t ox = 0; ox < out.width; ++ox) {
          std::int64_t y0, y1, x0, x1;
          config_.window(oy, config_.kernel_h, in.height, y0, y1);
          config_.window(ox, config_.kernel_w, in.width, x0, x1);
          mul_per_pos_[static_cast<std::size_t>(oy * out.width + ox)] =
              in.scale /
              (out.scale * static_cast<float>((y1 - y0) * (x1 - x0)));
        }
      }
    }
  }

  void run_int(CompiledGraph::Impl& g) override {
    struct Ctx {
      const AvgPoolOp* op;
      const EdgeData* in_e;
      const EdgeData* out_e;
      const std::uint8_t* in;
      std::int32_t* sum;
      std::uint8_t* out;
      std::int32_t pad_code;
      float mul, add, levels;
      bool exclude_pad;
    } ctx;
    ctx.op = this;
    ctx.in_e = &g.edges[static_cast<std::size_t>(in_edge_)];
    ctx.out_e = &g.edges[static_cast<std::size_t>(out_edge_)];
    ctx.in = g.u8(in_edge_);
    ctx.sum = g.i32(sum_edge_);
    ctx.out = g.u8(out_edge_);
    ctx.pad_code = ctx.in_e->zero_point;
    ctx.mul = mul_;
    ctx.add = add_;
    ctx.levels = ctx.out_e->levels;
    ctx.exclude_pad = exclude_pad_;
    for_each_sample(g.pooled, g.batch, ctx, +[](const Ctx& c, std::int64_t b) {
      const std::uint8_t* in = c.in + b * c.in_e->per_sample();
      std::int32_t* sum = c.sum + b * c.out_e->per_sample();
      std::uint8_t* out = c.out + b * c.out_e->per_sample();
      const Pool2dConfig& config = c.op->config_;
      const std::int64_t spatial = c.out_e->height * c.out_e->width;
      std::int64_t index = 0;
      for (std::int64_t ch = 0; ch < c.in_e->channels; ++ch) {
        const std::uint8_t* plane = in + ch * c.in_e->height * c.in_e->width;
        for (std::int64_t oy = 0; oy < c.out_e->height; ++oy) {
          for (std::int64_t ox = 0; ox < c.out_e->width; ++ox, ++index) {
            std::int64_t y0, y1, x0, x1;
            config.window(oy, config.kernel_h, c.in_e->height, y0, y1);
            config.window(ox, config.kernel_w, c.in_e->width, x0, x1);
            std::int32_t acc = 0;
            for (std::int64_t iy = y0; iy < y1; ++iy) {
              for (std::int64_t ix = x0; ix < x1; ++ix) {
                acc += plane[iy * c.in_e->width + ix];
              }
            }
            if (!c.exclude_pad) {
              // count_include_pad: out-of-bounds taps carry the zero-point
              // code (real zero), keeping the divisor fixed at kh*kw.
              const std::int64_t covered = (y1 - y0) * (x1 - x0);
              acc += c.pad_code *
                     static_cast<std::int32_t>(
                         config.kernel_h * config.kernel_w - covered);
            }
            sum[index] = acc;
          }
        }
      }
      if (c.exclude_pad) {
        // Per-position divisor: requantize scalar-wise with the window's
        // own multiplier (shared across channels for each spatial cell).
        const float* mul_pos = c.op->mul_per_pos_.data();
        for (std::int64_t p = 0; p < c.out_e->per_sample(); ++p) {
          out[p] = round_clamp_code(
              mul_pos[p % spatial] * static_cast<float>(sum[p]) + c.add,
              c.levels);
        }
      } else {
        requant_span(sum, out, c.out_e->per_sample(), c.mul, c.add, c.levels);
      }
    });
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& out_e = g.edges[static_cast<std::size_t>(out_edge_)];
    const float* in = g.f32(in_edge_);
    float* out = g.f32(out_edge_);
    const float inv_window =
        1.0f / static_cast<float>(config_.kernel_h * config_.kernel_w);
    for (std::int64_t b = 0; b < g.batch; ++b) {
      const float* src = in + b * in_e.per_sample();
      float* dst = out + b * out_e.per_sample();
      std::int64_t index = 0;
      for (std::int64_t ch = 0; ch < in_e.channels; ++ch) {
        const float* plane = src + ch * in_e.height * in_e.width;
        for (std::int64_t oy = 0; oy < out_e.height; ++oy) {
          for (std::int64_t ox = 0; ox < out_e.width; ++ox, ++index) {
            std::int64_t y0, y1, x0, x1;
            config_.window(oy, config_.kernel_h, in_e.height, y0, y1);
            config_.window(ox, config_.kernel_w, in_e.width, x0, x1);
            float acc = 0.0f;
            for (std::int64_t iy = y0; iy < y1; ++iy) {
              for (std::int64_t ix = x0; ix < x1; ++ix) {
                acc += plane[iy * in_e.width + ix];
              }
            }
            // Pads contribute zero; exclude_pad divides by the valid-tap
            // count instead of the fixed window.
            dst[index] =
                exclude_pad_
                    ? acc / static_cast<float>((y1 - y0) * (x1 - x0))
                    : acc * inv_window;
          }
        }
      }
    }
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    std::ostringstream out;
    out << "avgpool" << config_.kernel_h << "x" << config_.kernel_w << "s"
        << config_.stride;
    if (config_.pad > 0) out << "p" << config_.pad;
    if (exclude_pad_) out << " xpad";
    out << " " << edge_string(g, in_edge_) << " -> "
        << edge_string(g, out_edge_);
    return out.str();
  }

 private:
  int in_edge_;
  int sum_edge_;
  int out_edge_;
  Pool2dConfig config_;
  bool exclude_pad_;
  float mul_ = 0.0f;
  float add_ = 0.0f;
  std::vector<float> mul_per_pos_;  // exclude_pad: per-spatial-cell divisor
};

class GlobalAvgPoolOp final : public Op {
 public:
  GlobalAvgPoolOp(int in_edge, int out_edge)
      : in_edge_(in_edge), out_edge_(out_edge) {}
  const char* kind() const override { return "global_avg_pool"; }

  void run_int(CompiledGraph::Impl& g) override {
    struct Ctx {
      const std::uint8_t* in;
      std::uint8_t* out;
      std::int64_t channels, plane;
    } ctx;
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    ctx.in = g.u8(in_edge_);
    ctx.out = g.u8(out_edge_);
    ctx.channels = in_e.channels;
    ctx.plane = in_e.height * in_e.width;
    for_each_sample(g.pooled, g.batch, ctx, +[](const Ctx& c, std::int64_t b) {
      const std::uint8_t* src = c.in + b * c.channels * c.plane;
      std::uint8_t* dst = c.out + b * c.channels;
      for (std::int64_t ch = 0; ch < c.channels; ++ch) {
        std::int64_t sum = 0;
        const std::uint8_t* plane = src + ch * c.plane;
        for (std::int64_t p = 0; p < c.plane; ++p) sum += plane[p];
        // Integer round-half-up mean; codes are unsigned so this matches
        // round-to-nearest. Same scale as the input edge (derived).
        dst[ch] =
            static_cast<std::uint8_t>((2 * sum + c.plane) / (2 * c.plane));
      }
    });
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::int64_t plane = in_e.height * in_e.width;
    const float* in = g.f32(in_edge_);
    float* out = g.f32(out_edge_);
    for (std::int64_t b = 0; b < g.batch; ++b) {
      for (std::int64_t ch = 0; ch < in_e.channels; ++ch) {
        const float* src = in + (b * in_e.channels + ch) * plane;
        double sum = 0.0;
        for (std::int64_t p = 0; p < plane; ++p) sum += src[p];
        out[b * in_e.channels + ch] =
            static_cast<float>(sum / static_cast<double>(plane));
      }
    }
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    std::ostringstream out;
    out << "global_avg_pool " << edge_string(g, in_edge_) << " -> "
        << edge_string(g, out_edge_);
    return out.str();
  }

 private:
  int in_edge_;
  int out_edge_;
};

// -------------------------------------------------------- dequant output --

// Terminates a conv-head (no-Linear) graph: the last realized uint8 edge —
// a GlobalAvgPool's (C,1,1) feature vector — dequantizes into the float
// output tensor.
class DequantOutputOp final : public Op {
 public:
  explicit DequantOutputOp(int in_edge) : in_edge_(in_edge) {}
  const char* kind() const override { return "dequant_output"; }

  void run_int(CompiledGraph::Impl& g) override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::int64_t features = in.per_sample();
    g.run_output = Tensor::uninitialized({g.batch, features});
    const std::uint8_t* codes = g.u8(in_edge_);
    float* out = g.run_output.data();
    const float scale = in.scale;
    const float zp = static_cast<float>(in.zero_point);
    const std::int64_t count = g.batch * features;
    for (std::int64_t i = 0; i < count; ++i) {
      out[i] = scale * (static_cast<float>(codes[i]) - zp);
    }
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::int64_t features = in.per_sample();
    g.run_output = Tensor::uninitialized({g.batch, features});
    const float* src = g.f32(in_edge_);
    std::copy(src, src + g.batch * features, g.run_output.data());
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    std::ostringstream out;
    out << "dequant_output " << edge_string(g, in_edge_) << " -> f32("
        << in.per_sample() << ")";
    return out.str();
  }

 private:
  int in_edge_;
};

// ---------------------------------------------------------------- linear --

class LinearOp final : public Op {
 public:
  LinearOp(std::string name, int in_edge, PackedIntWeights weights,
           std::vector<float> bias)
      : name_(std::move(name)),
        in_edge_(in_edge),
        weights_(std::move(weights)),
        bias_(std::move(bias)) {}

  const char* kind() const override { return "linear"; }
  const PackedIntWeights& weights() const { return weights_; }
  std::int64_t out_features() const { return weights_.rows(); }
  void release_float_cache() override {
    float_weights_.clear();
    float_weights_.shrink_to_fit();
  }
  void set_scratch_slot(int slot) override { acc_slot_ = slot; }

  void prepare(CompiledGraph::Impl& g, std::int64_t batch) override {
    g.ws->ints(acc_slot_, weights_.rows() * batch);
  }

  void run_int(CompiledGraph::Impl& g) override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::int64_t out_f = weights_.rows();
    const std::int64_t in_f = weights_.cols();
    std::int32_t* acc = g.ws->ints(acc_slot_, out_f * g.batch);
    // acc(OUT, B) = W_codes(OUT, IN) * X^T — the one top-level integer GEMM.
    // n here is the BATCH (kAuto keeps the row split: at batch 1 there is a
    // single output column, so there is nothing for a column split to carve;
    // the head matmul only fans out via its m = OUT row tiles).
    weights_.gemm(Trans::yes, g.batch, g.u8(in_edge_), in_f, acc, g.batch,
                  g.pooled);

    g.run_output = Tensor::uninitialized({g.batch, out_f});
    float* logits = g.run_output.data();
    const float step = weights_.effective_step();
    const float s_in = in.scale;
    const std::int32_t zp = in.zero_point;
    for (std::int64_t o = 0; o < out_f; ++o) {
      const float combined = step * s_in;
      const float offset =
          bias_.empty() ? 0.0f : bias_[static_cast<std::size_t>(o)];
      const std::int64_t zp_correction =
          zp * weights_.row_code_sums()[static_cast<std::size_t>(o)];
      const std::int32_t* row = acc + o * g.batch;
      for (std::int64_t b = 0; b < g.batch; ++b) {
        logits[b * out_f + o] =
            combined * static_cast<float>(static_cast<std::int64_t>(row[b]) -
                                          zp_correction) +
            offset;
      }
    }
  }

  void run_float(CompiledGraph::Impl& g) override {
    const std::int64_t out_f = weights_.rows();
    const std::int64_t in_f = weights_.cols();
    g.run_output = Tensor::uninitialized({g.batch, out_f});
    const std::vector<float>& w = float_weights(weights_, float_weights_);
    gemm(Trans::no, Trans::yes, g.batch, out_f, in_f, 1.0f, g.f32(in_edge_),
         in_f, w.data(), in_f, 0.0f, g.run_output.data(), out_f);
    if (!bias_.empty()) {
      float* logits = g.run_output.data();
      for (std::int64_t b = 0; b < g.batch; ++b) {
        for (std::int64_t o = 0; o < out_f; ++o) {
          logits[b * out_f + o] += bias_[static_cast<std::size_t>(o)];
        }
      }
    }
  }

  std::string describe(const CompiledGraph::Impl& g) const override {
    std::ostringstream out;
    out << "linear " << name_ << " " << edge_string(g, in_edge_)
        << " -> f32(" << weights_.rows() << ") [" << weights_.bits()
        << "b codes" << (weights_.split() ? ", split" : "") << ", "
        << weights_.kernel_name() << "]";
    return out.str();
  }

 private:
  std::string name_;
  int in_edge_;
  PackedIntWeights weights_;
  std::vector<float> float_weights_;
  std::vector<float> bias_;
  int acc_slot_ = -1;
};

}  // namespace

// ------------------------------------------------------------ Impl body --

void CompiledGraph::Impl::check_input(const Tensor& input) const {
  const EdgeData& in_e = edges[static_cast<std::size_t>(input_edge)];
  CSQ_CHECK(input.ndim() == 4 && input.dim(1) == in_e.channels &&
            input.dim(2) == in_e.height && input.dim(3) == in_e.width)
      << "integer graph: input " << input.shape_string()
      << " does not match the compiled (C,H,W)";
}

void CompiledGraph::Impl::prepare(std::int64_t new_batch) {
  if (new_batch <= prepared_batch) return;
  const std::int64_t saved = batch;
  batch = new_batch;
  for (EdgeData& e : edges) {
    if (e.is_acc) {
      ws->ints(e.slot, new_batch * e.per_sample());
    } else {
      ws->bytes(e.slot, new_batch * e.per_sample());
    }
  }
  for (auto& op : ops) op->prepare(*this, new_batch);
  prepared_batch = new_batch;
  batch = saved;
}

void CompiledGraph::Impl::finalize_scales() {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EdgeData& e = edges[i];
    if (e.is_acc || e.scale_fixed || e.derived_from >= 0) continue;
    CSQ_CHECK(e.observed)
        << "integer graph: edge " << i
        << " has no scale — run calibrate() before forward()";
    const float lo = std::min(0.0f, e.observed_min);
    const float hi = std::max({e.observed_max, lo + 1e-6f, 1e-6f});
    e.levels = static_cast<float>(levels);
    e.scale = (hi - lo) / e.levels;
    e.zero_point = static_cast<std::int32_t>(std::clamp<long>(
        std::lround(-lo / e.scale), 0, levels));
  }
  // Pools inherit their input edge's scale and grid (codes pass through).
  for (EdgeData& e : edges) {
    if (e.derived_from >= 0) {
      const EdgeData& base = edges[static_cast<std::size_t>(e.derived_from)];
      e.scale = base.scale;
      e.levels = base.levels;
      e.zero_point = base.zero_point;
    }
  }
  for (auto& op : ops) op->finalize(*this);
  scales_final = true;
}

void CompiledGraph::Impl::run_int_all() {
  prepare(batch);
  for (auto& op : ops) op->run_int(*this);
}

void CompiledGraph::Impl::run_float_all() {
  float_edges.resize(edges.size());
  for (auto& op : ops) op->run_float(*this);
}

// -------------------------------------------------------------- builder --

namespace {

// Replays a recorded GraphProgram into the op list. The conv/bn/relu/
// act-quant run of a plain stack is accumulated as a "pending" accumulator
// and flushed into one RequantOp (or JoinOp at residual joins) when the
// next instruction needs a realized uint8 edge. Consumes only program data
// — never a module — so artifact loading shares this path byte for byte
// with live lowering.
class GraphBuilder {
 public:
  // `mapped` is the borrowed-weight table of an mmap-loaded program (null
  // for regular programs): conv/linear layers then adopt pre-packed views
  // from it, in lowering order, instead of packing from the layer codes.
  GraphBuilder(CompiledGraph::Impl& g, const MappedWeightTable* mapped)
      : g_(g), mapped_(mapped) {
    EdgeData input;
    input.channels = g.options.in_channels;
    input.height = g.options.in_height;
    input.width = g.options.in_width;
    g_.edges.push_back(input);
    g_.input_edge = 0;
    current_edge_ = 0;
    add_op(std::make_unique<QuantizeInputOp>(0), {}, {0});
  }

  // Packs (or borrows) one layer's weights for the replayed conv/linear.
  PackedIntWeights make_packed(const QuantizedLayerExport& layer,
                               const ProgramInstr& instr, std::int64_t rows,
                               std::int64_t cols) {
    if (mapped_ == nullptr) {
      return PackedIntWeights(layer.codes, layer.step(), layer.bits, rows,
                              cols,
                              static_cast<WeightKernel>(instr.kernel_kind));
    }
    CSQ_CHECK(next_mapped_ < mapped_->entries.size())
        << "mmap artifact: weight table holds " << mapped_->entries.size()
        << " entries but the program replays more conv/linear layers";
    const MappedWeightTable::Entry& entry = mapped_->entries[next_mapped_++];
    CSQ_CHECK(entry.rows == rows && entry.cols == cols)
        << "mmap artifact: " << layer.name << " weight extents " << entry.rows
        << "x" << entry.cols << " do not match the replayed layer (" << rows
        << "x" << cols << ")";
    return PackedIntWeights(entry.spans, layer.step(), layer.bits,
                            entry.shift, rows, cols,
                            static_cast<WeightKernel>(instr.kernel_kind));
  }

  void conv(const QuantizedLayerExport& layer, const ProgramInstr& instr) {
    const int in = realize();
    const EdgeData in_e = g_.edges[static_cast<std::size_t>(in)];
    CSQ_CHECK(layer.shape.size() == 4)
        << "lowering " << layer.name << ": conv weights must be rank 4, got "
        << layer.shape.size();
    const std::int64_t out_channels = layer.shape[0];
    const std::int64_t in_channels = layer.shape[1];
    CSQ_CHECK(layer.shape[2] == instr.kernel && layer.shape[3] == instr.kernel)
        << "lowering " << layer.name << ": kernel " << instr.kernel
        << " does not match the weight shape";
    CSQ_CHECK(in_e.channels == in_channels)
        << "lowering " << layer.name << ": edge channels " << in_e.channels
        << " != " << in_channels;
    CSQ_CHECK(instr.bias.empty() ||
              static_cast<std::int64_t>(instr.bias.size()) == out_channels)
        << "lowering " << layer.name << ": bias length mismatch";

    ConvGeometry geom;
    geom.channels = in_channels;
    geom.height = in_e.height;
    geom.width = in_e.width;
    geom.kernel_h = geom.kernel_w = instr.kernel;
    geom.stride = instr.stride;
    geom.pad = instr.pad;
    geom.validate();

    PackedIntWeights packed =
        make_packed(layer, instr, out_channels, geom.col_rows());
    const int acc = new_acc_edge(out_channels, geom.out_h(), geom.out_w());

    auto op = std::make_unique<ConvOp>(layer.name, in, acc, geom,
                                       std::move(packed));
    const ConvOp* raw = op.get();
    record_layer(layer.name, raw->weights());
    const ScratchKind scratch =
        raw->needs_stripes() ? ScratchKind::kByte : ScratchKind::kNone;
    add_op(std::move(op), {in}, {acc}, scratch);

    pending_.active = true;
    pending_.main.acc_edge = acc;
    pending_.main.in_edge = in;
    pending_.main.weights = &raw->weights();
    pending_.main.channels = out_channels;
    pending_.main.plane = geom.out_h() * geom.out_w();
    pending_.main.bias = instr.bias;
  }

  void linear(const QuantizedLayerExport& layer, const ProgramInstr& instr) {
    const int in = realize();
    const EdgeData& in_e = g_.edges[static_cast<std::size_t>(in)];
    CSQ_CHECK(layer.shape.size() == 2)
        << "lowering " << layer.name << ": linear weights must be rank 2, "
        << "got " << layer.shape.size();
    const std::int64_t out_features = layer.shape[0];
    const std::int64_t in_features = layer.shape[1];
    CSQ_CHECK(in_e.per_sample() == in_features)
        << "lowering " << layer.name << ": edge carries " << in_e.per_sample()
        << " values, layer expects " << in_features;
    CSQ_CHECK(g_.out_features == 0)
        << "integer graph: multiple Linear heads are not supported";
    CSQ_CHECK(instr.bias.empty() ||
              static_cast<std::int64_t>(instr.bias.size()) == out_features)
        << "lowering " << layer.name << ": bias length mismatch";

    PackedIntWeights packed =
        make_packed(layer, instr, out_features, in_features);
    auto op = std::make_unique<LinearOp>(layer.name, in, std::move(packed),
                                         instr.bias);
    record_layer(layer.name, op->weights());
    g_.out_features = out_features;
    add_op(std::move(op), {in}, {}, ScratchKind::kInt);
    current_edge_ = -1;  // the graph output is the float logits tensor
  }

  void batchnorm(const ProgramInstr& instr) {
    CSQ_CHECK(pending_.active && pending_.main.bn_scale.empty())
        << "integer graph: batch norm must directly follow a convolution";
    AccRequant& main = pending_.main;
    CSQ_CHECK(static_cast<std::int64_t>(instr.scale.size()) ==
                  main.channels &&
              instr.shift.size() == instr.scale.size())
        << "integer graph: batch-norm channel mismatch";
    main.bn_scale = instr.scale;
    main.bn_bias = instr.shift;
  }

  void relu() {
    CSQ_CHECK(pending_.active)
        << "integer graph: standalone ReLU (without a producing conv/join) "
           "is not supported";
    pending_.relu = true;
  }

  void act_quant(int bits, float clip) {
    CSQ_CHECK(pending_.active)
        << "integer graph: activation quantizer without a producing layer";
    CSQ_CHECK(clip > 0.0f) << "integer graph: non-positive act-quant clip";
    // Serve the module's own grid so the deployed activations match the
    // QAT forward the accuracy was validated on. Grids finer than uint8
    // (bits > 8) degrade to the graph's act_bits grid over the same clip.
    const std::int64_t levels =
        std::min((std::int64_t{1} << bits) - 1, g_.levels);
    pending_.fixed_scale = clip / static_cast<float>(levels);
    pending_.fixed_levels = static_cast<float>(levels);
    pending_.has_fixed_scale = true;
  }

  void pool(const ProgramInstr& instr, bool is_avg) {
    const int in = realize();
    const EdgeData in_e = g_.edges[static_cast<std::size_t>(in)];
    Pool2dConfig config;
    config.kernel_h = instr.kernel;
    config.kernel_w = instr.kernel_w > 0 ? instr.kernel_w : instr.kernel;
    config.stride = instr.stride;
    config.pad = instr.pad;
    config.validate(is_avg ? "avgpool" : "maxpool");
    const std::int64_t out_h = config.out_h(in_e.height);
    const std::int64_t out_w = config.out_w(in_e.width);
    CSQ_CHECK(out_h >= 1 && out_w >= 1)
        << "integer graph: pool window " << config.kernel_h << "x"
        << config.kernel_w << " larger than the " << in_e.height << "x"
        << in_e.width << " feature map";
    const int out = new_u8_edge(in_e.channels, out_h, out_w);
    g_.edges[static_cast<std::size_t>(out)].derived_from = in;
    if (is_avg) {
      const int sum = new_acc_edge(in_e.channels, out_h, out_w);
      add_op(std::make_unique<AvgPoolOp>(in, sum, out, config,
                                         instr.exclude_pad),
             {in}, {sum, out});
    } else {
      add_op(std::make_unique<MaxPoolOp>(in, out, config), {in}, {out});
    }
    current_edge_ = out;
  }

  void global_avg_pool() {
    const int in = realize();
    const EdgeData in_e = g_.edges[static_cast<std::size_t>(in)];
    const int out = new_u8_edge(in_e.channels, 1, 1);
    g_.edges[static_cast<std::size_t>(out)].derived_from = in;
    add_op(std::make_unique<GlobalAvgPoolOp>(in, out), {in}, {out});
    current_edge_ = out;
  }

  void flatten() {
    // Shape bookkeeping only: edges are flat per-sample spans already.
    realize();
  }

  void begin_residual() {
    residual_stack_.push_back(Frame{realize(), {}, false});
  }

  void begin_skip() {
    CSQ_CHECK(!residual_stack_.empty()) << "begin_skip outside a residual";
    Frame& frame = residual_stack_.back();
    CSQ_CHECK(pending_.active && !pending_.relu &&
              !pending_.has_fixed_scale && !frame.main_saved)
        << "integer graph: residual main branch must end in conv(+bn)";
    frame.main = std::move(pending_.main);
    frame.main_saved = true;
    pending_ = Pending{};
    current_edge_ = frame.fork_edge;
  }

  void end_residual() {
    CSQ_CHECK(!residual_stack_.empty()) << "end_residual outside a residual";
    Frame frame = std::move(residual_stack_.back());
    residual_stack_.pop_back();
    CSQ_CHECK(frame.main_saved) << "end_residual without begin_skip";

    Pending join;
    join.active = true;
    join.is_join = true;
    join.main = std::move(frame.main);
    // The float path CHECKs the join shapes at runtime (blocks.cpp); the
    // lowered graph must refuse mismatched branches at compile time — the
    // join op indexes both buffers with the main branch's extents.
    const auto branch_dims = [this](int edge) {
      const EdgeData& e = g_.edges[static_cast<std::size_t>(edge)];
      return std::array<std::int64_t, 3>{e.channels, e.height, e.width};
    };
    const auto main_dims = branch_dims(join.main.acc_edge);
    if (pending_.active) {
      CSQ_CHECK(!pending_.relu)
          << "integer graph: residual skip branch must end in conv(+bn)";
      CSQ_CHECK(branch_dims(pending_.main.acc_edge) == main_dims)
          << "integer graph: residual branch shape mismatch";
      join.skip_is_acc = true;
      join.skip = std::move(pending_.main);
    } else {
      CSQ_CHECK(branch_dims(current_edge_) == main_dims)
          << "integer graph: residual branch shape mismatch";
      join.skip_edge = current_edge_;
    }
    pending_ = std::move(join);
    current_edge_ = -1;
  }

  void finish() {
    CSQ_CHECK(residual_stack_.empty())
        << "integer graph: dangling residual frames after the walk";
    if (g_.out_features == 0) {
      // Conv-head model: no Linear anywhere — a GlobalAvgPool terminates
      // the graph and its (C,1,1) codes dequantize into the float output.
      const int out = realize();
      const EdgeData& e = g_.edges[static_cast<std::size_t>(out)];
      CSQ_CHECK(e.height == 1 && e.width == 1)
          << "integer graph: a model without a Linear head must end in "
             "GlobalAvgPool (last edge is " << e.height << "x" << e.width
          << ")";
      g_.out_features = e.channels;
      add_op(std::make_unique<DequantOutputOp>(out), {out}, {});
    }
    CSQ_CHECK(!pending_.active)
        << "integer graph: dangling un-realized ops after the walk";
    plan_slots();
    const int slots =
        std::max({g_.byte_slots_used, g_.int_slots_used, 1});
    g_.ws = std::make_unique<Workspace>(slots);
  }

 private:
  enum class ScratchKind { kNone, kByte, kInt };

  // Edge traffic of one op, in topological (execution) order — the liveness
  // intervals the buffer planner colors.
  struct OpMeta {
    std::vector<int> reads;
    std::vector<int> writes;
    ScratchKind scratch = ScratchKind::kNone;
  };

  void add_op(std::unique_ptr<Op> op, std::vector<int> reads,
              std::vector<int> writes,
              ScratchKind scratch = ScratchKind::kNone) {
    g_.ops.push_back(std::move(op));
    op_meta_.push_back(OpMeta{std::move(reads), std::move(writes), scratch});
  }

  // Assigns every edge (and op scratch buffer) its workspace slot. Planned
  // mode colors the liveness intervals over the op order: an edge's slot
  // returns to its class free list after the edge's last consumer, and ops'
  // private scratch (conv padded-sample stripes, linear accumulator) lives
  // only for its own op — so all convolutions share one set of stripes.
  // Outputs and scratch of op i never recycle a slot freed AT op i (an op
  // must not write into a buffer it is still reading), which keeps planned
  // and unplanned graphs bit-identical.
  void plan_slots() {
    const int n_ops = static_cast<int>(g_.ops.size());
    if (!g_.options.plan_buffers) {
      // Baseline policy: one dedicated slot per edge / scratch buffer for
      // the graph's lifetime (the memory-regression comparison point).
      for (EdgeData& e : g_.edges) {
        e.slot = e.is_acc ? g_.int_slots_used++ : g_.byte_slots_used++;
      }
      for (int i = 0; i < n_ops; ++i) {
        if (op_meta_[static_cast<std::size_t>(i)].scratch ==
            ScratchKind::kByte) {
          g_.ops[static_cast<std::size_t>(i)]->set_scratch_slot(
              g_.byte_slots_used++);
        } else if (op_meta_[static_cast<std::size_t>(i)].scratch ==
                   ScratchKind::kInt) {
          g_.ops[static_cast<std::size_t>(i)]->set_scratch_slot(
              g_.int_slots_used++);
        }
      }
      return;
    }

    std::vector<int> last(g_.edges.size(), -1);
    for (int i = 0; i < n_ops; ++i) {
      const OpMeta& meta = op_meta_[static_cast<std::size_t>(i)];
      for (const int e : meta.writes) {
        last[static_cast<std::size_t>(e)] = i;
      }
      for (const int e : meta.reads) {
        last[static_cast<std::size_t>(e)] =
            std::max(last[static_cast<std::size_t>(e)], i);
      }
    }
    std::vector<int> free_bytes, free_ints;
    std::vector<char> released(g_.edges.size(), 0);
    const auto take = [](std::vector<int>& free_list, int& used) {
      if (free_list.empty()) return used++;
      const int slot = free_list.back();
      free_list.pop_back();
      return slot;
    };
    for (int i = 0; i < n_ops; ++i) {
      const OpMeta& meta = op_meta_[static_cast<std::size_t>(i)];
      for (const int e : meta.writes) {
        EdgeData& edge = g_.edges[static_cast<std::size_t>(e)];
        CSQ_CHECK(edge.slot < 0) << "buffer plan: edge " << e
                                 << " written by two ops";
        edge.slot = edge.is_acc ? take(free_ints, g_.int_slots_used)
                                : take(free_bytes, g_.byte_slots_used);
      }
      int scratch = -1;
      if (meta.scratch == ScratchKind::kByte) {
        scratch = take(free_bytes, g_.byte_slots_used);
      } else if (meta.scratch == ScratchKind::kInt) {
        scratch = take(free_ints, g_.int_slots_used);
      }
      if (scratch >= 0) {
        g_.ops[static_cast<std::size_t>(i)]->set_scratch_slot(scratch);
      }
      const auto release_dead = [&](int e) {
        if (last[static_cast<std::size_t>(e)] != i ||
            released[static_cast<std::size_t>(e)]) {
          return;
        }
        released[static_cast<std::size_t>(e)] = 1;
        const EdgeData& edge = g_.edges[static_cast<std::size_t>(e)];
        (edge.is_acc ? free_ints : free_bytes).push_back(edge.slot);
      };
      for (const int e : meta.reads) release_dead(e);
      for (const int e : meta.writes) release_dead(e);
      if (meta.scratch == ScratchKind::kByte) {
        free_bytes.push_back(scratch);
      } else if (meta.scratch == ScratchKind::kInt) {
        free_ints.push_back(scratch);
      }
    }
    for (std::size_t e = 0; e < g_.edges.size(); ++e) {
      CSQ_CHECK(g_.edges[e].slot >= 0)
          << "buffer plan: edge " << e << " was never written";
    }
  }

  struct Pending {
    bool active = false;
    bool is_join = false;
    AccRequant main;
    bool skip_is_acc = false;
    AccRequant skip;
    int skip_edge = -1;
    bool relu = false;
    bool has_fixed_scale = false;
    float fixed_scale = 0.0f;
    float fixed_levels = 0.0f;
  };
  struct Frame {
    int fork_edge = -1;
    AccRequant main;
    bool main_saved = false;
  };

  // Edges are created without a workspace slot; plan_slots() assigns them
  // all at finish(), once the full liveness picture exists.
  int new_u8_edge(std::int64_t c, std::int64_t h, std::int64_t w) {
    EdgeData e;
    e.channels = c;
    e.height = h;
    e.width = w;
    g_.edges.push_back(e);
    return static_cast<int>(g_.edges.size()) - 1;
  }

  int new_acc_edge(std::int64_t c, std::int64_t h, std::int64_t w) {
    EdgeData e;
    e.channels = c;
    e.height = h;
    e.width = w;
    e.is_acc = true;
    g_.edges.push_back(e);
    return static_cast<int>(g_.edges.size()) - 1;
  }

  void record_layer(const std::string& name, const PackedIntWeights& w) {
    CompiledGraph::LayerInfo info;
    info.name = name;
    info.bits = w.bits();
    info.split = w.split();
    info.weight_count = w.rows() * w.cols();
    info.storage_bits = w.storage_bits();
    info.kernel = w.kernel_name();
    g_.layer_infos.push_back(std::move(info));
    g_.layer_weights.push_back(&w);
  }

  // Flushes the pending accumulator into a requant/join op and returns the
  // realized uint8 edge the next op consumes.
  int realize() {
    if (!pending_.active) {
      CSQ_CHECK(current_edge_ >= 0)
          << "integer graph: no realized activation edge at this point "
             "(ops after the Linear head are not supported)";
      return current_edge_;
    }
    CSQ_CHECK(pending_.relu)
        << "integer graph: a quantized activation edge requires a fused "
           "ReLU (unsigned codes cannot carry negative pre-activations)";
    const AccRequant& main = pending_.main;
    const EdgeData acc_e =
        g_.edges[static_cast<std::size_t>(main.acc_edge)];
    const int out = new_u8_edge(acc_e.channels, acc_e.height, acc_e.width);
    if (pending_.has_fixed_scale) {
      EdgeData& e = g_.edges[static_cast<std::size_t>(out)];
      e.scale = pending_.fixed_scale;
      e.levels = pending_.fixed_levels;
      e.scale_fixed = true;
    }
    if (pending_.is_join) {
      if (pending_.skip_is_acc) {
        const int main_acc = pending_.main.acc_edge;
        const int skip_acc = pending_.skip.acc_edge;
        add_op(std::make_unique<JoinOp>(std::move(pending_.main),
                                        std::move(pending_.skip), out),
               {main_acc, skip_acc}, {out});
      } else {
        const int main_acc = pending_.main.acc_edge;
        add_op(std::make_unique<JoinOp>(std::move(pending_.main),
                                        pending_.skip_edge, out),
               {main_acc, pending_.skip_edge}, {out});
      }
    } else {
      const int main_acc = pending_.main.acc_edge;
      add_op(std::make_unique<RequantOp>(std::move(pending_.main), out),
             {main_acc}, {out});
    }
    pending_ = Pending{};
    current_edge_ = out;
    return out;
  }

  CompiledGraph::Impl& g_;
  const MappedWeightTable* mapped_ = nullptr;
  std::size_t next_mapped_ = 0;  // borrowed entries consumed so far
  Pending pending_;
  std::vector<Frame> residual_stack_;
  std::vector<OpMeta> op_meta_;  // parallel to g_.ops
  int current_edge_ = -1;
};

}  // namespace

// ------------------------------------------------------- CompiledGraph --

CompiledGraph::CompiledGraph() : impl_(std::make_unique<Impl>()) {}
CompiledGraph::CompiledGraph(CompiledGraph&&) noexcept = default;
CompiledGraph& CompiledGraph::operator=(CompiledGraph&&) noexcept = default;
CompiledGraph::~CompiledGraph() = default;

Tensor CompiledGraph::forward(const Tensor& input) {
  Impl& g = *impl_;
  g.check_input(input);
  if (!g.scales_final) g.finalize_scales();
  g.batch = input.dim(0);
  g.run_input = &input;
  g.run_int_all();
  g.run_input = nullptr;
  return std::move(g.run_output);
}

Tensor CompiledGraph::forward_reference(const Tensor& input) {
  Impl& g = *impl_;
  g.check_input(input);
  g.batch = input.dim(0);
  g.run_input = &input;
  g.run_float_all();
  g.run_input = nullptr;
  return std::move(g.run_output);
}

void CompiledGraph::calibrate(const Tensor& batch) {
  Impl& g = *impl_;
  g.calibrating = true;
  forward_reference(batch);
  g.calibrating = false;
  g.scales_final = false;  // ranges moved; requant constants are stale
  // Serving keeps only the integer workspace; drop the per-edge float
  // buffers and dequantized-weight caches of the calibration walk
  // (forward_reference regrows them on demand).
  g.float_edges.clear();
  g.float_edges.shrink_to_fit();
  for (auto& op : g.ops) op->release_float_cache();
}

void CompiledGraph::prepare(std::int64_t batch) {
  if (!impl_->scales_final) impl_->finalize_scales();
  impl_->prepare(batch);
}

bool CompiledGraph::pooled() const { return impl_->pooled; }

void CompiledGraph::set_pooled(bool pooled) { impl_->pooled = pooled; }

std::uint64_t CompiledGraph::buffer_growth_count() const {
  return impl_->ws->growth_count();
}

std::int64_t CompiledGraph::workspace_bytes() const {
  return impl_->ws->total_bytes();
}

const std::vector<CompiledGraph::LayerInfo>& CompiledGraph::layers() const {
  return impl_->layer_infos;
}

std::int64_t CompiledGraph::weight_storage_bits() const {
  std::int64_t total = 0;
  for (const LayerInfo& info : impl_->layer_infos) {
    total += info.storage_bits;
  }
  return total;
}

Tensor CompiledGraph::dequantized_weights(
    const std::string& layer_name) const {
  for (std::size_t i = 0; i < impl_->layer_infos.size(); ++i) {
    if (impl_->layer_infos[i].name != layer_name) continue;
    const PackedIntWeights& w = *impl_->layer_weights[i];
    Tensor result({w.rows(), w.cols()});
    float* data = result.data();
    for (std::int64_t j = 0; j < w.rows() * w.cols(); ++j) {
      data[j] = w.weight(j);
    }
    return result;
  }
  CSQ_CHECK(false) << "integer graph: no lowered layer named " << layer_name;
  return Tensor();
}

const std::vector<const PackedIntWeights*>&
CompiledGraph::layer_weight_views() const {
  return impl_->layer_weights;
}

std::string CompiledGraph::describe() const {
  std::ostringstream out;
  for (const auto& op : impl_->ops) {
    out << op->describe(*impl_) << "\n";
  }
  return out.str();
}

CompiledGraph::IoShape CompiledGraph::io_shape() const {
  const EdgeData& in =
      impl_->edges[static_cast<std::size_t>(impl_->input_edge)];
  IoShape shape;
  shape.channels = in.channels;
  shape.height = in.height;
  shape.width = in.width;
  shape.out_features = impl_->out_features;
  return shape;
}

const LowerOptions& CompiledGraph::options() const { return impl_->options; }

const GraphProgram& CompiledGraph::program() const {
  return *impl_->program;
}

std::shared_ptr<const GraphProgram> CompiledGraph::shared_program() const {
  return impl_->program;
}

std::vector<EdgeScaleRecord> CompiledGraph::edge_scales() {
  if (!impl_->scales_final) impl_->finalize_scales();
  std::vector<EdgeScaleRecord> records;
  records.reserve(impl_->edges.size());
  for (const EdgeData& e : impl_->edges) {
    EdgeScaleRecord record;
    record.is_acc = e.is_acc;
    if (!e.is_acc) {
      record.scale = e.scale;
      record.levels = e.levels;
      record.zero_point = e.zero_point;
    }
    records.push_back(record);
  }
  return records;
}

void CompiledGraph::restore_edge_scales(
    const std::vector<EdgeScaleRecord>& records) {
  Impl& g = *impl_;
  CSQ_CHECK(records.size() == g.edges.size())
      << "graph artifact: edge count " << records.size()
      << " does not match the program's " << g.edges.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EdgeData& e = g.edges[i];
    const EdgeScaleRecord& record = records[i];
    CSQ_CHECK(record.is_acc == e.is_acc)
        << "graph artifact: edge " << i << " type mismatch";
    if (e.is_acc) continue;
    CSQ_CHECK(record.scale > 0.0f && record.levels >= 1.0f)
        << "graph artifact: edge " << i << " carries an unresolved scale";
    e.scale = record.scale;
    e.levels = record.levels;
    e.zero_point = record.zero_point;
    // Pools keep re-deriving from their input edge (same restored values);
    // every other edge serves the snapshot as a pinned scale.
    if (e.derived_from < 0) e.scale_fixed = true;
  }
  g.scales_final = false;
  g.finalize_scales();
}

CompiledGraph lower(Model& model, const LowerOptions& options) {
  CSQ_CHECK(model.has_root()) << "lower: model has no root module";
  return build_graph(record_program(model), options);
}

namespace {

// Replays `program` into a fresh Impl. Shared by build_graph (which then
// takes ownership of the program) and replicate (which shares the source
// graph's program instead of deep-copying it).
void replay_program(CompiledGraph::Impl& impl, const GraphProgram& program,
                    const LowerOptions& options) {
  CSQ_CHECK(options.act_bits >= 1 && options.act_bits <= 8)
      << "lower: act_bits must be in [1, 8] (codes are stored in uint8)";
  impl.options = options;
  impl.levels = (std::int64_t{1} << options.act_bits) - 1;
  impl.pooled = options.pooled;
  GraphBuilder builder(impl, program.mapped.get());
  const auto layer_of = [&program](const ProgramInstr& instr) ->
      const QuantizedLayerExport& {
    CSQ_CHECK(instr.layer >= 0 &&
              instr.layer < static_cast<std::int32_t>(program.layers.size()))
        << "graph program: instruction references layer " << instr.layer
        << " of " << program.layers.size();
    return program.layers[static_cast<std::size_t>(instr.layer)];
  };
  for (const ProgramInstr& instr : program.instrs) {
    switch (instr.kind) {
      case ProgramInstr::Kind::kConv:
        builder.conv(layer_of(instr), instr);
        break;
      case ProgramInstr::Kind::kLinear:
        builder.linear(layer_of(instr), instr);
        break;
      case ProgramInstr::Kind::kBatchNorm:
        builder.batchnorm(instr);
        break;
      case ProgramInstr::Kind::kRelu:
        builder.relu();
        break;
      case ProgramInstr::Kind::kActQuant:
        builder.act_quant(instr.act_bits, instr.clip);
        break;
      case ProgramInstr::Kind::kMaxPool:
        builder.pool(instr, /*is_avg=*/false);
        break;
      case ProgramInstr::Kind::kAvgPool:
        builder.pool(instr, /*is_avg=*/true);
        break;
      case ProgramInstr::Kind::kGlobalAvgPool:
        builder.global_avg_pool();
        break;
      case ProgramInstr::Kind::kFlatten:
        builder.flatten();
        break;
      case ProgramInstr::Kind::kBeginResidual:
        builder.begin_residual();
        break;
      case ProgramInstr::Kind::kBeginSkip:
        builder.begin_skip();
        break;
      case ProgramInstr::Kind::kEndResidual:
        builder.end_residual();
        break;
      default:
        CSQ_CHECK(false) << "graph program: unknown instruction kind "
                         << static_cast<int>(instr.kind);
    }
  }
  builder.finish();
}

// Per-layer kernel selection, recorded in the program BEFORE replay so the
// persisted artifact (and every replica sharing the program) replays the
// exact same GEMM paths. Instructions that already carry a recorded kind
// (v3 artifacts) keep it; pre-kernel-record programs re-derive the identical
// choice (select_kernel is a pure function of the layer data);
// force_reference_kernel pins everything to the s8u8 baseline.
void resolve_kernel_selection(GraphProgram& program,
                              const LowerOptions& options) {
  // Mmap-loaded programs carry no owned codes to re-derive a selection from
  // — the borrowed panels were packed for the recorded kernels, so the
  // recorded kinds are the only valid replay.
  if (program.mapped != nullptr) {
    CSQ_CHECK(!options.force_reference_kernel)
        << "mmap artifact: force_reference_kernel would mismatch the "
           "borrowed panels; use load_graph for kernel A/B runs";
    for (const ProgramInstr& instr : program.instrs) {
      if (instr.kind != ProgramInstr::Kind::kConv &&
          instr.kind != ProgramInstr::Kind::kLinear) {
        continue;
      }
      CSQ_CHECK(instr.kernel_kind >= 0)
          << "mmap artifact: unresolved kernel kind on a mapped program";
    }
    return;
  }
  for (ProgramInstr& instr : program.instrs) {
    if (instr.kind != ProgramInstr::Kind::kConv &&
        instr.kind != ProgramInstr::Kind::kLinear) {
      continue;
    }
    if (options.force_reference_kernel) {
      instr.kernel_kind = static_cast<std::int32_t>(WeightKernel::kS8U8);
      continue;
    }
    if (instr.kernel_kind >= 0) continue;  // recorded choice wins
    CSQ_CHECK(instr.layer >= 0 &&
              instr.layer < static_cast<std::int32_t>(program.layers.size()))
        << "graph program: instruction references layer " << instr.layer
        << " of " << program.layers.size();
    const QuantizedLayerExport& layer =
        program.layers[static_cast<std::size_t>(instr.layer)];
    std::int64_t cols = 1;
    for (std::size_t d = 1; d < layer.shape.size(); ++d) {
      cols *= layer.shape[d];
    }
    instr.kernel_kind = static_cast<std::int32_t>(
        PackedIntWeights::select_kernel(layer.codes, layer.bits, cols));
  }
}

}  // namespace

CompiledGraph build_graph(GraphProgram program, const LowerOptions& options) {
  CompiledGraph graph;
  resolve_kernel_selection(program, options);
  replay_program(*graph.impl_, program, options);
  graph.impl_->program =
      std::make_shared<const GraphProgram>(std::move(program));
  return graph;
}

CompiledGraph replicate(CompiledGraph& graph) {
  CompiledGraph copy;
  replay_program(*copy.impl_, *graph.impl_->program, graph.options());
  copy.impl_->program = graph.impl_->program;  // shared: no deep copy
  copy.restore_edge_scales(graph.edge_scales());
  return copy;
}

CompiledGraph rebuild_replica(std::shared_ptr<const GraphProgram> program,
                              const LowerOptions& options,
                              const std::vector<EdgeScaleRecord>& records) {
  CSQ_CHECK(program != nullptr) << "rebuild_replica: null program";
  CompiledGraph copy;
  replay_program(*copy.impl_, *program, options);
  copy.impl_->program = std::move(program);  // shared: no deep copy
  copy.restore_edge_scales(records);
  return copy;
}

float evaluate_graph_accuracy(CompiledGraph& graph,
                              const InMemoryDataset& dataset,
                              std::int64_t batch_size) {
  DataLoader loader(dataset, batch_size, /*shuffle=*/false, Rng(1));
  Batch batch;
  std::int64_t correct = 0;
  loader.start_epoch();
  while (loader.next(batch)) {
    const Tensor logits = graph.forward(batch.images);
    const std::int64_t classes = logits.dim(1);
    for (std::int64_t b = 0;
         b < static_cast<std::int64_t>(batch.labels.size()); ++b) {
      if (argmax(logits.data() + b * classes, classes) ==
          batch.labels[static_cast<std::size_t>(b)]) {
        ++correct;
      }
    }
  }
  return 100.0f * static_cast<float>(correct) /
         static_cast<float>(dataset.size());
}

}  // namespace runtime
}  // namespace csq

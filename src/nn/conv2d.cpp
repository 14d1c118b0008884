#include "nn/conv2d.h"

#include "nn/lowering.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace csq {

Conv2d::Conv2d(const std::string& name, const Conv2dConfig& config,
               const WeightSourceFactory& weight_factory, Rng& rng)
    : config_(config), has_bias_(config.bias) {
  CSQ_CHECK(config.in_channels > 0 && config.out_channels > 0)
      << "conv2d: bad channel counts";
  set_name(name);
  const std::int64_t fan_in =
      config.in_channels * config.kernel * config.kernel;
  weight_source_ = weight_factory(
      name,
      {config.out_channels, config.in_channels, config.kernel, config.kernel},
      fan_in, rng);
  if (has_bias_) {
    bias_ = Parameter(name + ".bias", Tensor({config.out_channels}),
                      /*apply_weight_decay=*/false);
  }
}

ConvGeometry Conv2d::geometry_for(const Tensor& input) const {
  CSQ_CHECK(input.ndim() == 4) << "conv2d expects (B,C,H,W), got "
                               << input.shape_string();
  CSQ_CHECK(input.dim(1) == config_.in_channels)
      << "conv2d " << name() << ": input channels " << input.dim(1)
      << " != " << config_.in_channels;
  ConvGeometry geom;
  geom.channels = config_.in_channels;
  geom.height = input.dim(2);
  geom.width = input.dim(3);
  geom.kernel_h = config_.kernel;
  geom.kernel_w = config_.kernel;
  geom.stride = config_.stride;
  geom.pad = config_.pad;
  geom.validate();
  return geom;
}

GemmScratch* Conv2d::gemm_scratch() {
  return inside_parallel_region() ? nullptr : &ws_.gemm_scratch();
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  const ConvGeometry geom = geometry_for(input);
  if (!(plan_.geom == geom)) plan_ = make_conv_pack_plan(geom);
  const std::int64_t batch = input.dim(0);
  const std::int64_t depth = plan_.k();
  const std::int64_t positions = plan_.n();
  const std::int64_t out_c = config_.out_channels;

  const float* w_data = capture_weight_ != nullptr
                            ? capture_weight_
                            : weight_source_->weight(training).data();

  // Pad every sample once: the GEMM's B operand now, backward's dW operand
  // later. Single-reference captures keep the closures allocation-free.
  struct PadContext {
    const ConvPackPlan* plan;
    const float* in_data;
    float* padded;
    std::int64_t in_stride;
  } pctx{&plan_, input.data(),
         ws_.floats(kPaddedSlot, batch * plan_.padded_size()),
         geom.channels * geom.height * geom.width};
  parallel_for(0, batch, [&pctx](std::int64_t b) {
    pad_sample(*pctx.plan, pctx.in_data + b * pctx.in_stride,
               pctx.padded + b * pctx.plan->padded_size());
  });

  // out(OC, B*P) = W(OC, K) * [col_0 | col_1 | ...]: one GEMM whose column
  // (b, q) lands at out[b][oc][q]. Fully overwritten (beta = 0, bias below).
  Tensor output =
      Tensor::uninitialized({batch, out_c, geom.out_h(), geom.out_w()});
  gemm_ex(out_c, batch * positions, depth, 1.0f,
          GemmA{w_data, Trans::no, depth, {}},
          GemmB::conv(plan_, pctx.padded), 0.0f,
          GemmC{output.data(), positions, {positions, out_c * positions}},
          gemm_scratch(), /*pooled=*/true);

  if (has_bias_) {
    struct BiasContext {
      float* out_data;
      const float* bias;
      std::int64_t out_c, positions;
    } bctx{output.data(), bias_.value.data(), out_c, positions};
    parallel_for(0, batch, [&bctx](std::int64_t b) {
      for (std::int64_t oc = 0; oc < bctx.out_c; ++oc) {
        float* plane =
            bctx.out_data + (b * bctx.out_c + oc) * bctx.positions;
        const float bias_oc = bctx.bias[oc];
        for (std::int64_t p = 0; p < bctx.positions; ++p) plane[p] += bias_oc;
      }
    });
  }

  cached_batch_ = training ? batch : 0;
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  CSQ_CHECK(cached_batch_ > 0)
      << "conv2d " << name() << ": backward without training forward";
  const ConvGeometry& geom = plan_.geom;
  const std::int64_t batch = cached_batch_;
  const std::int64_t depth = plan_.k();
  const std::int64_t positions = plan_.n();
  const std::int64_t out_c = config_.out_channels;

  CSQ_CHECK(grad_output.ndim() == 4 && grad_output.dim(0) == batch &&
            grad_output.dim(1) == out_c &&
            grad_output.dim(2) == geom.out_h() &&
            grad_output.dim(3) == geom.out_w())
      << "conv2d " << name() << ": grad_output shape "
      << grad_output.shape_string() << " mismatch";

  const Tensor* weights = capture_weight_ != nullptr
                             ? nullptr
                             : &weight_source_->weight(/*training=*/true);
  const float* w_data = weights != nullptr ? weights->data() : capture_weight_;

  // ---- input gradient: batch-parallel col2im(W^T * dOut_b) -------------
  // Zero-filled construction: col2im scatter-adds into its sample slice.
  Tensor grad_input({batch, geom.channels, geom.height, geom.width});

  // Per-slot grad_col stripes and GEMM scratch when the batch fans out; one
  // stripe (and the thread's own scratch) when it runs on this thread.
  const bool fan_out = !inside_parallel_region();
  ws_.reserve_slot_gemm(depth, positions, out_c);
  struct InputGradContext {
    Workspace* ws;
    const ConvGeometry* geom;
    const float* w_data;
    const float* go_data;
    float* gi_data;
    float* grad_col_base;
    bool per_slot;
    std::int64_t out_stride, col_stride, in_stride;
    std::int64_t out_c, depth, positions;
  } ictx;
  ictx.ws = &ws_;
  ictx.geom = &geom;
  ictx.w_data = w_data;
  ictx.go_data = grad_output.data();
  ictx.gi_data = grad_input.data();
  ictx.grad_col_base = ws_.floats(
      kGradColSlot, (fan_out ? pool_slot_count() : 1) * depth * positions);
  ictx.per_slot = fan_out;
  ictx.out_stride = out_c * positions;
  ictx.col_stride = depth * positions;
  ictx.in_stride = geom.channels * geom.height * geom.width;
  ictx.out_c = out_c;
  ictx.depth = depth;
  ictx.positions = positions;

  parallel_for(0, batch, [&ictx](std::int64_t b) {
    float* grad_col = ictx.grad_col_base +
                      (ictx.per_slot ? pool_slot() : 0) * ictx.col_stride;
    // grad_col(K, P) = W^T(K, OC) * dOut_b(OC, P); A = W stored (OC, K).
    gemm(Trans::yes, Trans::no, ictx.depth, ictx.positions, ictx.out_c, 1.0f,
         ictx.w_data, ictx.depth, ictx.go_data + b * ictx.out_stride,
         ictx.positions, 0.0f, grad_col, ictx.positions,
         ictx.ws->slot_gemm_scratch());
    col2im(*ictx.geom, grad_col, ictx.gi_data + b * ictx.in_stride);
  });

  // ---- weight gradient: one GEMM, the batch folded into its depth -------
  // dW(OC, K) = dOut(OC, B*P) * [col_0 | col_1 | ...]^T, B read from the
  // padded batch the forward kept. Lands in the workspace staging tensor,
  // or straight in the capture span (beta = 0 overwrites either).
  Tensor* grad_weight = capture_grad_ != nullptr
                            ? nullptr
                            : &ws_.tensor(kGradWeightSlot, weights->shape());
  const float* padded = ws_.floats(kPaddedSlot, batch * plan_.padded_size());
  gemm_ex(out_c, depth, batch * positions, 1.0f,
          GemmA{grad_output.data(), Trans::no, positions,
                {positions, out_c * positions}},
          GemmB::conv(plan_, padded, Trans::yes), 0.0f,
          GemmC{grad_weight != nullptr ? grad_weight->data() : capture_grad_,
                depth, {}},
          gemm_scratch(), /*pooled=*/true);

  if (has_bias_) {
    // Each channel sums its dOut planes over the batch in a fixed order, so
    // pooled and serial execution agree.
    struct BiasGradContext {
      const float* go_data;
      float* gb_data;
      std::int64_t batch, out_c, positions;
    } bctx{grad_output.data(), bias_.grad.data(), batch, out_c, positions};
    parallel_for(0, out_c, [&bctx](std::int64_t oc) {
      float acc = 0.0f;
      for (std::int64_t b = 0; b < bctx.batch; ++b) {
        const float* plane =
            bctx.go_data + (b * bctx.out_c + oc) * bctx.positions;
        for (std::int64_t p = 0; p < bctx.positions; ++p) acc += plane[p];
      }
      bctx.gb_data[oc] += acc;
    });
  }
  if (grad_weight != nullptr) weight_source_->backward(*grad_weight);

  cached_batch_ = 0;
  return grad_input;
}

void Conv2d::set_weight_capture(const float* weight,
                                float* grad_weight_out) {
  CSQ_CHECK((weight == nullptr) == (grad_weight_out == nullptr))
      << "conv2d " << name() << ": weight capture needs both spans or none";
  capture_weight_ = weight;
  capture_grad_ = grad_weight_out;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  weight_source_->collect_parameters(out);
  if (has_bias_) out.push_back(&bias_);
}

void Conv2d::lower(GraphLowering& lowering) { lowering.lower_conv2d(*this); }

}  // namespace csq

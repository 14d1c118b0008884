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

Tensor Conv2d::forward(const Tensor& input, bool training) {
  const ConvGeometry geom = geometry_for(input);
  const std::int64_t batch = input.dim(0);
  const std::int64_t col_rows = geom.col_rows();
  const std::int64_t col_cols = geom.col_cols();
  const std::int64_t out_c = config_.out_channels;

  const float* w_data = capture_weight_ != nullptr
                            ? capture_weight_
                            : weight_source_->weight(training).data();

  // Fully overwritten below (im2col + beta=0 GEMM + bias add).
  Tensor output =
      Tensor::uninitialized({batch, out_c, geom.out_h(), geom.out_w()});
  // Training caches the whole unfolded batch for backward (memory:
  // B * K * OH*OW floats, recycled across steps). Eval never reads the
  // columns back, so it uses small per-thread stripes instead of pinning a
  // batch-sized buffer in the grow-once arena (think batch-256 validation
  // passes between batch-8 training steps).
  float* col_data = training
                        ? ws_.tensor(kColsSlot, {batch, col_rows, col_cols})
                              .data()
                        : ws_.floats(kEvalColSlot,
                                     pool_slot_count() * col_rows * col_cols);

  ws_.reserve_slot_gemm(out_c, col_cols, col_rows);
  struct ForwardContext {
    Workspace* ws;
    ConvGeometry geom;
    const float* in_data;
    float* out_data;
    float* col_data;
    const float* w_data;
    const float* bias;  // null when the layer has no bias
    std::int64_t in_stride, out_stride, col_stride;
    std::int64_t out_c, col_rows, col_cols;
    bool batch_cols;  // col_data indexed by sample (true) or pool slot
  } ctx;
  ctx.ws = &ws_;
  ctx.geom = geom;
  ctx.in_data = input.data();
  ctx.out_data = output.data();
  ctx.col_data = col_data;
  ctx.w_data = w_data;
  ctx.bias = has_bias_ ? bias_.value.data() : nullptr;
  ctx.in_stride = geom.channels * geom.height * geom.width;
  ctx.out_stride = out_c * col_cols;
  ctx.col_stride = col_rows * col_cols;
  ctx.out_c = out_c;
  ctx.col_rows = col_rows;
  ctx.col_cols = col_cols;
  ctx.batch_cols = training;

  // Single-reference capture keeps the closure inside std::function's
  // small-buffer optimization (no allocation per dispatch). The bias add is
  // folded into the batch-parallel region instead of a serial post-pass.
  parallel_for(0, batch, [&ctx](std::int64_t b) {
    float* col =
        ctx.col_data +
        (ctx.batch_cols ? b : pool_slot()) * ctx.col_stride;
    im2col(ctx.geom, ctx.in_data + b * ctx.in_stride, col);
    float* out_b = ctx.out_data + b * ctx.out_stride;
    // out_b(OC, P) = W(OC, K) * col(K, P)
    gemm(Trans::no, Trans::no, ctx.out_c, ctx.col_cols, ctx.col_rows, 1.0f,
         ctx.w_data, ctx.col_rows, col, ctx.col_cols, 0.0f, out_b,
         ctx.col_cols, ctx.ws->slot_gemm_scratch());
    if (ctx.bias != nullptr) {
      for (std::int64_t oc = 0; oc < ctx.out_c; ++oc) {
        float* plane = out_b + oc * ctx.col_cols;
        const float bias_oc = ctx.bias[oc];
        for (std::int64_t p = 0; p < ctx.col_cols; ++p) plane[p] += bias_oc;
      }
    }
  });

  if (training) {
    cached_geom_ = geom;
    cached_batch_ = batch;
  } else {
    cached_batch_ = 0;
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  CSQ_CHECK(cached_batch_ > 0)
      << "conv2d " << name() << ": backward without training forward";
  const ConvGeometry geom = cached_geom_;
  const std::int64_t batch = cached_batch_;
  const std::int64_t col_rows = geom.col_rows();
  const std::int64_t col_cols = geom.col_cols();
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
  const Tensor& cols = ws_.peek(kColsSlot);

  // ---- input gradient: batch-parallel col2im(W^T * dOut_b) -------------
  // Zero-filled construction: col2im scatter-adds into its sample slice.
  Tensor grad_input({batch, geom.channels, geom.height, geom.width});

  // Both parallel regions below run serial GEMMs on per-slot scratch.
  ws_.reserve_slot_gemm(col_rows, col_cols, out_c);
  ws_.reserve_slot_gemm(out_c, col_rows, col_cols);
  struct InputGradContext {
    Workspace* ws;
    ConvGeometry geom;
    const float* w_data;
    const float* go_data;
    float* gi_data;
    float* grad_col_base;  // pool_slot_count() stripes of col_stride floats
    std::int64_t out_stride, col_stride, in_stride;
    std::int64_t out_c, col_rows, col_cols;
  } ictx;
  ictx.ws = &ws_;
  ictx.geom = geom;
  ictx.w_data = weights != nullptr ? weights->data() : capture_weight_;
  ictx.go_data = grad_output.data();
  ictx.gi_data = grad_input.data();
  ictx.grad_col_base =
      ws_.floats(kGradColSlot, pool_slot_count() * col_rows * col_cols);
  ictx.out_stride = out_c * col_cols;
  ictx.col_stride = col_rows * col_cols;
  ictx.in_stride = geom.channels * geom.height * geom.width;
  ictx.out_c = out_c;
  ictx.col_rows = col_rows;
  ictx.col_cols = col_cols;

  parallel_for(0, batch, [&ictx](std::int64_t b) {
    float* grad_col = ictx.grad_col_base + pool_slot() * ictx.col_stride;
    // grad_col(K, P) = W^T(K, OC) * dOut_b(OC, P); A = W stored (OC, K).
    gemm(Trans::yes, Trans::no, ictx.col_rows, ictx.col_cols, ictx.out_c,
         1.0f, ictx.w_data, ictx.col_rows, ictx.go_data + b * ictx.out_stride,
         ictx.col_cols, 0.0f, grad_col, ictx.col_cols,
         ictx.ws->slot_gemm_scratch());
    col2im(ictx.geom, grad_col, ictx.gi_data + b * ictx.in_stride);
  });

  // ---- weight + bias gradients: OC-parallel over disjoint row blocks ----
  // dW lands in the workspace staging tensor, or straight in the capture
  // span (every row block's b == 0 GEMM overwrites, so neither is cleared).
  Tensor* grad_weight = capture_grad_ != nullptr
                            ? nullptr
                            : &ws_.tensor(kGradWeightSlot, weights->shape());

  struct WeightGradContext {
    Workspace* ws;
    const float* go_data;
    const float* col_data;
    float* gw_data;
    float* gb_data;  // null when the layer has no bias
    std::int64_t batch, out_stride, col_stride;
    std::int64_t col_rows, col_cols;
  } wctx;
  wctx.ws = &ws_;
  wctx.go_data = grad_output.data();
  wctx.col_data = cols.data();
  wctx.gw_data =
      grad_weight != nullptr ? grad_weight->data() : capture_grad_;
  wctx.gb_data = has_bias_ ? bias_.grad.data() : nullptr;
  wctx.batch = batch;
  wctx.out_stride = out_c * col_cols;
  wctx.col_stride = col_rows * col_cols;
  wctx.col_rows = col_rows;
  wctx.col_cols = col_cols;

  parallel_for_chunked(0, out_c, [&wctx](std::int64_t oc_begin,
                                         std::int64_t oc_end) {
    const std::int64_t rows = oc_end - oc_begin;
    for (std::int64_t b = 0; b < wctx.batch; ++b) {
      // gW[oc,:] += dot(dOut_b[oc,:], col_b[k,:]) — NT over the row block.
      gemm(Trans::no, Trans::yes, rows, wctx.col_rows, wctx.col_cols, 1.0f,
           wctx.go_data + b * wctx.out_stride + oc_begin * wctx.col_cols,
           wctx.col_cols, wctx.col_data + b * wctx.col_stride, wctx.col_cols,
           b == 0 ? 0.0f : 1.0f, wctx.gw_data + oc_begin * wctx.col_rows,
           wctx.col_rows, wctx.ws->slot_gemm_scratch());
    }
    if (wctx.gb_data != nullptr) {
      // Bias gradient folded into the same disjoint OC ownership: each
      // channel sums its dOut plane over the batch in a fixed order, so
      // pooled and serial execution agree.
      for (std::int64_t oc = oc_begin; oc < oc_end; ++oc) {
        float acc = 0.0f;
        for (std::int64_t b = 0; b < wctx.batch; ++b) {
          const float* plane =
              wctx.go_data + b * wctx.out_stride + oc * wctx.col_cols;
          for (std::int64_t p = 0; p < wctx.col_cols; ++p) acc += plane[p];
        }
        wctx.gb_data[oc] += acc;
      }
    }
  });
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

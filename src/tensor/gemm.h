// Single-precision general matrix multiply.
//
//   C = alpha * op(A) * op(B) + beta * C
//
// Row-major storage with explicit leading dimensions (BLAS-style). Three
// transpose combinations are implemented — NN, NT and TN — which cover every
// use in the library (forward, input-gradient and weight-gradient of Linear
// and Conv2d).
//
// op(B) comes from one of two sources (GemmB): a dense matrix, or the
// im2col matrices of a batch of padded samples that are never materialized
// — the packer reads each micro-panel straight from the samples through a
// ConvPackPlan (tensor/im2col.h), the implicit GEMM of Chetlur et al.,
// "cuDNN: Efficient Primitives for Deep Learning" (arXiv:1410.0759). With
// a ColumnFold on A's depth or on C's columns the batch folds into one GEMM
// dimension: Conv2d runs its forward as one GEMM with n = batch x positions
// and its dW as one GEMM with depth = batch x positions. `gemm`,
// `gemm_parallel` and `gemm_ex` all run the same blocked driver.
//
// Blocking scheme (GotoBLAS/BLIS-style, single precision):
//
//   for jc in N step kNC:                column panel of C / B
//     for pc in K step kKC:              depth panel (beta applied at pc==0)
//       pack op(B)[pc:pc+kc, jc:jc+nc]   -> B~  (NR-wide micro-panels, L2/L3)
//       for ic in M step kMC:            row panel of C / A
//         pack op(A)[ic:ic+mc, pc:pc+kc] -> A~  (MR-tall micro-panels, L1/L2)
//         for jr, ir over the panel:     kMR x kNR register micro-kernel
//
// The micro-kernel keeps a kMR x kNR accumulator tile in registers and
// streams the packed panels, so every loaded cache line is used kMR (or kNR)
// times; edge tiles are zero-padded during packing and written back through
// bounds-checked tails. All three transpose variants route through the same
// packed kernel — only the pack routines differ. Packing scratch lives in
// thread-local grow-once buffers (or a caller-provided GemmScratch), so
// steady-state calls perform no heap allocations.
//
// Determinism contract: for fixed operands, `gemm` and `gemm_parallel`
// produce BIT-IDENTICAL results regardless of thread count OR split mode.
// The parallel path distributes whole tiles of C across the pool — MC row
// tiles (the classic split), NR-aligned column stripes (wide-N/small-M
// shapes), or a 2-D (row tile x column stripe) grid; each C element is
// owned by exactly one tile, and the per-element accumulation order
// (pc-panel order, then packed-k order inside the micro-kernel) is a
// function of the blocking constants only — never of the thread count or
// of which split carved the tile. Column stripes are NR-aligned, so every
// packed B micro-panel holds exactly the columns the serial sweep packs.
// The tier-1 GEMM parity tests assert this with exact equality.
//
// `gemm` is strictly serial so it can run inside batch-parallel loops;
// `gemm_parallel` fans out across the global thread pool and is used at top
// level (Linear layers, benchmark kernels); `gemm_ex` takes every operand
// form and either mode (Conv2d).
#pragma once

#include <cstdint>
#include <vector>

namespace csq {

enum class Trans { no, yes };

// Register micro-tile (rows x cols of C held in accumulators) and the cache
// blocking constants. kMC/kKC size the packed A panel for L2 (64 KiB), kKC *
// kNC bounds the packed B panel (1 MiB); all are multiples of the micro-tile
// so packing never splits a micro-panel.
constexpr std::int64_t kGemmMR = 8;
constexpr std::int64_t kGemmNR = 8;
constexpr std::int64_t kGemmMC = 64;
constexpr std::int64_t kGemmKC = 256;
constexpr std::int64_t kGemmNC = 1024;

// How the pooled drivers carve C's tile grid across the thread pool. Every
// mode yields bit-identical results (see the determinism contract above);
// the choice only affects which shapes actually fan out.
//
//  * kRows: MC row tiles — the classic split. Best when m spans several MC
//    blocks; degenerates to serial for m <= kGemmMC (one tile).
//  * kCols: NR-aligned column stripes. Each task owns a stripe of C columns
//    and runs the full pc depth loop itself, packing op(B) for its stripe
//    into a per-slot region of the packed-B scratch (`pool_slot()` indexed,
//    one stripe region per pool slot — the pool runs one top-level task
//    graph at a time, so slots are never shared). The split wide-N/small-M
//    shapes (Linear heads, batch-1 conv GEMMs) need.
//  * kGrid: 2-D (row tile group x column stripe) grid for shapes big in
//    both dimensions when neither 1-D split alone fills the pool.
//  * kAuto: `gemm_choose_split` picks by shape — see its comment.
enum class GemmSplit { kAuto = -1, kRows = 0, kCols = 1, kGrid = 2 };

// Shape policy for GemmSplit::kAuto with `ways` workers (0 = pool width):
// row tiles >= ways -> kRows (classic split already fills the pool);
// otherwise a single row tile -> kCols; otherwise kGrid. Exposed so tests
// and the bench can pin the policy (an m<=kGemmMC wide-N GEMM must never
// fall back to the serial row branch).
GemmSplit gemm_choose_split(std::int64_t m, std::int64_t n, int ways);

// Number of independent tasks the pooled driver schedules for this shape
// under `split` (kAuto resolved first) with `ways` workers. 1 means the
// work runs on the calling thread — the regression tests pin that wide-N
// shapes with m as small as 1 still report > 1.
std::int64_t gemm_split_task_count(GemmSplit split, std::int64_t m,
                                   std::int64_t n, int ways);

// Reusable packing scratch. Grow-once: buffers expand to the largest panel
// seen and are then recycled, so a layer that owns a GemmScratch performs
// zero steady-state allocations. When no scratch is supplied the kernels use
// the calling thread's thread-local instance (also grow-once). Pooled runs
// carve pool_slot()-indexed stripes for the per-task A panels (and, for the
// column-split/grid paths, the per-task B panels) out of the one scratch and
// size them on the calling thread before fanning out, so a pool thread never
// grows storage of its own.
struct GemmScratch {
  std::vector<float> packed_a;  // kMC x kKC panel, MR-tall micro-panels
  std::vector<float> packed_b;  // kKC x kNC panel, NR-wide micro-panels
};

// Grows `scratch` to what one serial `gemm` call of this shape packs, so a
// per-slot scratch sized before a parallel region never grows inside it.
void gemm_scratch_reserve(GemmScratch& scratch, std::int64_t m,
                          std::int64_t n, std::int64_t k);

void gemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, GemmScratch* scratch = nullptr);

// `split` picks the tile decomposition (kAuto resolves by shape);
// `split_ways` forces the decomposition width (0 = pool thread count) so
// tests and benches can exercise 2/4/8-way grids on any machine — the
// result is bit-identical either way, only the task grid changes.
void gemm_parallel(Trans trans_a, Trans trans_b, std::int64_t m,
                   std::int64_t n, std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc,
                   GemmScratch* scratch = nullptr,
                   GemmSplit split = GemmSplit::kAuto, int split_ways = 0);

struct ConvPackPlan;  // tensor/im2col.h

// A batch folded into the columns of a row-major operand: column x of the
// logical matrix is column x % cols of block x / cols, the blocks `stride`
// floats apart (rows stay `ld` apart inside every block). An NCHW tensor
// (B, R, P) seen as one R x (B*P) matrix is {P, R*P} with ld = P.
// cols == 0: no fold, column x at offset x.
struct ColumnFold {
  std::int64_t cols = 0;
  std::int64_t stride = 0;
};

// op(A): dense; `fold` (Trans::no only) folds its columns — the depth.
struct GemmA {
  const float* data = nullptr;
  Trans trans = Trans::no;
  std::int64_t lda = 0;
  ColumnFold fold;
};

// op(B): a dense matrix (trans, ldb), or the im2col matrices of consecutive
// padded samples (plan.padded_size() floats each, padded with 0.0f by
// pad_sample) read through `plan`: side by side, k() x (samples * n()), for
// Trans::no; stacked, (samples * n()) x k(), for Trans::yes.
struct GemmB {
  const float* data = nullptr;
  Trans trans = Trans::no;
  std::int64_t ldb = 0;
  const ConvPackPlan* plan = nullptr;

  static GemmB dense(Trans trans, const float* b, std::int64_t ldb) {
    return GemmB{b, trans, ldb, nullptr};
  }
  static GemmB conv(const ConvPackPlan& plan, const float* padded,
                    Trans trans = Trans::no) {
    return GemmB{padded, trans, 0, &plan};
  }
};

// C: dense, `fold` folds its columns.
struct GemmC {
  float* data = nullptr;
  std::int64_t ldc = 0;
  ColumnFold fold;
};

// C = alpha * op(A) * op(B) + beta * C over any operand form. `pooled`
// fans out as gemm_parallel does (only when the shape is worth it and the
// caller is not inside a parallel region); otherwise the call is serial.
void gemm_ex(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const GemmA& a, const GemmB& b, float beta, const GemmC& c,
             GemmScratch* scratch, bool pooled,
             GemmSplit split = GemmSplit::kAuto, int split_ways = 0);

// The B micro-panel the float driver hands its micro-kernel for a (k x n)
// op(B): depth rows pc..pc+kc (kc <= kGemmKC) of columns j0..j0+kGemmNR
// (j0 a multiple of kGemmNR), kc * kGemmNR floats with columns past n
// zero. Exposed so the implicit-GEMM packer can be checked byte for byte
// against im2col + the dense packer.
void gemm_pack_b_panel(const GemmB& b, std::int64_t k, std::int64_t n,
                       std::int64_t pc, std::int64_t j0, std::int64_t kc,
                       float* dst);

// ------------------------------------------------- integer (serving) GEMM --
//
//   C(m, n) int32  =  alpha * A(m, k) int8  *  op(B)(k, n) uint8   [+ C]
//
// The fixed-point inference kernel: A holds int8 weight codes, B holds
// unsigned 8-bit activation codes, accumulation is exact int32. Headroom is
// TIGHT, not ample: the runtime's split-plane chaining (alpha=2 on a hi
// plane reaching -128, plus the lo pass) costs up to 65535 per depth step,
// so exactness requires k <= 32767 — enforced by PackedIntWeights, and a
// bound any alpha/code-range extension must re-derive. A is packed into the
// kernel's micro-panel layout once per weight matrix (prepacked); B is
// packed one kKC x NR micro-panel at a time, on the stack of the task that
// consumes it, right before the micro-kernel sweeps every row panel of the
// task against it — so the integer drivers need no packed-B scratch and
// never allocate. Panels are widened to int16 during packing (K-PAIR
// layout) so the micro-kernel runs convert-multiply-accumulate on full
// vectors. Integer arithmetic is associative and every C element is owned
// by exactly one task, so serial and pooled execution are bit-identical by
// construction (and asserted by the runtime parity tests).
//
// `accumulate` == false overwrites C, true adds into it — the runtime's
// split-plane weights (codes beyond +/-127 decomposed as 2*hi + lo) chain
// two calls: alpha=2 overwrite, alpha=1 accumulate.
//
// B comes from one of two sources (IntGemmB): a dense (k x n) matrix op(B),
// or a convolution's im2col matrix that is never materialized — the packer
// reads each micro-panel straight from one (padded) input sample through a
// ConvPackPlan, as the float GemmB::conv does. A is always prepacked
// (gemm_s8u8_pack_a and the low-bit/nibble packers below).

// Weight matrices are static at serving time: pack A into the kernel's
// micro-panel layout ONCE (all KC-depth blocks, MR-tall panels) and reuse it
// across every forward. `gemm_s8u8_packed_a_size` gives the required int16
// element count; the prepacked variants then skip the per-call A packing.
std::int64_t gemm_s8u8_packed_a_size(std::int64_t m, std::int64_t k);

void gemm_s8u8_pack_a(std::int64_t m, std::int64_t k, const std::int8_t* a,
                      std::int64_t lda, std::int16_t* packed);

void gemm_s8u8_prepacked(Trans trans_b, std::int64_t m, std::int64_t n,
                         std::int64_t k, std::int32_t alpha,
                         const std::int16_t* packed_a, const std::uint8_t* b,
                         std::int64_t ldb, bool accumulate, std::int32_t* c,
                         std::int64_t ldc);

void gemm_s8u8_prepacked_parallel(Trans trans_b, std::int64_t m,
                                  std::int64_t n, std::int64_t k,
                                  std::int32_t alpha,
                                  const std::int16_t* packed_a,
                                  const std::uint8_t* b, std::int64_t ldb,
                                  bool accumulate, std::int32_t* c,
                                  std::int64_t ldc,
                                  GemmSplit split = GemmSplit::kAuto,
                                  int split_ways = 0);

// --------------------------------------------- sub-byte (low-bit) GEMM ----
//
// Precision-specialized variants of the s8u8 path for layers whose weight
// codes fit well under 8 bits. All of them keep raw 8-bit operands in the
// packed panels (half the panel bandwidth of the widened int16 layout above)
// laid out in K-QUADS: depth steps 4q..4q+3 sit adjacent per row/column, so
// the AVX2 micro-kernels fuse four depth steps with one vpmaddubsw +
// vpmaddwd. vpmaddubsw saturates its int16 pair sums, so exactness requires
// |a| <= 64 per weight code (255 * (|a0| + |a1|) <= 32767); the low-bit pack
// routine enforces that bound. Results are EXACTLY the int32 products the
// reference s8u8 kernel produces, and the serial/pooled bit-identity
// contract carries over unchanged (same KC depth blocking, same task grid).
//
// Three flavors:
//  * low-bit ("bit-serial collapsed"): A packed as raw int8 quads. Twice
//    the per-instruction MAC throughput of the widened baseline. Weight
//    codes |a| <= 64. The power-of-two bit-plane combination of the
//    runtime's bit-serial layers happens at pack time (exact shifts);
//    per-plane passes can still be chained through `alpha` (|alpha| <= 8,
//    covering 2^t plane weights for t <= 3) and `accumulate`. The combined
//    headroom bound is the caller's contract: |alpha| * k * 255 * max|a|
//    must stay below 2^31.
//  * low-bit WIDE (int16 accumulators): same packed layout; the micro-kernel
//    accumulates vpmaddubsw results in int16 lanes across a whole KC-depth
//    block and widens once at the end — three times the baseline MAC
//    throughput. Only exact when `gemm_s8u8_wide_eligible` holds for the
//    layer's depth and max |code| (binary +/-1 layers always qualify).
//  * nibble: A packed two codes per byte (signed range [-8, 7]), unpacked
//    inside the micro-kernel — one quarter of the baseline A-panel traffic
//    for 4-bit-and-below layers.
std::int64_t gemm_s8u8_lowbit_packed_a_size(std::int64_t m, std::int64_t k);

void gemm_s8u8_lowbit_pack_a(std::int64_t m, std::int64_t k,
                             const std::int8_t* a, std::int64_t lda,
                             std::int8_t* packed);

std::int64_t gemm_s8u8_nibble_packed_a_size(std::int64_t m, std::int64_t k);

void gemm_s8u8_nibble_pack_a(std::int64_t m, std::int64_t k,
                             const std::int8_t* a, std::int64_t lda,
                             std::uint8_t* packed);

// True when int16 accumulation over one KC-depth block cannot overflow for
// reduction depth k and weight codes bounded by max_abs_a: the per-lane sum
// is at most quad_kc(min(k, kKC)) / 2 * 255 * max_abs_a <= 32767.
bool gemm_s8u8_wide_eligible(std::int64_t k, std::int32_t max_abs_a);

void gemm_s8u8_lowbit_prepacked(Trans trans_b, std::int64_t m, std::int64_t n,
                                std::int64_t k, std::int32_t alpha,
                                const std::int8_t* packed_a,
                                const std::uint8_t* b, std::int64_t ldb,
                                bool accumulate, std::int32_t* c,
                                std::int64_t ldc);

void gemm_s8u8_lowbit_prepacked_parallel(Trans trans_b, std::int64_t m,
                                         std::int64_t n, std::int64_t k,
                                         std::int32_t alpha,
                                         const std::int8_t* packed_a,
                                         const std::uint8_t* b,
                                         std::int64_t ldb, bool accumulate,
                                         std::int32_t* c, std::int64_t ldc,
                                         GemmSplit split = GemmSplit::kAuto,
                                         int split_ways = 0);

void gemm_s8u8_lowbit_wide_prepacked(Trans trans_b, std::int64_t m,
                                     std::int64_t n, std::int64_t k,
                                     std::int32_t alpha,
                                     const std::int8_t* packed_a,
                                     const std::uint8_t* b, std::int64_t ldb,
                                     bool accumulate, std::int32_t* c,
                                     std::int64_t ldc);

void gemm_s8u8_lowbit_wide_prepacked_parallel(
    Trans trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
    std::int32_t alpha, const std::int8_t* packed_a, const std::uint8_t* b,
    std::int64_t ldb, bool accumulate, std::int32_t* c, std::int64_t ldc,
    GemmSplit split = GemmSplit::kAuto, int split_ways = 0);

void gemm_s8u8_nibble_prepacked(Trans trans_b, std::int64_t m, std::int64_t n,
                                std::int64_t k, std::int32_t alpha,
                                const std::uint8_t* packed_a,
                                const std::uint8_t* b, std::int64_t ldb,
                                bool accumulate, std::int32_t* c,
                                std::int64_t ldc);

void gemm_s8u8_nibble_prepacked_parallel(Trans trans_b, std::int64_t m,
                                         std::int64_t n, std::int64_t k,
                                         std::int32_t alpha,
                                         const std::uint8_t* packed_a,
                                         const std::uint8_t* b,
                                         std::int64_t ldb, bool accumulate,
                                         std::int32_t* c, std::int64_t ldc,
                                         GemmSplit split = GemmSplit::kAuto,
                                         int split_ways = 0);

// ------------------------------------------- one entry, either B source ---

// The micro-kernel family a prepacked A panel set belongs to: kS8U8 panels
// come from gemm_s8u8_pack_a (int16), kLowBit/kLowBitWide from
// gemm_s8u8_lowbit_pack_a (int8), kNibble from gemm_s8u8_nibble_pack_a.
enum class IntKernel { kS8U8, kLowBit, kLowBitWide, kNibble };

// The B operand: a dense matrix op(B) = b (trans, ldb), or the im2col
// matrix of `sample` (padded as `plan` requires, see ConvPackPlan) read
// through the plan — k = plan.k(), n = plan.n().
struct IntGemmB {
  const std::uint8_t* data = nullptr;
  Trans trans = Trans::no;
  std::int64_t ldb = 0;
  const ConvPackPlan* plan = nullptr;

  static IntGemmB dense(Trans trans, const std::uint8_t* b, std::int64_t ldb) {
    return IntGemmB{b, trans, ldb, nullptr};
  }
  static IntGemmB conv(const ConvPackPlan& plan, const std::uint8_t* sample) {
    return IntGemmB{sample, Trans::no, 0, &plan};
  }
};

// C(m, n) = alpha * A * B [+ C] through `kernel`'s micro-kernel. `pooled`
// fans the (row tile x column stripe) task grid out over the pool when the
// shape is worth it and the caller is not already inside a parallel region;
// `split`/`split_ways` pick the grid as for the entry points above. Same
// alpha / depth contract as the family's prepacked entry points.
void gemm_s8u8_packed(IntKernel kernel, std::int64_t m, std::int64_t n,
                      std::int64_t k, std::int32_t alpha,
                      const void* packed_a, const IntGemmB& b,
                      bool accumulate, std::int32_t* c, std::int64_t ldc,
                      bool pooled, GemmSplit split = GemmSplit::kAuto,
                      int split_ways = 0);

// The B micro-panel the drivers hand `kernel`'s micro-kernel: depth rows
// pc..pc+kc (kc <= kGemmKC) of columns j0..j0+kGemmNR (j0 a multiple of
// kGemmNR; columns past n and the pair/quad depth tail are zero). kS8U8
// writes paired_kc(kc) * kGemmNR int16 values to `dst`, the quad kernels
// quad_kc(kc) * kGemmNR bytes. Exposed so the implicit-GEMM packer can be
// checked byte for byte against im2col + the dense packer.
void gemm_s8u8_pack_b_panel(IntKernel kernel, const IntGemmB& b,
                            std::int64_t n, std::int64_t pc, std::int64_t j0,
                            std::int64_t kc, void* dst);

}  // namespace csq

#include "tensor/gemm.h"

#include <algorithm>

#include <cstring>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "tensor/im2col.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace csq {

namespace {

static_assert(kGemmMC % kGemmMR == 0, "MC must be a multiple of MR");
static_assert(kGemmNC % kGemmNR == 0, "NC must be a multiple of NR");

// Per-thread packing scratch for callers that do not supply one. Pool worker
// threads are long-lived, so each buffer grows to its steady-state size once
// and is then recycled forever.
GemmScratch& local_scratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

void ensure_size(std::vector<float>& buffer, std::size_t count) {
  if (buffer.size() < count) buffer.resize(count);
}

// Scales a row block of C by beta (handles beta == 0 without reading C).
void apply_beta(std::int64_t m_begin, std::int64_t m_end, std::int64_t n,
                float beta, float* c, std::int64_t ldc) {
  if (beta == 1.0f) return;
  for (std::int64_t i = m_begin; i < m_end; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(row, row + n, 0.0f);
    } else {
      for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// ----------------------------------------------------- tile-grid split ----
//
// Task decomposition for the column-split (kCols) and 2-D-grid (kGrid)
// pooled paths, shared by the float and integer drivers. The C tile grid is
// carved into row_groups x col_stripes tasks: each task owns a disjoint
// block of C (a contiguous run of MC row tiles x one NR-aligned column
// stripe) and runs the full ascending pc depth loop itself, packing op(B)
// for its stripe itself (float: into a per-slot region of the shared
// packed-B scratch; integer: one micro-panel at a time on its stack).
//
// Bit-identity argument (extends the row-split one):
//  * Ownership: every C element belongs to exactly one (row tile, column
//    stripe) pair — no write conflicts, no order dependence across tasks.
//  * Identical packed panels: stripe boundaries are NR-aligned, and the
//    serial sweep also carves B into NR-wide micro-panels from NR-aligned
//    offsets (kGemmNC is a multiple of kGemmNR), so each micro-panel a task
//    packs holds exactly the bytes the serial pack produces for those
//    columns — zero-padding happens only at the true matrix edge either way.
//  * Identical per-element op order: each task visits pc panels in the same
//    ascending order as the serial loop (beta / accumulate applied at
//    pc == 0), and the micro-kernel's packed-k order is fixed by the
//    blocking constants.
// Stripes are capped at kGemmNC columns so the per-task packed panel keeps
// the serial path's cache footprint.

struct TileGrid {
  std::int64_t row_groups = 1;         // groups of consecutive MC row tiles
  std::int64_t tiles_per_group = 1;    // MC tiles per group (last may be short)
  std::int64_t col_stripes = 1;        // NR-aligned column stripes
  std::int64_t panels_per_stripe = 1;  // NR panels per stripe (last may be short)
  std::int64_t tasks() const { return row_groups * col_stripes; }
};

int resolve_split_ways(int split_ways) {
  return split_ways > 0 ? split_ways : global_pool().num_threads();
}

// Builds the task grid for kCols / kGrid (kRows never reaches this). Targets
// `ways` tasks; produces more when a stripe would exceed kGemmNC columns
// (tasks queue on the pool, which is fine) and fewer when the shape has too
// few tiles to split that finely.
TileGrid make_tile_grid(GemmSplit split, std::int64_t m, std::int64_t n,
                        int ways) {
  const std::int64_t ic_tiles = (m + kGemmMC - 1) / kGemmMC;
  const std::int64_t col_panels = (n + kGemmNR - 1) / kGemmNR;
  TileGrid grid;
  grid.tiles_per_group = std::max<std::int64_t>(ic_tiles, 1);
  std::int64_t col_ways = std::max<std::int64_t>(ways, 1);
  if (split == GemmSplit::kGrid && ic_tiles > 1) {
    grid.row_groups = std::min<std::int64_t>(ic_tiles, ways);
    grid.tiles_per_group =
        (ic_tiles + grid.row_groups - 1) / grid.row_groups;
    grid.row_groups =
        (ic_tiles + grid.tiles_per_group - 1) / grid.tiles_per_group;
    col_ways = std::max<std::int64_t>(ways / grid.row_groups, 1);
  }
  grid.col_stripes = std::max<std::int64_t>(
      std::min<std::int64_t>(col_panels, col_ways), 1);
  grid.panels_per_stripe =
      (col_panels + grid.col_stripes - 1) / grid.col_stripes;
  grid.panels_per_stripe =
      std::min<std::int64_t>(grid.panels_per_stripe, kGemmNC / kGemmNR);
  grid.col_stripes =
      (col_panels + grid.panels_per_stripe - 1) / grid.panels_per_stripe;
  return grid;
}

// --------------------------------------------------------------- packing --
//
// A~ layout: ceil(mc/MR) micro-panels, each kc x MR:
//   packed[panel r][p * MR + i] = op(A)[ic + r*MR + i, pc + p]
// B~ layout: ceil(nc/NR) micro-panels, each kc x NR:
//   packed[panel s][p * NR + j] = op(B)[pc + p, jc + s*NR + j]
// Rows/columns beyond the matrix edge are zero-filled so the micro-kernel
// always runs full MR x NR tiles.

void pack_a_panel(Trans trans, const float* a, std::int64_t lda,
                  std::int64_t ic, std::int64_t pc, std::int64_t mc,
                  std::int64_t kc, float* dst) {
  for (std::int64_t r = 0; r < mc; r += kGemmMR) {
    const std::int64_t rows = std::min(kGemmMR, mc - r);
    if (trans == Trans::no) {
      // op(A)[i, p] = a[(ic + i) * lda + pc + p]: row-contiguous reads.
      for (std::int64_t i = 0; i < rows; ++i) {
        const float* src = a + (ic + r + i) * lda + pc;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * kGemmMR + i] = src[p];
      }
      for (std::int64_t i = rows; i < kGemmMR; ++i) {
        for (std::int64_t p = 0; p < kc; ++p) dst[p * kGemmMR + i] = 0.0f;
      }
    } else {
      // op(A)[i, p] = a[(pc + p) * lda + ic + i]: contiguous in i.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = a + (pc + p) * lda + ic + r;
        float* d = dst + p * kGemmMR;
        std::int64_t i = 0;
        for (; i < rows; ++i) d[i] = src[i];
        for (; i < kGemmMR; ++i) d[i] = 0.0f;
      }
    }
    dst += kGemmMR * kc;
  }
}

void pack_b_panel(Trans trans, const float* b, std::int64_t ldb,
                  std::int64_t pc, std::int64_t jc, std::int64_t kc,
                  std::int64_t nc, float* dst) {
  for (std::int64_t s = 0; s < nc; s += kGemmNR) {
    const std::int64_t cols = std::min(kGemmNR, nc - s);
    if (trans == Trans::no) {
      // op(B)[p, j] = b[(pc + p) * ldb + jc + j]: contiguous in j.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * ldb + jc + s;
        float* d = dst + p * kGemmNR;
        std::int64_t j = 0;
        for (; j < cols; ++j) d[j] = src[j];
        for (; j < kGemmNR; ++j) d[j] = 0.0f;
      }
    } else {
      // op(B)[p, j] = b[(jc + j) * ldb + pc + p]: row-contiguous reads.
      for (std::int64_t j = 0; j < cols; ++j) {
        const float* src = b + (jc + s + j) * ldb + pc;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * kGemmNR + j] = src[p];
      }
      for (std::int64_t j = cols; j < kGemmNR; ++j) {
        for (std::int64_t p = 0; p < kc; ++p) dst[p * kGemmNR + j] = 0.0f;
      }
    }
    dst += kGemmNR * kc;
  }
}

// ---------------------------------------------------------- micro-kernel --
//
// acc(MR, NR) = A~panel(kc, MR) * B~panel(kc, NR). On GCC/Clang the kernel
// is written with vector extensions: one 8-float vector register per
// accumulator row, one unaligned load of the packed B row per k step, and a
// broadcast-multiply per packed A element — the classic outer-product form
// that maps 1:1 onto FMA units. Elsewhere a scalar form with constant trip
// counts lets the auto-vectorizer do its best.

#if defined(__GNUC__) || defined(__clang__)
#define CSQ_GEMM_VECTOR_KERNEL 1
#endif

#ifdef CSQ_GEMM_VECTOR_KERNEL

typedef float Vec8 __attribute__((vector_size(32)));
static_assert(kGemmMR == 8 && kGemmNR == 8,
              "vector micro-kernel assumes an 8x8 tile");

inline Vec8 load8(const float* p) {
  Vec8 r;
  __builtin_memcpy(&r, p, sizeof(r));  // unaligned vector load
  return r;
}

inline void micro_kernel(const float* pa, const float* pb, std::int64_t kc,
                         float* acc) {
  Vec8 c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a_col = pa + p * kGemmMR;
    const Vec8 b = load8(pb + p * kGemmNR);
    c0 += a_col[0] * b;
    c1 += a_col[1] * b;
    c2 += a_col[2] * b;
    c3 += a_col[3] * b;
    c4 += a_col[4] * b;
    c5 += a_col[5] * b;
    c6 += a_col[6] * b;
    c7 += a_col[7] * b;
  }
  __builtin_memcpy(acc + 0 * 8, &c0, sizeof(c0));
  __builtin_memcpy(acc + 1 * 8, &c1, sizeof(c1));
  __builtin_memcpy(acc + 2 * 8, &c2, sizeof(c2));
  __builtin_memcpy(acc + 3 * 8, &c3, sizeof(c3));
  __builtin_memcpy(acc + 4 * 8, &c4, sizeof(c4));
  __builtin_memcpy(acc + 5 * 8, &c5, sizeof(c5));
  __builtin_memcpy(acc + 6 * 8, &c6, sizeof(c6));
  __builtin_memcpy(acc + 7 * 8, &c7, sizeof(c7));
}

#else  // portable fallback

inline void micro_kernel(const float* pa, const float* pb, std::int64_t kc,
                         float* acc) {
  for (std::int64_t x = 0; x < kGemmMR * kGemmNR; ++x) acc[x] = 0.0f;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a_col = pa + p * kGemmMR;
    const float* b_row = pb + p * kGemmNR;
    for (std::int64_t i = 0; i < kGemmMR; ++i) {
      const float a_ip = a_col[i];
      float* acc_row = acc + i * kGemmNR;
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        acc_row[j] += a_ip * b_row[j];
      }
    }
  }
}

#endif  // CSQ_GEMM_VECTOR_KERNEL

// C tile update: c = beta_eff * c + alpha * acc over the valid m_sub x n_sub
// region. beta_eff == 0 never reads C (NaN/garbage safe).
inline void update_c_tile(float* c, std::int64_t ldc, const float* acc,
                          std::int64_t m_sub, std::int64_t n_sub, float alpha,
                          float beta_eff) {
  for (std::int64_t i = 0; i < m_sub; ++i) {
    float* c_row = c + i * ldc;
    const float* acc_row = acc + i * kGemmNR;
    if (beta_eff == 0.0f) {
      for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] = alpha * acc_row[j];
    } else if (beta_eff == 1.0f) {
      for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] += alpha * acc_row[j];
    } else {
      for (std::int64_t j = 0; j < n_sub; ++j) {
        c_row[j] = beta_eff * c_row[j] + alpha * acc_row[j];
      }
    }
  }
}

// Elements of one MC-tall packed A panel (the per-task A stripe).
inline std::int64_t a_stripe_elems(std::int64_t m, std::int64_t k) {
  const std::int64_t rows = std::min(m, kGemmMC);
  return (rows + kGemmMR - 1) / kGemmMR * kGemmMR * std::min(k, kGemmKC);
}

// One MC-tall row tile of C inside a (jc, pc) panel: packs its A panel into
// `packed_a` (an a_stripe_elems stripe) and sweeps the jr/ir micro-tile
// grid. `packed_b` is read-only shared state.
void run_ic_tile(Trans trans_a, const float* a, std::int64_t lda,
                 std::int64_t ic, std::int64_t pc, std::int64_t jc,
                 std::int64_t m, std::int64_t kc, std::int64_t nc, float alpha,
                 float beta_eff, const float* packed_b, float* c,
                 std::int64_t ldc, float* packed_a) {
  const std::int64_t mc = std::min(kGemmMC, m - ic);
  pack_a_panel(trans_a, a, lda, ic, pc, mc, kc, packed_a);

  float acc[kGemmMR * kGemmNR];
  for (std::int64_t jr = 0; jr < nc; jr += kGemmNR) {
    const std::int64_t n_sub = std::min(kGemmNR, nc - jr);
    const float* pb = packed_b + (jr / kGemmNR) * kGemmNR * kc;
    for (std::int64_t ir = 0; ir < mc; ir += kGemmMR) {
      const std::int64_t m_sub = std::min(kGemmMR, mc - ir);
      const float* pa = packed_a + (ir / kGemmMR) * kGemmMR * kc;
      micro_kernel(pa, pb, kc, acc);
      update_c_tile(c + (ic + ir) * ldc + jc + jr, ldc, acc, m_sub, n_sub,
                    alpha, beta_eff);
    }
  }
}

// Column-split / 2-D-grid pooled driver (float). Each task owns a disjoint
// (row group x column stripe) block of C, packs op(B) for its stripe and A
// for each of its row tiles into pool_slot()-indexed stripes of the shared
// scratch (the pool runs one top-level task graph at a time, so slots are
// never shared; the stripes are sized here, before the fan-out), and runs
// the ascending pc loop itself — see the TileGrid comment for the
// bit-identity argument.
void gemm_blocked_grid(Trans trans_a, Trans trans_b, std::int64_t m,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc, GemmScratch& shared,
                       const TileGrid& grid) {
  const std::int64_t kc_max = std::min(k, kGemmKC);
  const std::int64_t stripe_elems = grid.panels_per_stripe * kGemmNR * kc_max;
  const std::int64_t a_stripe = a_stripe_elems(m, k);
  ensure_size(shared.packed_b,
              static_cast<std::size_t>(pool_slot_count() * stripe_elems));
  ensure_size(shared.packed_a,
              static_cast<std::size_t>(pool_slot_count() * a_stripe));

  struct GridContext {
    Trans trans_a, trans_b;
    const float* a;
    std::int64_t lda;
    const float* b;
    std::int64_t ldb, m, n, k;
    float alpha, beta;
    float* c;
    std::int64_t ldc;
    float* packed_b_base;
    float* packed_a_base;
    std::int64_t stripe_elems, a_stripe, ic_tiles;
    TileGrid grid;
  } ctx;
  ctx.trans_a = trans_a;
  ctx.trans_b = trans_b;
  ctx.a = a;
  ctx.lda = lda;
  ctx.b = b;
  ctx.ldb = ldb;
  ctx.m = m;
  ctx.n = n;
  ctx.k = k;
  ctx.alpha = alpha;
  ctx.beta = beta;
  ctx.c = c;
  ctx.ldc = ldc;
  ctx.packed_b_base = shared.packed_b.data();
  ctx.packed_a_base = shared.packed_a.data();
  ctx.stripe_elems = stripe_elems;
  ctx.a_stripe = a_stripe;
  ctx.ic_tiles = (m + kGemmMC - 1) / kGemmMC;
  ctx.grid = grid;
  parallel_for_chunked(
      0, grid.tasks(), [&ctx](std::int64_t begin, std::int64_t end) {
        float* stripe = ctx.packed_b_base + pool_slot() * ctx.stripe_elems;
        float* a_stripe = ctx.packed_a_base + pool_slot() * ctx.a_stripe;
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t g = t / ctx.grid.col_stripes;
          const std::int64_t s = t % ctx.grid.col_stripes;
          const std::int64_t jc = s * ctx.grid.panels_per_stripe * kGemmNR;
          const std::int64_t nc =
              std::min(ctx.grid.panels_per_stripe * kGemmNR, ctx.n - jc);
          const std::int64_t tile_begin = g * ctx.grid.tiles_per_group;
          const std::int64_t tile_end = std::min(
              tile_begin + ctx.grid.tiles_per_group, ctx.ic_tiles);
          for (std::int64_t pc = 0; pc < ctx.k; pc += kGemmKC) {
            const std::int64_t kc = std::min(kGemmKC, ctx.k - pc);
            pack_b_panel(ctx.trans_b, ctx.b, ctx.ldb, pc, jc, kc, nc, stripe);
            const float beta_eff = pc == 0 ? ctx.beta : 1.0f;
            for (std::int64_t tt = tile_begin; tt < tile_end; ++tt) {
              run_ic_tile(ctx.trans_a, ctx.a, ctx.lda, tt * kGemmMC, pc, jc,
                          ctx.m, kc, nc, ctx.alpha, beta_eff, stripe, ctx.c,
                          ctx.ldc, a_stripe);
            }
          }
        }
      });
}

// Shared driver for the serial and pooled paths. The jc/pc loop nest runs on
// the calling thread (B is packed once per (jc, pc) and reused across the
// whole ic sweep); the ic tiles either run in order (serial) or are
// distributed across the pool, each packing A into its pool_slot() stripe.
// Both orders compute each C element with an identical floating-point
// operation sequence, so results are bit-identical. The kCols/kGrid splits
// route to gemm_blocked_grid instead — same operation sequence per element,
// different task decomposition.
void gemm_blocked(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const float* a,
                  std::int64_t lda, const float* b, std::int64_t ldb,
                  float beta, float* c, std::int64_t ldc, GemmScratch* scratch,
                  bool pooled, GemmSplit split = GemmSplit::kRows,
                  int split_ways = 0) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0f || k == 0) {
    apply_beta(0, m, n, beta, c, ldc);
    return;
  }
  GemmScratch& shared = scratch != nullptr ? *scratch : local_scratch();

  if (pooled) {
    const int ways = resolve_split_ways(split_ways);
    if (split == GemmSplit::kAuto) split = gemm_choose_split(m, n, ways);
    if (split != GemmSplit::kRows) {
      const TileGrid grid = make_tile_grid(split, m, n, ways);
      if (grid.tasks() > 1) {
        gemm_blocked_grid(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                          beta, c, ldc, shared, grid);
        return;
      }
      // A 1-task grid means the shape cannot use this split; fall through
      // to the row path (which degrades to serial for a single row tile).
    }
  }

  const std::int64_t ic_tiles = (m + kGemmMC - 1) / kGemmMC;
  const bool fan_out = pooled && ic_tiles > 1;
  const std::int64_t a_stripe = a_stripe_elems(m, k);
  ensure_size(shared.packed_a,
              static_cast<std::size_t>((fan_out ? pool_slot_count() : 1) *
                                       a_stripe));
  ensure_size(shared.packed_b,
              static_cast<std::size_t>(
                  (std::min(n, kGemmNC) + kGemmNR - 1) / kGemmNR * kGemmNR *
                  std::min(k, kGemmKC)));
  for (std::int64_t jc = 0; jc < n; jc += kGemmNC) {
    const std::int64_t nc = std::min(kGemmNC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      const std::int64_t kc = std::min(kGemmKC, k - pc);
      pack_b_panel(trans_b, b, ldb, pc, jc, kc, nc, shared.packed_b.data());
      const float beta_eff = pc == 0 ? beta : 1.0f;

      if (!fan_out) {
        for (std::int64_t t = 0; t < ic_tiles; ++t) {
          run_ic_tile(trans_a, a, lda, t * kGemmMC, pc, jc, m, kc, nc, alpha,
                      beta_eff, shared.packed_b.data(), c, ldc,
                      shared.packed_a.data());
        }
      } else {
        // Each worker packs A into its own pool_slot() stripe; every C
        // element belongs to exactly one ic tile, so there are no write
        // conflicts and no order dependence.
        struct TileContext {
          Trans trans_a;
          const float* a;
          std::int64_t lda, pc, jc, m, kc, nc;
          float alpha, beta_eff;
          const float* packed_b;
          float* packed_a_base;
          std::int64_t a_stripe;
          float* c;
          std::int64_t ldc;
        } ctx;
        ctx.trans_a = trans_a;
        ctx.a = a;
        ctx.lda = lda;
        ctx.pc = pc;
        ctx.jc = jc;
        ctx.m = m;
        ctx.kc = kc;
        ctx.nc = nc;
        ctx.alpha = alpha;
        ctx.beta_eff = beta_eff;
        ctx.packed_b = shared.packed_b.data();
        ctx.packed_a_base = shared.packed_a.data();
        ctx.a_stripe = a_stripe;
        ctx.c = c;
        ctx.ldc = ldc;
        parallel_for_chunked(
            0, ic_tiles, [&ctx](std::int64_t begin, std::int64_t end) {
              float* a_stripe =
                  ctx.packed_a_base + pool_slot() * ctx.a_stripe;
              for (std::int64_t t = begin; t < end; ++t) {
                run_ic_tile(ctx.trans_a, ctx.a, ctx.lda, t * kGemmMC, ctx.pc,
                            ctx.jc, ctx.m, ctx.kc, ctx.nc, ctx.alpha,
                            ctx.beta_eff, ctx.packed_b, ctx.c, ctx.ldc,
                            a_stripe);
              }
            });
      }
    }
  }
}

void check_extents(Trans trans_a, Trans trans_b, std::int64_t m,
                   std::int64_t n, std::int64_t k) {
  CSQ_CHECK(m >= 0 && n >= 0 && k >= 0) << "gemm: negative extent";
  CSQ_CHECK(trans_a == Trans::no || trans_b == Trans::no)
      << "gemm TT is not implemented (unused in this library)";
}

// Integer-path extents: the exactness contract (see gemm.h) is derived for
// the split-plane chaining alphas (|alpha| <= 2), where the worst
// per-depth-step contribution is 65535 and int32 accumulation therefore
// requires k <= 32767. Enforce both halves of that derivation here so
// direct callers cannot silently wrap, not just through PackedIntWeights.
void check_int_extents(Trans trans_b, std::int64_t m, std::int64_t n,
                       std::int64_t k, std::int32_t alpha) {
  check_extents(Trans::no, trans_b, m, n, k);
  CSQ_CHECK(alpha >= -2 && alpha <= 2)
      << "gemm_s8u8: alpha " << alpha
      << " outside the [-2, 2] range the exactness bound is derived for";
  CSQ_CHECK(k <= 32767)
      << "gemm_s8u8: reduction depth " << k
      << " would overflow int32 accumulation";
}

// ------------------------------------------------------ integer kernels ---
//
// Same depth blocking as the float path (KC panels, MR x NR micro-tiles),
// but A is always prepacked for the whole m extent and B is packed one
// KC x NR micro-panel at a time, on the consuming task's stack, right before
// every row panel of the task runs against it — the panel is L1-hot and no
// packed-B scratch exists. A call is a grid of (row tile range x column
// range) tasks; the serial path is the one-task grid.
//
// Widened s8u8 operands are int16 in K-PAIRS: consecutive depth steps 2p
// and 2p+1 sit adjacent per row/column, so the AVX2 micro-kernel fuses them
// with one vpmaddwd (int16 pair dot -> int32, no saturation possible at
// |a| <= 255, |b| <= 255) — the integer analogue of the float kernel's FMA.
// Odd kc tails are zero-padded (exact).
//
// A~ pair layout: panels MR-tall; entry (p, i) at [(p/2)*MR + i]*2 + p%2.
// B~ pair layout: one NR-wide panel; entry (p, j) at [(p/2)*NR + j]*2 + p%2.

IntGemmScratch& local_int_scratch() {
  thread_local IntGemmScratch scratch;
  return scratch;
}

// Depth extent after pairing (elements per packed row/column).
inline std::int64_t paired_kc(std::int64_t kc) { return (kc + 1) & ~1; }

// A is always (m x k) row-major int8 (the weight codes); one pc block of
// MR-tall panels over all m rows.
void pack_a_s8(const std::int8_t* a, std::int64_t lda, std::int64_t pc,
               std::int64_t m, std::int64_t kc, std::int16_t* dst) {
  const std::int64_t kcp = paired_kc(kc);
  for (std::int64_t r = 0; r < m; r += kGemmMR) {
    const std::int64_t rows = std::min(kGemmMR, m - r);
    std::fill(dst, dst + kGemmMR * kcp, std::int16_t{0});
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::int8_t* src = a + (r + i) * lda + pc;
      for (std::int64_t p = 0; p < kc; ++p) {
        dst[((p / 2) * kGemmMR + i) * 2 + (p & 1)] =
            static_cast<std::int16_t>(src[p]);
      }
    }
    dst += kGemmMR * kcp;
  }
}

#if defined(__AVX2__)
#define CSQ_GEMM_AVX2_INT_KERNEL 1
#endif

#ifdef CSQ_GEMM_AVX2_INT_KERNEL

static_assert(kGemmMR == 8 && kGemmNR == 8,
              "AVX2 integer micro-kernel assumes an 8x8 tile");

// Reads one packed int16 A pair as its int32 broadcast payload. memcpy (not
// a reinterpret_cast dereference) keeps the int16-store/int32-load pattern
// well-defined under strict aliasing; it compiles to the same vpbroadcastd.
inline std::int32_t load_a_pair(const std::int16_t* p) {
  std::int32_t pair;
  __builtin_memcpy(&pair, p, sizeof(pair));
  return pair;
}

// One vpbroadcastd per packed A pair, one vpmaddwd + vpaddd per accumulator
// row: the same instruction-per-MAC budget as the float kernel's
// broadcast-FMA form.
inline void micro_kernel_int(const std::int16_t* pa, const std::int16_t* pb,
                             std::int64_t kc, std::int32_t* acc) {
  const std::int64_t pairs = paired_kc(kc) / 2;
  __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256(),
          c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256(),
          c4 = _mm256_setzero_si256(), c5 = _mm256_setzero_si256(),
          c6 = _mm256_setzero_si256(), c7 = _mm256_setzero_si256();
  for (std::int64_t p = 0; p < pairs; ++p) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pb + p * kGemmNR * 2));
    const std::int16_t* a_col = pa + p * kGemmMR * 2;
    c0 = _mm256_add_epi32(
        c0, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 0)), b));
    c1 = _mm256_add_epi32(
        c1, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 2)), b));
    c2 = _mm256_add_epi32(
        c2, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 4)), b));
    c3 = _mm256_add_epi32(
        c3, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 6)), b));
    c4 = _mm256_add_epi32(
        c4, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 8)), b));
    c5 = _mm256_add_epi32(
        c5, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 10)), b));
    c6 = _mm256_add_epi32(
        c6, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 12)), b));
    c7 = _mm256_add_epi32(
        c7, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 14)), b));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0 * 8), c0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 1 * 8), c1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * 8), c2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * 8), c3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4 * 8), c4);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 5 * 8), c5);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 6 * 8), c6);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 7 * 8), c7);
}

#else  // portable fallback over the same pair layout

inline void micro_kernel_int(const std::int16_t* pa, const std::int16_t* pb,
                             std::int64_t kc, std::int32_t* acc) {
  const std::int64_t pairs = paired_kc(kc) / 2;
  for (std::int64_t x = 0; x < kGemmMR * kGemmNR; ++x) acc[x] = 0;
  for (std::int64_t p = 0; p < pairs; ++p) {
    const std::int16_t* a_col = pa + p * kGemmMR * 2;
    const std::int16_t* b_row = pb + p * kGemmNR * 2;
    for (std::int64_t i = 0; i < kGemmMR; ++i) {
      const std::int32_t a0 = a_col[i * 2];
      const std::int32_t a1 = a_col[i * 2 + 1];
      std::int32_t* acc_row = acc + i * kGemmNR;
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        acc_row[j] += a0 * b_row[j * 2] + a1 * b_row[j * 2 + 1];
      }
    }
  }
}

#endif  // CSQ_GEMM_AVX2_INT_KERNEL

inline void update_c_tile_int(std::int32_t* c, std::int64_t ldc,
                              const std::int32_t* acc, std::int64_t m_sub,
                              std::int64_t n_sub, std::int32_t alpha,
                              bool add_into_c) {
  for (std::int64_t i = 0; i < m_sub; ++i) {
    std::int32_t* c_row = c + i * ldc;
    const std::int32_t* acc_row = acc + i * kGemmNR;
    if (add_into_c) {
      for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] += alpha * acc_row[j];
    } else {
      for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] = alpha * acc_row[j];
    }
  }
}

// Row-panel stride of one pc block in the prepacked-A layout: every MR-tall
// panel of the full m extent, consecutively.
inline std::int64_t packed_a_block_size(std::int64_t m, std::int64_t kc) {
  return ((m + kGemmMR - 1) / kGemmMR) * kGemmMR * paired_kc(kc);
}

// ----------------------------------------------------- sub-byte kernels ---
//
// The low-bit family keeps raw 8-bit operands in the packed panels and lays
// depth out in K-QUADS: steps 4q..4q+3 adjacent per row/column, fused by one
// vpmaddubsw (u8 activations * s8 weight codes, int16 pair sums) and one
// vpmaddwd against ones. Saturation analysis: each int16 pair sum is at most
// 255 * (|a0| + |a1|), so |a| <= 64 per code keeps vpmaddubsw exact — the
// pack routines enforce it. Quad tails are zero-padded (exact).
//
// A~ quad layout (low-bit): panels MR-tall; entry (p, i) at
//   [(p/4)*MR + i]*4 + p%4   (one int8 per code).
// A~ nibble layout: same quad structure, two codes per byte; entry (p, i)
//   lives in byte [(p/4)*MR + i]*2 + (p%4)/2, low nibble for even p, high
//   for odd; codes are stored as their low 4 bits (signed range [-8, 7]).
// B~ quad layout: one NR-wide panel; entry (p, j) at [(p/4)*NR + j]*4 + p%4
//   (one uint8 per activation code — half the widened int16 panel traffic).

inline std::int64_t quad_kc(std::int64_t kc) {
  return (kc + 3) & ~std::int64_t{3};
}

void pack_a_s8_quad(const std::int8_t* a, std::int64_t lda, std::int64_t pc,
                    std::int64_t m, std::int64_t kc, std::int8_t* dst) {
  const std::int64_t kcq = quad_kc(kc);
  for (std::int64_t r = 0; r < m; r += kGemmMR) {
    const std::int64_t rows = std::min(kGemmMR, m - r);
    std::fill(dst, dst + kGemmMR * kcq, std::int8_t{0});
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::int8_t* src = a + (r + i) * lda + pc;
      for (std::int64_t p = 0; p < kc; ++p) {
        dst[((p / 4) * kGemmMR + i) * 4 + (p & 3)] = src[p];
      }
    }
    dst += kGemmMR * kcq;
  }
}

void pack_a_nibble_quad(const std::int8_t* a, std::int64_t lda,
                        std::int64_t pc, std::int64_t m, std::int64_t kc,
                        std::uint8_t* dst) {
  const std::int64_t kcq = quad_kc(kc);
  for (std::int64_t r = 0; r < m; r += kGemmMR) {
    const std::int64_t rows = std::min(kGemmMR, m - r);
    std::fill(dst, dst + kGemmMR * kcq / 2, std::uint8_t{0});
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::int8_t* src = a + (r + i) * lda + pc;
      for (std::int64_t p = 0; p < kc; ++p) {
        const std::uint8_t nib = static_cast<std::uint8_t>(src[p]) & 0x0F;
        std::uint8_t& byte =
            dst[((p / 4) * kGemmMR + i) * 2 + ((p & 3) >> 1)];
        byte = static_cast<std::uint8_t>(
            (p & 1) ? (byte | (nib << 4)) : (byte | nib));
      }
    }
    dst += kGemmMR * kcq / 2;
  }
}

#ifdef CSQ_GEMM_AVX2_INT_KERNEL

// Broadcasts one packed A quad (4 consecutive int8 codes) to every 32-bit
// lane. Same strict-aliasing-safe memcpy idiom as load_a_pair.
inline __m256i broadcast_a_quad(const std::int8_t* p) {
  std::int32_t quad;
  __builtin_memcpy(&quad, p, sizeof(quad));
  return _mm256_set1_epi32(quad);
}

// One vpmaddubsw (u8 B * s8 A quad, pair sums) + one vpmaddwd (pair-of-pairs
// widen) + vpaddd per accumulator row: four depth steps per instruction
// triple — twice the widened baseline's MAC throughput.
inline void micro_kernel_lowbit(const std::int8_t* pa, const std::uint8_t* pb,
                                std::int64_t kc, std::int32_t* acc) {
  const std::int64_t quads = quad_kc(kc) / 4;
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256(),
          c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256(),
          c4 = _mm256_setzero_si256(), c5 = _mm256_setzero_si256(),
          c6 = _mm256_setzero_si256(), c7 = _mm256_setzero_si256();
  for (std::int64_t q = 0; q < quads; ++q) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pb + q * kGemmNR * 4));
    const std::int8_t* a_col = pa + q * kGemmMR * 4;
    c0 = _mm256_add_epi32(
        c0, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 0)), ones));
    c1 = _mm256_add_epi32(
        c1, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 4)), ones));
    c2 = _mm256_add_epi32(
        c2, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 8)), ones));
    c3 = _mm256_add_epi32(
        c3, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 12)), ones));
    c4 = _mm256_add_epi32(
        c4, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 16)), ones));
    c5 = _mm256_add_epi32(
        c5, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 20)), ones));
    c6 = _mm256_add_epi32(
        c6, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 24)), ones));
    c7 = _mm256_add_epi32(
        c7, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 28)), ones));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0 * 8), c0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 1 * 8), c1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * 8), c2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * 8), c3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4 * 8), c4);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 5 * 8), c5);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 6 * 8), c6);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 7 * 8), c7);
}

// Same layout, int16 accumulators: the vpmaddwd widen runs ONCE per KC
// block instead of once per quad. Exact only under the wide-eligibility
// bound (per-lane sum <= quads * 2 * 255 * max|a| <= 32767) — the vpaddw
// would otherwise wrap; the dispatcher never selects this kernel without
// proving the bound.
inline void micro_kernel_lowbit_wide(const std::int8_t* pa,
                                     const std::uint8_t* pb, std::int64_t kc,
                                     std::int32_t* acc) {
  const std::int64_t quads = quad_kc(kc) / 4;
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i s0 = _mm256_setzero_si256(), s1 = _mm256_setzero_si256(),
          s2 = _mm256_setzero_si256(), s3 = _mm256_setzero_si256(),
          s4 = _mm256_setzero_si256(), s5 = _mm256_setzero_si256(),
          s6 = _mm256_setzero_si256(), s7 = _mm256_setzero_si256();
  for (std::int64_t q = 0; q < quads; ++q) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pb + q * kGemmNR * 4));
    const std::int8_t* a_col = pa + q * kGemmMR * 4;
    s0 = _mm256_add_epi16(
        s0, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 0)));
    s1 = _mm256_add_epi16(
        s1, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 4)));
    s2 = _mm256_add_epi16(
        s2, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 8)));
    s3 = _mm256_add_epi16(
        s3, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 12)));
    s4 = _mm256_add_epi16(
        s4, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 16)));
    s5 = _mm256_add_epi16(
        s5, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 20)));
    s6 = _mm256_add_epi16(
        s6, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 24)));
    s7 = _mm256_add_epi16(
        s7, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 28)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0 * 8),
                      _mm256_madd_epi16(s0, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 1 * 8),
                      _mm256_madd_epi16(s1, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * 8),
                      _mm256_madd_epi16(s2, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * 8),
                      _mm256_madd_epi16(s3, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4 * 8),
                      _mm256_madd_epi16(s4, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 5 * 8),
                      _mm256_madd_epi16(s5, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 6 * 8),
                      _mm256_madd_epi16(s6, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 7 * 8),
                      _mm256_madd_epi16(s7, ones));
}

// Nibble kernel: one 16-byte load covers a whole 8-row quad group. The
// in-register unpack (mask/shift + byte interleave) lands row r's quad in
// 32-bit lane r; the xor/sub pair sign-extends the 4-bit codes, and
// vpermd duplicates one lane per accumulator row.
inline void micro_kernel_nibble(const std::uint8_t* pa, const std::uint8_t* pb,
                                std::int64_t kc, std::int32_t* acc) {
  const std::int64_t quads = quad_kc(kc) / 4;
  const __m256i ones = _mm256_set1_epi16(1);
  const __m128i low_mask = _mm_set1_epi8(0x0F);
  const __m256i sign_bias = _mm256_set1_epi8(8);
  const __m256i dup0 = _mm256_set1_epi32(0), dup1 = _mm256_set1_epi32(1),
                dup2 = _mm256_set1_epi32(2), dup3 = _mm256_set1_epi32(3),
                dup4 = _mm256_set1_epi32(4), dup5 = _mm256_set1_epi32(5),
                dup6 = _mm256_set1_epi32(6), dup7 = _mm256_set1_epi32(7);
  __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256(),
          c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256(),
          c4 = _mm256_setzero_si256(), c5 = _mm256_setzero_si256(),
          c6 = _mm256_setzero_si256(), c7 = _mm256_setzero_si256();
  for (std::int64_t q = 0; q < quads; ++q) {
    const __m128i raw = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(pa + q * kGemmMR * 2));
    const __m128i lo = _mm_and_si128(raw, low_mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), low_mask);
    // Interleaving even-p and odd-p nibbles restores depth order: lane r of
    // the combined vector holds codes (4q..4q+3, row r).
    const __m128i rows03 = _mm_unpacklo_epi8(lo, hi);
    const __m128i rows47 = _mm_unpackhi_epi8(lo, hi);
    __m256i a_quads = _mm256_inserti128_si256(
        _mm256_castsi128_si256(rows03), rows47, 1);
    a_quads = _mm256_sub_epi8(_mm256_xor_si256(a_quads, sign_bias), sign_bias);
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pb + q * kGemmNR * 4));
    c0 = _mm256_add_epi32(
        c0, _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    b, _mm256_permutevar8x32_epi32(a_quads, dup0)),
                ones));
    c1 = _mm256_add_epi32(
        c1, _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    b, _mm256_permutevar8x32_epi32(a_quads, dup1)),
                ones));
    c2 = _mm256_add_epi32(
        c2, _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    b, _mm256_permutevar8x32_epi32(a_quads, dup2)),
                ones));
    c3 = _mm256_add_epi32(
        c3, _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    b, _mm256_permutevar8x32_epi32(a_quads, dup3)),
                ones));
    c4 = _mm256_add_epi32(
        c4, _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    b, _mm256_permutevar8x32_epi32(a_quads, dup4)),
                ones));
    c5 = _mm256_add_epi32(
        c5, _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    b, _mm256_permutevar8x32_epi32(a_quads, dup5)),
                ones));
    c6 = _mm256_add_epi32(
        c6, _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    b, _mm256_permutevar8x32_epi32(a_quads, dup6)),
                ones));
    c7 = _mm256_add_epi32(
        c7, _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    b, _mm256_permutevar8x32_epi32(a_quads, dup7)),
                ones));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0 * 8), c0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 1 * 8), c1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * 8), c2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * 8), c3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4 * 8), c4);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 5 * 8), c5);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 6 * 8), c6);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 7 * 8), c7);
}

#else  // portable fallbacks over the same quad layouts

inline void micro_kernel_lowbit(const std::int8_t* pa, const std::uint8_t* pb,
                                std::int64_t kc, std::int32_t* acc) {
  const std::int64_t quads = quad_kc(kc) / 4;
  for (std::int64_t x = 0; x < kGemmMR * kGemmNR; ++x) acc[x] = 0;
  for (std::int64_t q = 0; q < quads; ++q) {
    const std::int8_t* a_col = pa + q * kGemmMR * 4;
    const std::uint8_t* b_row = pb + q * kGemmNR * 4;
    for (std::int64_t i = 0; i < kGemmMR; ++i) {
      std::int32_t* acc_row = acc + i * kGemmNR;
      const std::int8_t* a_quad = a_col + i * 4;
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        const std::uint8_t* b_quad = b_row + j * 4;
        acc_row[j] += static_cast<std::int32_t>(a_quad[0]) * b_quad[0] +
                      static_cast<std::int32_t>(a_quad[1]) * b_quad[1] +
                      static_cast<std::int32_t>(a_quad[2]) * b_quad[2] +
                      static_cast<std::int32_t>(a_quad[3]) * b_quad[3];
      }
    }
  }
}

// Exact integer math has one result: under the eligibility bound the wide
// kernel computes the same dot products, so the portable form is shared.
inline void micro_kernel_lowbit_wide(const std::int8_t* pa,
                                     const std::uint8_t* pb, std::int64_t kc,
                                     std::int32_t* acc) {
  micro_kernel_lowbit(pa, pb, kc, acc);
}

inline void micro_kernel_nibble(const std::uint8_t* pa, const std::uint8_t* pb,
                                std::int64_t kc, std::int32_t* acc) {
  const std::int64_t quads = quad_kc(kc) / 4;
  for (std::int64_t x = 0; x < kGemmMR * kGemmNR; ++x) acc[x] = 0;
  for (std::int64_t q = 0; q < quads; ++q) {
    const std::uint8_t* a_group = pa + q * kGemmMR * 2;
    const std::uint8_t* b_row = pb + q * kGemmNR * 4;
    for (std::int64_t i = 0; i < kGemmMR; ++i) {
      std::int32_t a_quad[4];
      for (int c = 0; c < 2; ++c) {
        const std::uint8_t byte = a_group[i * 2 + c];
        a_quad[c * 2] = ((byte & 0x0F) ^ 8) - 8;
        a_quad[c * 2 + 1] = ((byte >> 4) ^ 8) - 8;
      }
      std::int32_t* acc_row = acc + i * kGemmNR;
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        const std::uint8_t* b_quad = b_row + j * 4;
        acc_row[j] += a_quad[0] * b_quad[0] + a_quad[1] * b_quad[1] +
                      a_quad[2] * b_quad[2] + a_quad[3] * b_quad[3];
      }
    }
  }
}

#endif  // CSQ_GEMM_AVX2_INT_KERNEL

// Bytes of one MR-tall prepacked A panel over a kc-deep block.
inline std::int64_t a_panel_bytes(IntKernel kernel, std::int64_t kc) {
  switch (kernel) {
    case IntKernel::kS8U8:
      return kGemmMR * paired_kc(kc) *
             static_cast<std::int64_t>(sizeof(std::int16_t));
    case IntKernel::kNibble:
      return kGemmMR * quad_kc(kc) / 2;
    default:
      return kGemmMR * quad_kc(kc);
  }
}

// Bytes of one pc block of prepacked A: every MR-tall panel of the m extent.
inline std::int64_t a_block_bytes(IntKernel kernel, std::int64_t m,
                                  std::int64_t kc) {
  return (m + kGemmMR - 1) / kGemmMR * a_panel_bytes(kernel, kc);
}

inline void run_micro_kernel(IntKernel kernel, const std::uint8_t* pa,
                             const std::int16_t* pb, std::int64_t kc,
                             std::int32_t* acc) {
  const auto* pb_quad = reinterpret_cast<const std::uint8_t*>(pb);
  switch (kernel) {
    case IntKernel::kS8U8:
      micro_kernel_int(reinterpret_cast<const std::int16_t*>(pa), pb, kc,
                       acc);
      break;
    case IntKernel::kLowBit:
      micro_kernel_lowbit(reinterpret_cast<const std::int8_t*>(pa), pb_quad,
                          kc, acc);
      break;
    case IntKernel::kLowBitWide:
      micro_kernel_lowbit_wide(reinterpret_cast<const std::int8_t*>(pa),
                               pb_quad, kc, acc);
      break;
    case IntKernel::kNibble:
      micro_kernel_nibble(pa, pb_quad, kc, acc);
      break;
  }
}

// ------------------------------------------------------------ B sources ---
//
// A B source hands the packers one NR-column micro-panel at a time:
// panel(j0) returns a reader whose row(p) is the 8 bytes op(B)[p, j0..j0+7]
// as a little-endian word, zero past column n. Both packers consume only
// this interface, so the dense and the implicit-conv operand share every
// interleave below.

static_assert(kGemmNR == 8, "B panel rows are read as one 8-byte word");

#if defined(__SSE2__) && defined(__x86_64__)
#define CSQ_GEMM_SSE2_PACK 1
#endif

inline std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// op(B) = b (Trans::no: row p at b + p*ldb) or b^T (Trans::yes: column j at
// b + j*ldb).
struct DenseB {
  const std::uint8_t* b;
  std::int64_t row_step, lane_step, n;

  DenseB(const IntGemmB& src, std::int64_t n_cols)
      : b(src.data),
        row_step(src.trans == Trans::no ? src.ldb : 1),
        lane_step(src.trans == Trans::no ? 1 : src.ldb),
        n(n_cols) {}

  struct Panel {
    const std::uint8_t* base;
    std::int64_t row_step, lane_step;
    std::int64_t valid;
    std::uint64_t row(std::int64_t p) const {
      const std::uint8_t* src = base + p * row_step;
      if (lane_step == 1 && valid == kGemmNR) return load_word(src);
      std::uint64_t word = 0;
      for (std::int64_t j = 0; j < valid; ++j) {
        word |= static_cast<std::uint64_t>(src[j * lane_step]) << (8 * j);
      }
      return word;
    }
  };
  Panel panel(std::int64_t j0) const {
    return Panel{b + j0 * lane_step, row_step, lane_step,
                 std::min(kGemmNR, n - j0)};
  }
};

// The im2col matrix of one padded sample, read through its ConvPackPlan:
// each panel's lane table is built once, then every depth row is one
// 8-byte load (consecutive lanes) or an 8-lane gather.
struct ConvB {
  const ConvPackPlan* plan;
  const std::uint8_t* sample;

  struct Panel {
    const std::uint8_t* sample;
    const std::int32_t* tap;
    std::int32_t lane[kGemmNR];
    bool contiguous;
    std::int64_t valid;
    std::uint64_t row(std::int64_t p) const {
      const std::uint8_t* src = sample + tap[p];
      if (contiguous) return load_word(src + lane[0]);
      std::uint64_t word = 0;
      for (std::int64_t j = 0; j < valid; ++j) {
        word |= static_cast<std::uint64_t>(src[lane[j]]) << (8 * j);
      }
      return word;
    }
  };
  Panel panel(std::int64_t j0) const {
    Panel out{sample, plan->tap.data(), {}, true,
              std::min(kGemmNR, plan->n() - j0)};
    for (std::int64_t j = 0; j < out.valid; ++j) {
      out.lane[j] = plan->lane(j0 + j);
      out.contiguous = out.contiguous && out.lane[j] == out.lane[0] + j;
    }
    out.contiguous = out.contiguous && out.valid == kGemmNR;
    return out;
  }
};

// Interleaves depth rows into one micro-panel row group: two rows into NR
// int16 pairs (K-pair layout), four rows into NR byte quads (K-quad
// layout). SSE2 unpacks where available; the scalar forms write the same
// bytes.
inline void store_pair_row(std::uint64_t r0, std::uint64_t r1,
                           std::int16_t* dst) {
#ifdef CSQ_GEMM_SSE2_PACK
  const __m128i pairs = _mm_unpacklo_epi8(
      _mm_cvtsi64_si128(static_cast<long long>(r0)),
      _mm_cvtsi64_si128(static_cast<long long>(r1)));
  const __m128i zero = _mm_setzero_si128();
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm_unpacklo_epi8(pairs, zero));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 8),
                   _mm_unpackhi_epi8(pairs, zero));
#else
  for (std::int64_t j = 0; j < kGemmNR; ++j) {
    dst[j * 2] = static_cast<std::int16_t>((r0 >> (8 * j)) & 0xFF);
    dst[j * 2 + 1] = static_cast<std::int16_t>((r1 >> (8 * j)) & 0xFF);
  }
#endif
}

inline void store_quad_row(std::uint64_t r0, std::uint64_t r1,
                           std::uint64_t r2, std::uint64_t r3,
                           std::uint8_t* dst) {
#ifdef CSQ_GEMM_SSE2_PACK
  const __m128i t01 = _mm_unpacklo_epi8(
      _mm_cvtsi64_si128(static_cast<long long>(r0)),
      _mm_cvtsi64_si128(static_cast<long long>(r1)));
  const __m128i t23 = _mm_unpacklo_epi8(
      _mm_cvtsi64_si128(static_cast<long long>(r2)),
      _mm_cvtsi64_si128(static_cast<long long>(r3)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm_unpacklo_epi16(t01, t23));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                   _mm_unpackhi_epi16(t01, t23));
#else
  const std::uint64_t rows[4] = {r0, r1, r2, r3};
  for (std::int64_t j = 0; j < kGemmNR; ++j) {
    for (int q = 0; q < 4; ++q) {
      dst[j * 4 + q] = static_cast<std::uint8_t>((rows[q] >> (8 * j)) & 0xFF);
    }
  }
#endif
}

// One B micro-panel (depth pc..pc+kc, columns j0..j0+NR) in the layout
// `kernel` consumes; the depth tail past kc is zero.
template <typename BSrc>
void pack_b_micro_panel(IntKernel kernel, const BSrc& src, std::int64_t pc,
                        std::int64_t j0, std::int64_t kc, void* dst) {
  const auto panel = src.panel(j0);
  const auto row = [&](std::int64_t p) -> std::uint64_t {
    return p < kc ? panel.row(pc + p) : 0;
  };
  if (kernel == IntKernel::kS8U8) {
    auto* pairs = static_cast<std::int16_t*>(dst);
    for (std::int64_t p = 0; p < kc; p += 2) {
      store_pair_row(row(p), row(p + 1), pairs + p * kGemmNR);
    }
    return;
  }
  auto* quads = static_cast<std::uint8_t*>(dst);
  for (std::int64_t p = 0; p < kc; p += 4) {
    store_quad_row(row(p), row(p + 1), row(p + 2), row(p + 3),
                   quads + p * kGemmNR);
  }
}

// Everything one integer GEMM call's tasks share.
struct IntGemmArgs {
  IntKernel kernel;
  std::int64_t m, n, k;
  std::int32_t alpha;
  bool accumulate;
  const std::uint8_t* packed_a;
  std::int32_t* c;
  std::int64_t ldc;
};

// One task: C rows [row_begin, row_end) x columns [col_begin, col_end)
// (MR / NR aligned starts), over the full ascending depth loop. Each B
// micro-panel is packed into a stack buffer and swept by every row panel
// of the task before the next one is packed.
template <typename BSrc>
void run_int_task(const IntGemmArgs& g, const BSrc& src,
                  std::int64_t row_begin, std::int64_t row_end,
                  std::int64_t col_begin, std::int64_t col_end) {
  alignas(32) std::int16_t panel[kGemmKC * kGemmNR];
  std::int32_t acc[kGemmMR * kGemmNR];
  const std::uint8_t* a_block = g.packed_a;
  for (std::int64_t pc = 0; pc < g.k; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, g.k - pc);
    const std::int64_t a_panel = a_panel_bytes(g.kernel, kc);
    const bool add_into_c = g.accumulate || pc != 0;
    for (std::int64_t j0 = col_begin; j0 < col_end; j0 += kGemmNR) {
      const std::int64_t n_sub = std::min(kGemmNR, g.n - j0);
      pack_b_micro_panel(g.kernel, src, pc, j0, kc, panel);
      for (std::int64_t i0 = row_begin; i0 < row_end; i0 += kGemmMR) {
        run_micro_kernel(g.kernel, a_block + (i0 / kGemmMR) * a_panel, panel,
                         kc, acc);
        update_c_tile_int(g.c + i0 * g.ldc + j0, g.ldc, acc,
                          std::min(kGemmMR, g.m - i0), n_sub, g.alpha,
                          add_into_c);
      }
    }
    a_block += a_block_bytes(g.kernel, g.m, kc);
  }
}

// Task grid of a pooled call: the kCols/kGrid tile grid when it splits,
// else one task per MC row tile (kRows; a single task for m <= kGemmMC).
TileGrid int_task_grid(GemmSplit split, std::int64_t m, std::int64_t n,
                       int ways) {
  if (split == GemmSplit::kAuto) split = gemm_choose_split(m, n, ways);
  if (split != GemmSplit::kRows) {
    const TileGrid grid = make_tile_grid(split, m, n, ways);
    if (grid.tasks() > 1) return grid;
  }
  TileGrid rows;
  rows.row_groups = (m + kGemmMC - 1) / kGemmMC;
  rows.panels_per_stripe = (n + kGemmNR - 1) / kGemmNR;
  return rows;
}

// The integer driver: every C element is owned by exactly one task and
// integer accumulation is exact, so any grid gives the serial bits.
template <typename BSrc>
void int_gemm_run(const IntGemmArgs& g, const BSrc& src, bool pooled,
                  GemmSplit split, int split_ways) {
  if (g.m == 0 || g.n == 0) return;
  if (g.alpha == 0 || g.k == 0) {
    if (!g.accumulate) {
      for (std::int64_t i = 0; i < g.m; ++i) {
        std::fill(g.c + i * g.ldc, g.c + i * g.ldc + g.n, 0);
      }
    }
    return;
  }
  const TileGrid grid =
      pooled ? int_task_grid(split, g.m, g.n, resolve_split_ways(split_ways))
             : TileGrid{};
  if (grid.tasks() <= 1) {
    run_int_task(g, src, 0, g.m, 0, g.n);
    return;
  }
  parallel_for_chunked(
      0, grid.tasks(), [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t row_group = t / grid.col_stripes;
          const std::int64_t stripe = t % grid.col_stripes;
          const std::int64_t rows = grid.tiles_per_group * kGemmMC;
          const std::int64_t cols = grid.panels_per_stripe * kGemmNR;
          run_int_task(g, src, row_group * rows,
                       std::min(g.m, (row_group + 1) * rows), stripe * cols,
                       std::min(g.n, (stripe + 1) * cols));
        }
      });
}

// Low-bit extents: |alpha| <= 8 admits chaining per-bit-plane passes with
// power-of-two weights (2^t, t <= 3); the combined |alpha| * k * 255 *
// max|a| < 2^31 headroom is the caller's contract (serving always runs
// alpha = 1, where k <= 32767 and max|a| <= 64 bound it directly).
void check_lowbit_extents(Trans trans_b, std::int64_t m, std::int64_t n,
                          std::int64_t k, std::int32_t alpha) {
  check_extents(Trans::no, trans_b, m, n, k);
  CSQ_CHECK(alpha >= -8 && alpha <= 8)
      << "gemm_s8u8 low-bit: alpha " << alpha
      << " outside the [-8, 8] range the exactness bound is derived for";
  CSQ_CHECK(k <= 32767)
      << "gemm_s8u8 low-bit: reduction depth " << k
      << " would overflow int32 accumulation";
}

inline bool pooled_int_dispatch(std::int64_t m, std::int64_t n,
                                std::int64_t k) {
  const std::int64_t ops = 2 * m * n * k;
  return ops >= (1 << 18) && !inside_parallel_region();
}

}  // namespace

GemmSplit gemm_choose_split(std::int64_t m, std::int64_t n, int ways) {
  const int w = resolve_split_ways(ways);
  const std::int64_t ic_tiles = (m + kGemmMC - 1) / kGemmMC;
  const std::int64_t col_panels = (n + kGemmNR - 1) / kGemmNR;
  if (w <= 1 || col_panels <= 1) return GemmSplit::kRows;
  if (ic_tiles >= w) return GemmSplit::kRows;
  if (ic_tiles <= 1) return GemmSplit::kCols;
  return GemmSplit::kGrid;
}

std::int64_t gemm_split_task_count(GemmSplit split, std::int64_t m,
                                   std::int64_t n, int ways) {
  if (m <= 0 || n <= 0) return 1;
  const int w = resolve_split_ways(ways);
  if (split == GemmSplit::kAuto) split = gemm_choose_split(m, n, w);
  if (split == GemmSplit::kRows) return (m + kGemmMC - 1) / kGemmMC;
  return make_tile_grid(split, m, n, w).tasks();
}

void gemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, GemmScratch* scratch) {
  check_extents(trans_a, trans_b, m, n, k);
  gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
               scratch, /*pooled=*/false);
}

void gemm_parallel(Trans trans_a, Trans trans_b, std::int64_t m,
                   std::int64_t n, std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc,
                   GemmScratch* scratch, GemmSplit split, int split_ways) {
  check_extents(trans_a, trans_b, m, n, k);
  // Only fan out when there is enough arithmetic to amortize the pool wakeup.
  const std::int64_t flops = 2 * m * n * k;
  const bool pooled = flops >= (1 << 18) && !inside_parallel_region();
  gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
               scratch, pooled, split, split_ways);
}


void gemm_scratch_reserve(GemmScratch& scratch, std::int64_t m,
                          std::int64_t n, std::int64_t k) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  ensure_size(scratch.packed_a, static_cast<std::size_t>(a_stripe_elems(m, k)));
  ensure_size(scratch.packed_b,
              static_cast<std::size_t>((std::min(n, kGemmNC) + kGemmNR - 1) /
                                       kGemmNR * kGemmNR *
                                       std::min(k, kGemmKC)));
}

void gemm_s8u8_packed(IntKernel kernel, std::int64_t m, std::int64_t n,
                      std::int64_t k, std::int32_t alpha,
                      const void* packed_a, const IntGemmB& b,
                      bool accumulate, std::int32_t* c, std::int64_t ldc,
                      bool pooled, GemmSplit split, int split_ways) {
  if (kernel == IntKernel::kS8U8) {
    check_int_extents(b.trans, m, n, k, alpha);
  } else {
    check_lowbit_extents(b.trans, m, n, k, alpha);
  }
  const IntGemmArgs args{kernel,     m, n, k, alpha, accumulate,
                         static_cast<const std::uint8_t*>(packed_a),
                         c,          ldc};
  const bool fan_out = pooled && pooled_int_dispatch(m, n, k);
  if (b.plan != nullptr) {
    CSQ_CHECK(k == b.plan->k() && n == b.plan->n())
        << "gemm_s8u8: conv operand is " << b.plan->k() << "x"
        << b.plan->n() << ", call is " << k << "x" << n;
    int_gemm_run(args, ConvB{b.plan, b.data}, fan_out, split, split_ways);
  } else {
    int_gemm_run(args, DenseB(b, n), fan_out, split, split_ways);
  }
}

void gemm_s8u8_pack_b_panel(IntKernel kernel, const IntGemmB& b,
                            std::int64_t n, std::int64_t pc, std::int64_t j0,
                            std::int64_t kc, void* dst) {
  CSQ_CHECK(kc > 0 && kc <= kGemmKC && j0 >= 0 && j0 % kGemmNR == 0 &&
            j0 < n)
      << "gemm_s8u8_pack_b_panel: bad panel (pc " << pc << ", j0 " << j0
      << ", kc " << kc << ", n " << n << ")";
  if (b.plan != nullptr) {
    CSQ_CHECK(n == b.plan->n() && pc + kc <= b.plan->k())
        << "gemm_s8u8_pack_b_panel: panel outside the conv operand";
    pack_b_micro_panel(kernel, ConvB{b.plan, b.data}, pc, j0, kc, dst);
  } else {
    pack_b_micro_panel(kernel, DenseB(b, n), pc, j0, kc, dst);
  }
}

namespace {

// The un-prepacked entry points pack A whole on the calling thread, then run
// the prepacked driver.
void gemm_s8u8_unpacked(Trans trans_b, std::int64_t m, std::int64_t n,
                        std::int64_t k, std::int32_t alpha,
                        const std::int8_t* a, std::int64_t lda,
                        const std::uint8_t* b, std::int64_t ldb,
                        bool accumulate, std::int32_t* c, std::int64_t ldc,
                        IntGemmScratch* scratch, bool pooled, GemmSplit split,
                        int split_ways) {
  check_int_extents(trans_b, m, n, k, alpha);
  std::vector<std::int16_t>& packed =
      (scratch != nullptr ? *scratch : local_int_scratch()).packed_a;
  const auto size = static_cast<std::size_t>(gemm_s8u8_packed_a_size(m, k));
  if (packed.size() < size) packed.resize(size);
  gemm_s8u8_pack_a(m, k, a, lda, packed.data());
  gemm_s8u8_packed(IntKernel::kS8U8, m, n, k, alpha, packed.data(),
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   pooled, split, split_ways);
}

}  // namespace

void gemm_s8u8(Trans trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
               std::int32_t alpha, const std::int8_t* a, std::int64_t lda,
               const std::uint8_t* b, std::int64_t ldb, bool accumulate,
               std::int32_t* c, std::int64_t ldc, IntGemmScratch* scratch) {
  gemm_s8u8_unpacked(trans_b, m, n, k, alpha, a, lda, b, ldb, accumulate, c,
                     ldc, scratch, /*pooled=*/false, GemmSplit::kAuto, 0);
}

void gemm_s8u8_parallel(Trans trans_b, std::int64_t m, std::int64_t n,
                        std::int64_t k, std::int32_t alpha,
                        const std::int8_t* a, std::int64_t lda,
                        const std::uint8_t* b, std::int64_t ldb,
                        bool accumulate, std::int32_t* c, std::int64_t ldc,
                        IntGemmScratch* scratch, GemmSplit split,
                        int split_ways) {
  gemm_s8u8_unpacked(trans_b, m, n, k, alpha, a, lda, b, ldb, accumulate, c,
                     ldc, scratch, /*pooled=*/true, split, split_ways);
}

std::int64_t gemm_s8u8_packed_a_size(std::int64_t m, std::int64_t k) {
  std::int64_t total = 0;
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    total += packed_a_block_size(m, std::min(kGemmKC, k - pc));
  }
  return total;
}

void gemm_s8u8_pack_a(std::int64_t m, std::int64_t k, const std::int8_t* a,
                      std::int64_t lda, std::int16_t* packed) {
  // Panels for the whole m extent per pc block — the drivers slice row
  // panels out of the same consecutive layout.
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - pc);
    pack_a_s8(a, lda, pc, m, kc, packed);
    packed += packed_a_block_size(m, kc);
  }
}

void gemm_s8u8_prepacked(Trans trans_b, std::int64_t m, std::int64_t n,
                         std::int64_t k, std::int32_t alpha,
                         const std::int16_t* packed_a, const std::uint8_t* b,
                         std::int64_t ldb, bool accumulate, std::int32_t* c,
                         std::int64_t ldc) {
  gemm_s8u8_packed(IntKernel::kS8U8, m, n, k, alpha, packed_a,
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   /*pooled=*/false);
}

void gemm_s8u8_prepacked_parallel(Trans trans_b, std::int64_t m,
                                  std::int64_t n, std::int64_t k,
                                  std::int32_t alpha,
                                  const std::int16_t* packed_a,
                                  const std::uint8_t* b, std::int64_t ldb,
                                  bool accumulate, std::int32_t* c,
                                  std::int64_t ldc, GemmSplit split,
                                  int split_ways) {
  gemm_s8u8_packed(IntKernel::kS8U8, m, n, k, alpha, packed_a,
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   /*pooled=*/true, split, split_ways);
}

std::int64_t gemm_s8u8_lowbit_packed_a_size(std::int64_t m, std::int64_t k) {
  std::int64_t total = 0;
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    total += a_block_bytes(IntKernel::kLowBit, m, std::min(kGemmKC, k - pc));
  }
  return total;
}

void gemm_s8u8_lowbit_pack_a(std::int64_t m, std::int64_t k,
                             const std::int8_t* a, std::int64_t lda,
                             std::int8_t* packed) {
  std::int32_t max_abs = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int32_t v = a[i * lda + p];
      max_abs = std::max(max_abs, v < 0 ? -v : v);
    }
  }
  CSQ_CHECK(max_abs <= 64)
      << "gemm_s8u8_lowbit_pack_a: |code| " << max_abs
      << " > 64 would saturate the vpmaddubsw pair sums";
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - pc);
    pack_a_s8_quad(a, lda, pc, m, kc, packed);
    packed += a_block_bytes(IntKernel::kLowBit, m, kc);
  }
}

std::int64_t gemm_s8u8_nibble_packed_a_size(std::int64_t m, std::int64_t k) {
  std::int64_t total = 0;
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    total += a_block_bytes(IntKernel::kNibble, m, std::min(kGemmKC, k - pc));
  }
  return total;
}

void gemm_s8u8_nibble_pack_a(std::int64_t m, std::int64_t k,
                             const std::int8_t* a, std::int64_t lda,
                             std::uint8_t* packed) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int32_t v = a[i * lda + p];
      CSQ_CHECK(v >= -8 && v <= 7)
          << "gemm_s8u8_nibble_pack_a: code " << v
          << " outside the signed nibble range [-8, 7]";
    }
  }
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - pc);
    pack_a_nibble_quad(a, lda, pc, m, kc, packed);
    packed += a_block_bytes(IntKernel::kNibble, m, kc);
  }
}

bool gemm_s8u8_wide_eligible(std::int64_t k, std::int32_t max_abs_a) {
  if (k <= 0) return true;
  if (max_abs_a < 0) max_abs_a = -max_abs_a;
  if (max_abs_a > 64) return false;
  // Per int16 lane, one KC-depth block accumulates quad_kc(kc)/4 pair sums
  // of at most 2 * 255 * max|a| each.
  const std::int64_t kc = std::min(k, kGemmKC);
  const std::int64_t block_positions = (kc + 3) & ~std::int64_t{3};
  return (block_positions / 2) * 255 *
             static_cast<std::int64_t>(max_abs_a) <=
         32767;
}

void gemm_s8u8_lowbit_prepacked(Trans trans_b, std::int64_t m, std::int64_t n,
                                std::int64_t k, std::int32_t alpha,
                                const std::int8_t* packed_a,
                                const std::uint8_t* b, std::int64_t ldb,
                                bool accumulate, std::int32_t* c,
                                std::int64_t ldc) {
  gemm_s8u8_packed(IntKernel::kLowBit, m, n, k, alpha, packed_a,
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   /*pooled=*/false);
}

void gemm_s8u8_lowbit_prepacked_parallel(Trans trans_b, std::int64_t m,
                                         std::int64_t n, std::int64_t k,
                                         std::int32_t alpha,
                                         const std::int8_t* packed_a,
                                         const std::uint8_t* b,
                                         std::int64_t ldb, bool accumulate,
                                         std::int32_t* c, std::int64_t ldc,
                                         GemmSplit split, int split_ways) {
  gemm_s8u8_packed(IntKernel::kLowBit, m, n, k, alpha, packed_a,
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   /*pooled=*/true, split, split_ways);
}

void gemm_s8u8_lowbit_wide_prepacked(Trans trans_b, std::int64_t m,
                                     std::int64_t n, std::int64_t k,
                                     std::int32_t alpha,
                                     const std::int8_t* packed_a,
                                     const std::uint8_t* b, std::int64_t ldb,
                                     bool accumulate, std::int32_t* c,
                                     std::int64_t ldc) {
  gemm_s8u8_packed(IntKernel::kLowBitWide, m, n, k, alpha, packed_a,
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   /*pooled=*/false);
}

void gemm_s8u8_lowbit_wide_prepacked_parallel(
    Trans trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
    std::int32_t alpha, const std::int8_t* packed_a, const std::uint8_t* b,
    std::int64_t ldb, bool accumulate, std::int32_t* c, std::int64_t ldc,
    GemmSplit split, int split_ways) {
  gemm_s8u8_packed(IntKernel::kLowBitWide, m, n, k, alpha, packed_a,
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   /*pooled=*/true, split, split_ways);
}

void gemm_s8u8_nibble_prepacked(Trans trans_b, std::int64_t m, std::int64_t n,
                                std::int64_t k, std::int32_t alpha,
                                const std::uint8_t* packed_a,
                                const std::uint8_t* b, std::int64_t ldb,
                                bool accumulate, std::int32_t* c,
                                std::int64_t ldc) {
  gemm_s8u8_packed(IntKernel::kNibble, m, n, k, alpha, packed_a,
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   /*pooled=*/false);
}

void gemm_s8u8_nibble_prepacked_parallel(Trans trans_b, std::int64_t m,
                                         std::int64_t n, std::int64_t k,
                                         std::int32_t alpha,
                                         const std::uint8_t* packed_a,
                                         const std::uint8_t* b,
                                         std::int64_t ldb, bool accumulate,
                                         std::int32_t* c, std::int64_t ldc,
                                         GemmSplit split, int split_ways) {
  gemm_s8u8_packed(IntKernel::kNibble, m, n, k, alpha, packed_a,
                   IntGemmB::dense(trans_b, b, ldb), accumulate, c, ldc,
                   /*pooled=*/true, split, split_ways);
}

}  // namespace csq

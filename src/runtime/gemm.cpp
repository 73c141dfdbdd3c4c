// See gemm.hpp for the design and determinism contract. This file must be
// compiled with -ffp-contract=off (CMake pins it): the contract promises
// one rounding per multiply and per add, and letting the compiler fuse
// mul+add into FMA — in the scalar loops or through the vector intrinsics —
// would break bit-equality between the SIMD and scalar micro-kernels.
#include "runtime/gemm.hpp"

#include <algorithm>
#include <vector>

#include "runtime/thread_pool.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace wino::runtime {

namespace {

// Micro-tile shape per instruction set. MR x NR accumulators must fit the
// register file next to one broadcast and two B vectors: AVX2 has 16 ymm
// registers -> 6 x 16 uses 12 + 3; NEON has 32 q registers -> 8 x 8 uses
// 16 + 3. Only Kc affects numerics (it brackets the reduction); MR/NR are
// free to differ per ISA.
#if defined(__AVX2__)
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
#elif defined(__ARM_NEON)
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 8;
#else
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;
#endif

// Reduction panel: part of the numeric contract (fixed bracketing), sized
// so an A row-panel (MR x Kc floats) plus a B panel slice (Kc x NR) stay
// L1-resident. Nc bounds the packed-B footprint (Kc x Nc = 2 MB fp32).
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 2048;

// Below this many multiply-adds (with K inside a single reduction panel,
// so the bracketing is unchanged) packing costs more than it saves and a
// direct loop runs instead — this also keeps the tiny transform-sized
// GEMMs of the hw engine allocation-free.
constexpr std::size_t kSmallMnk = 32 * 1024;

// --- Micro-kernels ---------------------------------------------------------
// Contract: acc[i * kNr + j] = sum over kk < kc of ap[kk*kMr + i] *
// bp[kk*kNr + j], accumulated in ascending kk with one rounding per
// multiply and per add. ap/bp are the packed panels (zero-padded edges).

// On x86 builds compiled with AVX enabled, pin the portable fallback to
// baseline x86-64 codegen: it keeps "blocked without SIMD" an honest
// benchmark baseline, and it sidesteps a gcc AVX-512 auto-vectorisation
// scheme (outer-loop gathers via vinsertps chains) that runs ~10x slower
// than the plain SSE2 vectorisation of these loops. Values are unaffected
// either way — the accumulation order is fixed by the source.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__AVX__)
__attribute__((target("arch=x86-64")))
#endif
void micro_scalar(std::size_t kc, const float* ap, const float* bp,
                  float* acc) {
  // One output row at a time: a row's NR accumulators live in vector
  // registers across the whole k loop once the compiler vectorises the j
  // loops (a full MR x NR local array would spill to the stack every
  // iteration; two NR/2 halves keep gcc's vectoriser on the j loops
  // instead of an outer-loop gather scheme it picks on AVX-512 targets).
  // Per-element accumulation order is identical to the SIMD micro-kernels:
  // ascending k, one rounding per multiply and per add.
  constexpr std::size_t kQuarter = kNr / 4;
  for (std::size_t i = 0; i < kMr; ++i) {
    float q0[kQuarter] = {};
    float q1[kQuarter] = {};
    float q2[kQuarter] = {};
    float q3[kQuarter] = {};
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float ai = ap[kk * kMr + i];
      const float* b = bp + kk * kNr;
      for (std::size_t j = 0; j < kQuarter; ++j) q0[j] += ai * b[j];
      for (std::size_t j = 0; j < kQuarter; ++j) {
        q1[j] += ai * b[kQuarter + j];
      }
      for (std::size_t j = 0; j < kQuarter; ++j) {
        q2[j] += ai * b[2 * kQuarter + j];
      }
      for (std::size_t j = 0; j < kQuarter; ++j) {
        q3[j] += ai * b[3 * kQuarter + j];
      }
    }
    std::copy(q0, q0 + kQuarter, acc + i * kNr);
    std::copy(q1, q1 + kQuarter, acc + i * kNr + kQuarter);
    std::copy(q2, q2 + kQuarter, acc + i * kNr + 2 * kQuarter);
    std::copy(q3, q3 + kQuarter, acc + i * kNr + 3 * kQuarter);
  }
}

#if defined(__AVX2__)
void micro_avx2(std::size_t kc, const float* ap, const float* bp,
                float* acc) {
  __m256 c0[kMr];
  __m256 c1[kMr];
  for (std::size_t i = 0; i < kMr; ++i) {
    c0[i] = _mm256_setzero_ps();
    c1[i] = _mm256_setzero_ps();
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNr + 8);
    const float* a = ap + kk * kMr;
    for (std::size_t i = 0; i < kMr; ++i) {
      // mul + add, not _mm256_fmadd_ps: the extra rounding is the price of
      // bit-equality with the scalar fallback (see gemm.hpp).
      const __m256 ai = _mm256_broadcast_ss(a + i);
      c0[i] = _mm256_add_ps(c0[i], _mm256_mul_ps(ai, b0));
      c1[i] = _mm256_add_ps(c1[i], _mm256_mul_ps(ai, b1));
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    _mm256_storeu_ps(acc + i * kNr, c0[i]);
    _mm256_storeu_ps(acc + i * kNr + 8, c1[i]);
  }
}
#elif defined(__ARM_NEON)
void micro_neon(std::size_t kc, const float* ap, const float* bp,
                float* acc) {
  float32x4_t c0[kMr];
  float32x4_t c1[kMr];
  for (std::size_t i = 0; i < kMr; ++i) {
    c0[i] = vdupq_n_f32(0.0F);
    c1[i] = vdupq_n_f32(0.0F);
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float32x4_t b0 = vld1q_f32(bp + kk * kNr);
    const float32x4_t b1 = vld1q_f32(bp + kk * kNr + 4);
    const float* a = ap + kk * kMr;
    for (std::size_t i = 0; i < kMr; ++i) {
      // vmul + vadd, not vfmaq: same rounding as the scalar fallback.
      const float32x4_t ai = vdupq_n_f32(a[i]);
      c0[i] = vaddq_f32(c0[i], vmulq_f32(ai, b0));
      c1[i] = vaddq_f32(c1[i], vmulq_f32(ai, b1));
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    vst1q_f32(acc + i * kNr, c0[i]);
    vst1q_f32(acc + i * kNr + 4, c1[i]);
  }
}
#endif

using MicroFn = void (*)(std::size_t, const float*, const float*, float*);

MicroFn pick_micro(GemmKernel kernel) {
#if defined(__AVX2__)
  if (kernel == GemmKernel::kAuto) return micro_avx2;
#elif defined(__ARM_NEON)
  if (kernel == GemmKernel::kAuto) return micro_neon;
#endif
  (void)kernel;
  return micro_scalar;
}

// --- Shared epilogue -------------------------------------------------------
// Identical scalar code for every micro-kernel and the direct path, so the
// only per-ISA difference is the (bit-equal) panel accumulation above.

inline void store_tile(const float* acc, std::size_t acc_ld, float* c,
                       std::size_t ldc, std::size_t mb, std::size_t nb,
                       float alpha, float beta, bool first_panel) {
  for (std::size_t i = 0; i < mb; ++i) {
    const float* arow = acc + i * acc_ld;
    float* crow = c + i * ldc;
    if (!first_panel) {
      for (std::size_t j = 0; j < nb; ++j) crow[j] += alpha * arow[j];
    } else if (beta == 0.0F) {
      for (std::size_t j = 0; j < nb; ++j) crow[j] = alpha * arow[j];
    } else {
      for (std::size_t j = 0; j < nb; ++j) {
        crow[j] = alpha * arow[j] + beta * crow[j];
      }
    }
  }
}

// --- Small/direct path -----------------------------------------------------
// Requires k <= kKc so the single local accumulation per element is the
// same bracket the blocked path would produce. No packing, no allocation,
// no threading: callers in already-parallel regions hit this for the tiny
// transform-shaped GEMMs.

void sgemm_direct(std::size_t m, std::size_t n, std::size_t k, float alpha,
                  const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float beta, float* c, std::size_t ldc) {
  constexpr std::size_t kJb = 64;
  float acc[kJb];
  for (std::size_t j0 = 0; j0 < n; j0 += kJb) {
    const std::size_t nb = std::min(kJb, n - j0);
    for (std::size_t i = 0; i < m; ++i) {
      std::fill(acc, acc + nb, 0.0F);
      const float* arow = a + i * lda;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float ai = arow[kk];
        const float* brow = b + kk * ldb + j0;
        for (std::size_t j = 0; j < nb; ++j) acc[j] += ai * brow[j];
      }
      store_tile(acc, kJb, c + i * ldc + j0, ldc, 1, nb, alpha, beta,
                 /*first_panel=*/true);
    }
  }
}

// --- Blocked path ----------------------------------------------------------

void sgemm_blocked(std::size_t m, std::size_t n, std::size_t k, float alpha,
                   const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float beta, float* c, std::size_t ldc,
                   MicroFn micro) {
  const std::size_t ir_panels = (m + kMr - 1) / kMr;
  // Thread-local so the packing buffer is allocated once per thread and
  // reused across every blocked GEMM it issues (the hot-loop zero-alloc
  // contract); never nested on one thread (a nested sgemm would run inside
  // a parallel region and take the direct path). The local reference is
  // load-bearing: lambdas do not capture thread_locals, so pool workers
  // would otherwise resolve `bpack` to their own (empty) instance instead
  // of the submitting caller's buffer.
  static thread_local std::vector<float> bpack_tls;
  std::vector<float>& bpack = bpack_tls;
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    const std::size_t jr_panels = (nc + kNr - 1) / kNr;
    std::size_t panel_index = 0;
    for (std::size_t kb = 0; kb < k; kb += kKc, ++panel_index) {
      const std::size_t kc = std::min(kKc, k - kb);
      bpack.resize(jr_panels * kc * kNr);
      // Pack B(kb.., jc..) into NR-wide column panels, zero-padding the
      // ragged right edge (padded lanes are computed but never stored).
      // Pure copies, so the parallel split cannot affect values.
      parallel_for(jr_panels, [&](std::size_t pb, std::size_t pe) {
        for (std::size_t p = pb; p < pe; ++p) {
          float* dst = bpack.data() + p * kc * kNr;
          const std::size_t j0 = jc + p * kNr;
          const std::size_t nb = std::min(kNr, n - j0);
          for (std::size_t kk = 0; kk < kc; ++kk) {
            const float* src = b + (kb + kk) * ldb + j0;
            float* row = dst + kk * kNr;
            for (std::size_t j = 0; j < nb; ++j) row[j] = src[j];
            for (std::size_t j = nb; j < kNr; ++j) row[j] = 0.0F;
          }
        }
      });

      const bool first_panel = panel_index == 0;
      // Row-panels are independent outputs: the thread split varies with
      // the pool size but each panel's arithmetic does not, which is the
      // whole determinism argument.
      parallel_for(ir_panels, [&](std::size_t pb, std::size_t pe) {
        alignas(64) float apack[kMr * kKc];
        alignas(64) float acc[kMr * kNr];
        for (std::size_t p = pb; p < pe; ++p) {
          const std::size_t i0 = p * kMr;
          const std::size_t mb = std::min(kMr, m - i0);
          // Pack the A row-panel k-major (zero-padding short panels) so
          // the micro-kernel broadcasts walk contiguous memory.
          for (std::size_t kk = 0; kk < kc; ++kk) {
            float* dst = apack + kk * kMr;
            for (std::size_t i = 0; i < mb; ++i) {
              dst[i] = a[(i0 + i) * lda + kb + kk];
            }
            for (std::size_t i = mb; i < kMr; ++i) dst[i] = 0.0F;
          }
          for (std::size_t q = 0; q < jr_panels; ++q) {
            micro(kc, apack, bpack.data() + q * kc * kNr, acc);
            const std::size_t j0 = jc + q * kNr;
            const std::size_t nb = std::min(kNr, n - j0);
            store_tile(acc, kNr, c + i0 * ldc + j0, ldc, mb, nb, alpha,
                       beta, first_panel);
          }
        }
      });
    }
  }
}

}  // namespace

void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float beta, float* c, std::size_t ldc, GemmKernel kernel) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0F) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0F) {
        std::fill(crow, crow + n, 0.0F);
      } else {
        for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }
  if (k <= kKc && m * n * k <= kSmallMnk) {
    sgemm_direct(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  sgemm_blocked(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                pick_micro(kernel));
}

void sgemm_naive(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, std::size_t lda, const float* b,
                 std::size_t ldb, float beta, float* c, std::size_t ldc) {
  // Same degenerate-case semantics as sgemm (exact zeros, no -0.0F from
  // scaling a signed accumulator), so the bit-equality contract holds on
  // every path.
  if (k == 0 || alpha == 0.0F) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0F) {
        std::fill(crow, crow + n, 0.0F);
      } else {
        for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b[kk * ldb + j];
      }
      float* cj = c + i * ldc + j;
      *cj = beta == 0.0F ? alpha * acc : alpha * acc + beta * *cj;
    }
  }
}

const char* sgemm_kernel_name() {
#if defined(__AVX2__)
  return "avx2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

GemmBlocking sgemm_blocking() { return {kMr, kNr, kKc, kNc}; }

}  // namespace wino::runtime

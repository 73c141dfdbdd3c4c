// Shared cache-blocked SIMD SGEMM core for every matmul in the repo.
//
// One kernel serves the im2col lowering and large common::Matrix<float>
// products. The design follows
// the BLIS decomposition: B is packed into NR-wide column panels per
// (Nc, Kc) block, A is packed into an MR-row panel held in L1, and an
// MR x NR register-tiled micro-kernel (AVX2 / NEON / portable scalar,
// selected at compile time) walks the Kc reduction.
//
// Determinism contract (pinned by tests/runtime_gemm_test.cpp):
//  * Every output element accumulates its K products in ascending-k order,
//    one rounding per multiply and per add (the translation unit is built
//    with -ffp-contract=off, so no FMA contraction reorders roundings).
//  * The reduction is bracketed into fixed Kc = 256 panels: the element
//    value is beta*C + alpha*panel_0 + alpha*panel_1 + ... regardless of
//    shape, thread count or instruction set. For K <= Kc this equals the
//    naive local-accumulator triple loop bit-for-bit.
//  * Threads only ever split independent output row-panels, never the K
//    reduction, so any thread count is bit-identical.
//  * The SIMD micro-kernels use mul+add (not fused multiply-add) so the
//    vector lanes round exactly like the scalar fallback: forcing
//    GemmKernel::kScalar reproduces the kAuto result bit-for-bit.
#pragma once

#include <cstddef>

namespace wino::runtime {

/// Micro-kernel selection. kAuto picks the best compiled-in instruction
/// set (AVX2 on x86 with -mavx2/-march=native, NEON on aarch64, scalar
/// otherwise); kScalar forces the portable fallback. Both produce
/// bit-identical results — the switch exists for benchmarking and for
/// pinning that equivalence in tests.
enum class GemmKernel {
  kAuto,
  kScalar,
};

/// \brief C = alpha * A * B + beta * C with the blocked/packed/SIMD core.
///
/// beta == 0 overwrites C (stale/NaN contents are ignored, BLAS-style).
/// Parallelises over C row-panels on the global ThreadPool; safe to call
/// from inside a parallel_for body (runs inline).
///
/// \param m,n,k  GEMM extents: A is m x k, B is k x n, C is m x n.
/// \param alpha  scale applied to every A*B product.
/// \param a,lda  row-major A and its row stride (lda >= k).
/// \param b,ldb  row-major B and its row stride (ldb >= n).
/// \param beta   scale applied to C's prior contents (0 = overwrite).
/// \param c,ldc  row-major C and its row stride (ldc >= n).
/// \param kernel micro-kernel override; kAuto and kScalar produce
///               bit-identical results (see the determinism contract).
void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float beta, float* c, std::size_t ldc,
           GemmKernel kernel = GemmKernel::kAuto);

/// Single-threaded naive triple loop with a local per-element accumulator
/// over the full K range. The correctness reference and the benchmark
/// baseline. Bit-identical to sgemm whenever K <= the Kc blocking factor
/// (a single reduction panel); within rounding otherwise.
void sgemm_naive(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, std::size_t lda, const float* b,
                 std::size_t ldb, float beta, float* c, std::size_t ldc);

/// Name of the micro-kernel kAuto dispatches to: "avx2", "neon" or
/// "scalar". Fixed at compile time.
const char* sgemm_kernel_name();

/// The compile-time blocking parameters (micro-tile MR x NR, reduction
/// panel Kc, column block Nc), exposed for benches and docs.
struct GemmBlocking {
  std::size_t mr;
  std::size_t nr;
  std::size_t kc;
  std::size_t nc;
};
GemmBlocking sgemm_blocking();

}  // namespace wino::runtime

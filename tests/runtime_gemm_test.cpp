// The shared cache-blocked SIMD GEMM core: exhaustive small-shape
// equivalence with the naive reference (bit-for-bit inside one reduction
// panel), alpha/beta paths, SIMD-vs-scalar micro-kernel identity, and
// thread-count determinism.
#include "runtime/gemm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "runtime/thread_pool.hpp"

namespace wino::runtime {
namespace {

using common::Rng;

// Restores the global pool so test order cannot leak thread counts.
class RuntimeGemm : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::set_global_threads(4); }
};

std::vector<float> random_vec(std::size_t size, Rng& rng) {
  std::vector<float> v(size);
  rng.fill_uniform(v);
  return v;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

TEST_F(RuntimeGemm, ExhaustiveSmallShapesMatchNaiveBitForBit) {
  // Every K here fits one Kc reduction panel, where the contract promises
  // exact equality with the naive local-accumulator loop — across ragged
  // edges (non-multiples of MR/NR), K = 1, single rows and columns, and
  // shapes large enough to leave the direct path for the blocked one.
  const auto [mr, nr, kc, nc] = sgemm_blocking();
  const std::vector<std::size_t> ms = {1, 2, 3, mr - 1, mr, mr + 1,
                                       2 * mr + 1, 33, 48};
  const std::vector<std::size_t> ns = {1, 2, nr - 1, nr, nr + 1,
                                       3 * nr + 5, 64};
  const std::vector<std::size_t> ks = {1, 2, 3, 9, 31, 64, kc};
  Rng rng(101);
  for (const std::size_t m : ms) {
    for (const std::size_t n : ns) {
      for (const std::size_t k : ks) {
        const auto a = random_vec(m * k, rng);
        const auto b = random_vec(k * n, rng);
        std::vector<float> got(m * n, -1.0F);
        std::vector<float> want(m * n, -1.0F);
        sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, got.data(), n);
        sgemm_naive(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F,
                    want.data(), n);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST_F(RuntimeGemm, AlphaBetaAccumulatePathsMatchNaive) {
  Rng rng(102);
  const std::size_t m = 21;
  const std::size_t n = 37;
  const std::size_t k = 64;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);
  for (const float alpha : {1.0F, 0.5F, -2.0F, 0.0F}) {
    for (const float beta : {0.0F, 1.0F, -0.25F}) {
      auto got = c0;
      auto want = c0;
      sgemm(m, n, k, alpha, a.data(), k, b.data(), n, beta, got.data(), n);
      sgemm_naive(m, n, k, alpha, a.data(), k, b.data(), n, beta,
                  want.data(), n);
      ASSERT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
          0)
          << "alpha=" << alpha << " beta=" << beta;
    }
  }
}

TEST_F(RuntimeGemm, BetaZeroOverwritesStaleContents) {
  Rng rng(103);
  const std::size_t m = 5;
  const std::size_t n = 7;
  const auto a = random_vec(m * 3, rng);
  const auto b = random_vec(3 * n, rng);
  std::vector<float> got(m * n, std::numeric_limits<float>::quiet_NaN());
  std::vector<float> want(m * n);
  sgemm(m, n, 3, 1.0F, a.data(), 3, b.data(), n, 0.0F, got.data(), n);
  sgemm_naive(m, n, 3, 1.0F, a.data(), 3, b.data(), n, 0.0F, want.data(), n);
  expect_bitwise_equal(got, want, "beta=0 must ignore stale C");
}

TEST_F(RuntimeGemm, KZeroScalesByBeta) {
  std::vector<float> c{1.0F, 2.0F, 3.0F, 4.0F};
  sgemm(2, 2, 0, 1.0F, nullptr, 0, nullptr, 0, 0.5F, c.data(), 2);
  EXPECT_EQ(c[0], 0.5F);
  EXPECT_EQ(c[3], 2.0F);
  sgemm(2, 2, 0, 1.0F, nullptr, 0, nullptr, 0, 0.0F, c.data(), 2);
  for (const float v : c) EXPECT_EQ(v, 0.0F);
}

TEST_F(RuntimeGemm, StridedOperandsRespectLeadingDimensions) {
  // Submatrix views: lda/ldb/ldc larger than the logical widths.
  Rng rng(104);
  const std::size_t m = 9;
  const std::size_t n = 11;
  const std::size_t k = 13;
  const std::size_t lda = k + 3;
  const std::size_t ldb = n + 5;
  const std::size_t ldc = n + 2;
  const auto a = random_vec(m * lda, rng);
  const auto b = random_vec(k * ldb, rng);
  std::vector<float> got(m * ldc, 7.0F);
  std::vector<float> want = got;
  sgemm(m, n, k, 1.0F, a.data(), lda, b.data(), ldb, 0.0F, got.data(), ldc);
  sgemm_naive(m, n, k, 1.0F, a.data(), lda, b.data(), ldb, 0.0F,
              want.data(), ldc);
  expect_bitwise_equal(got, want, "strided");
  // Padding columns beyond n must be untouched.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = n; j < ldc; ++j) EXPECT_EQ(got[i * ldc + j], 7.0F);
  }
}

TEST_F(RuntimeGemm, SimdAndScalarKernelsBitIdentical) {
  // The whole point of mul+add (no FMA) micro-kernels: forcing the scalar
  // fallback must reproduce the vectorized result exactly, including the
  // multi-panel K > Kc bracketing. Exercised for real when the suite is
  // compiled with -march=native (the CI native-simd job).
  Rng rng(105);
  const auto [mr, nr, kc, nc] = sgemm_blocking();
  const std::size_t m = 3 * mr + 2;
  const std::size_t n = 2 * nr + 9;
  const std::size_t k = 2 * kc + 17;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> auto_c(m * n);
  std::vector<float> scalar_c(m * n);
  sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, auto_c.data(), n,
        GemmKernel::kAuto);
  sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, scalar_c.data(), n,
        GemmKernel::kScalar);
  expect_bitwise_equal(auto_c, scalar_c, sgemm_kernel_name());
}

TEST_F(RuntimeGemm, MultiPanelReductionStaysCloseToNaive) {
  // K > Kc brackets the reduction differently from the naive full-K
  // accumulator; the results are equal up to float reassociation error.
  Rng rng(106);
  const std::size_t m = 16;
  const std::size_t n = 24;
  const std::size_t k = 1000;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> got(m * n);
  std::vector<float> want(m * n);
  sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, got.data(), n);
  sgemm_naive(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, want.data(), n);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 64.0F * 1.19209290e-7F * k);
  }
}

TEST_F(RuntimeGemm, ThreadCountInvariantIncludingMultiPanel) {
  Rng rng(107);
  const auto [mr, nr, kc, nc] = sgemm_blocking();
  const std::size_t m = 64;
  const std::size_t n = nc + 33;  // forces a second Nc column block
  const std::size_t k = kc + 64;  // forces a second reduction panel
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  ThreadPool::set_global_threads(1);
  std::vector<float> ref(m * n);
  sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, ref.data(), n);
  for (const std::size_t t : {2u, 4u, 7u}) {
    ThreadPool::set_global_threads(t);
    std::vector<float> got(m * n);
    sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, got.data(), n);
    ASSERT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)),
              0)
        << "non-deterministic at " << t << " threads";
  }
}

TEST_F(RuntimeGemm, NestedInsideParallelForStaysCorrect) {
  // Consumers call sgemm from inside parallel_for bodies (per-image conv,
  // per-tile hw engine); the nested call runs inline and must still equal
  // the top-level result bit-for-bit.
  Rng rng(109);
  const std::size_t m = 40;
  const std::size_t n = 50;
  const std::size_t k = 30;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> ref(m * n);
  sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, ref.data(), n);
  std::vector<std::vector<float>> per_slot(4, std::vector<float>(m * n));
  parallel_for(per_slot.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F,
            per_slot[i].data(), n);
    }
  });
  for (const auto& got : per_slot) {
    expect_bitwise_equal(ref, got, "nested");
  }
}

TEST_F(RuntimeGemm, InlineCallsPackNarrowerColumnBlocksBitIdentically) {
  // Inside a parallel region sgemm packs B in narrower column blocks than
  // Nc; the blocking must not change a single output bit, across several
  // inline blocks, a ragged last one and two reduction panels.
  Rng rng(113);
  const auto [mr, nr, kc, nc] = sgemm_blocking();
  const std::size_t m = 2 * mr + 1;
  const std::size_t n = 3 * 256 + 17;
  const std::size_t k = kc + 40;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> ref(m * n);
  sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, ref.data(), n);
  std::vector<float> got(m * n);
  {
    const InlineScope inline_scope;
    ASSERT_TRUE(in_parallel_region());
    sgemm(m, n, k, 1.0F, a.data(), k, b.data(), n, 0.0F, got.data(), n);
  }
  EXPECT_FALSE(in_parallel_region());
  expect_bitwise_equal(ref, got, "inline column blocks");
}

TEST_F(RuntimeGemm, BlockingAndKernelNameAreSane) {
  const auto blocking = sgemm_blocking();
  EXPECT_GE(blocking.mr, 4u);
  EXPECT_GE(blocking.nr, 8u);
  EXPECT_EQ(blocking.kc, 256u);
  const std::string name = sgemm_kernel_name();
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
}

}  // namespace
}  // namespace wino::runtime

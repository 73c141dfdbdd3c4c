// Layout descriptor + pack/unpack conversion kernels: round-trip identity
// sweeps (stride > 1, asymmetric padding), cross-checks against the
// conv-layer im2col, and the executor's Winograd conv's bit-identity to
// the reference walk.
#include "tensor/layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>
#include <thread>

#include "common/random.hpp"
#include "conv/im2col.hpp"
#include "runtime/thread_pool.hpp"
#include "winograd/kernels.hpp"

namespace wino::tensor {
namespace {

using common::Rng;

Tensor4f random_tensor(Shape4 s, std::uint64_t seed) {
  Tensor4f t(s);
  Rng rng(seed);
  rng.fill_uniform(t.flat(), -1.0F, 1.0F);
  return t;
}

bool bit_identical(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

TEST(Layout, DescribesItself) {
  const Shape4 s{1, 3, 8, 8};
  EXPECT_EQ(to_string(Layout::nchw(s)), "nchw");
  EXPECT_EQ(to_string(Layout::im2col_panel(s, 3, 1, 2, 1)),
            "im2col-panel(r=3,pad=1x2,stride=1)");
}

TEST(Layout, RejectsBadParameters) {
  EXPECT_THROW((void)Layout::im2col_panel({1, 1, 4, 4}, 0, 0, 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)Layout::im2col_panel({1, 1, 4, 4}, 3, -1, 0, 1),
               std::invalid_argument);
  // Window never fits: r = 5 on a 2-pixel extent without padding.
  EXPECT_THROW((void)Layout::im2col_panel({1, 1, 2, 2}, 5, 0, 0, 1),
               std::invalid_argument);
}

TEST(Im2colPanelLayout, RoundTripIsIdentityWherePanelsCoverInput) {
  // Sweep kernel sizes, strides and asymmetric padding; whenever the
  // panel samples every input pixel the round trip must be exact.
  std::uint64_t seed = 100;
  std::size_t covered_cases = 0;
  for (const std::size_t r : {1u, 2u, 3u}) {
    for (const int stride : {1, 2, 3}) {
      for (const int pad_h : {0, 1, 2}) {
        for (const int pad_w : {0, 1}) {
          for (std::size_t hw = r; hw <= r + 4; ++hw) {
            const Shape4 s{2, 2, hw, hw + 1};
            Layout l;
            try {
              l = Layout::im2col_panel(s, r, pad_h, pad_w, stride);
            } catch (const std::invalid_argument&) {
              continue;  // window never fits this tiny extent
            }
            const Tensor4f t = random_tensor(s, seed++);
            const PackedActivation packed = pack(t, l);
            EXPECT_EQ(packed.data.size(), l.volume());
            const Tensor4f back = unpack(packed);
            if (im2col_covers_input(l)) {
              ++covered_cases;
              ASSERT_TRUE(bit_identical(t, back))
                  << to_string(l) << " hw=" << hw;
            } else {
              // Unsampled pixels (stride > 1 only) come back as zero;
              // sampled pixels are still exact.
              ASSERT_GT(stride, 1) << to_string(l);
              const Tensor4f again = unpack(pack(back, l));
              ASSERT_TRUE(bit_identical(back, again)) << to_string(l);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(covered_cases, 50u);  // the sweep exercised the identity path
}

TEST(Im2colPanelLayout, StrideOneAlwaysCovers) {
  for (std::size_t r = 1; r <= 4; ++r) {
    const Layout l = Layout::im2col_panel({1, 1, 8, 8}, r, 1, 0, 1);
    EXPECT_TRUE(im2col_covers_input(l));
  }
}

TEST(Im2colPanelLayout, MatchesConvLayerIm2col) {
  // The tensor-layer pack and the conv-layer lowering must produce the
  // same panel: conv2d_im2col's GEMM consumes either interchangeably.
  // conv::im2col lowers one row range per pool chunk, each starting
  // mid-way through some channel's r x r taps, so every pool size below
  // splits the 27 rows differently.
  const Shape4 s{2, 3, 6, 5};
  const Tensor4f t = random_tensor(s, 11);
  const std::size_t r = 3;
  const int pad_h = 1;
  const int pad_w = 2;
  const int stride = 1;
  const Layout l = Layout::im2col_panel(s, r, pad_h, pad_w, stride);
  const PackedActivation packed = pack(t, l);
  const std::size_t panel = l.shape.c * r * r * l.panel_out_h() *
                            l.panel_out_w();
  std::vector<float> reference(panel);
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    runtime::ThreadPool::set_global_threads(threads);
    for (std::size_t img = 0; img < s.n; ++img) {
      conv::im2col(t, img, r, pad_h, pad_w, stride, reference);
      EXPECT_EQ(std::memcmp(reference.data(),
                            packed.data.data() + img * panel,
                            panel * sizeof(float)),
                0)
          << "image " << img << " threads " << threads;
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

// The lowering copies clipped row runs and zero-fills the padding; it must
// write exactly the bytes of the per-element padded() read it replaced.
// The sweep covers odd and prime extents, pads 0/1/2 (the horizontal pad
// one step off the vertical one), stride 1 and 2, and row ranges that
// start and end mid-way through a channel's (u, v) taps; the input holds
// -0.0 and a NaN, so the copy is checked bit for bit, not by value.
TEST(Im2colLowerRows, RowRunsMatchPaddedReference) {
  std::size_t checked = 0;
  for (const std::size_t h : {1u, 3u, 5u, 7u, 13u}) {
    for (const std::size_t w : {1u, 2u, 5u, 11u}) {
      Tensor4f t = random_tensor({2, 3, h, w}, 100 + h * 16 + w);
      t(1, 0, 0, 0) = -0.0F;
      t(1, 2, h - 1, w - 1) = std::numeric_limits<float>::quiet_NaN();
      for (const std::size_t r : {1u, 3u, 5u}) {
        for (const int pad_h : {0, 1, 2}) {
          const int pad_w = (pad_h + 1) % 3;
          for (const int stride : {1, 2}) {
            const auto extent = [&](std::size_t in, int pad) {
              const auto span = static_cast<std::ptrdiff_t>(in) + 2 * pad -
                                static_cast<std::ptrdiff_t>(r);
              return span < 0 ? std::size_t{0}
                              : static_cast<std::size_t>(span / stride + 1);
            };
            const std::size_t out_h = extent(h, pad_h);
            const std::size_t out_w = extent(w, pad_w);
            if (out_h == 0 || out_w == 0) continue;
            const std::size_t rows = t.shape().c * r * r;
            const std::size_t cols = out_h * out_w;
            const std::size_t mid = rows / 2 + 1;
            const std::pair<std::size_t, std::size_t> ranges[] = {
                {0, rows}, {1, rows}, {mid, rows}, {1, mid}, {rows - 1, rows}};
            for (const auto& [row_begin, row_end] : ranges) {
              if (row_begin >= row_end) continue;
              std::vector<float> want;
              for (std::size_t row = row_begin; row < row_end; ++row) {
                const std::size_t c = row / (r * r);
                const auto u = static_cast<std::ptrdiff_t>((row / r) % r);
                const auto v = static_cast<std::ptrdiff_t>(row % r);
                for (std::size_t oy = 0; oy < out_h; ++oy) {
                  for (std::size_t ox = 0; ox < out_w; ++ox) {
                    want.push_back(t.padded(
                        1, c,
                        static_cast<std::ptrdiff_t>(oy) * stride + u - pad_h,
                        static_cast<std::ptrdiff_t>(ox) * stride + v -
                            pad_w));
                  }
                }
              }
              // Poisoned, so a skipped element shows as a mismatch.
              std::vector<float> got(want.size(), 7.0F);
              im2col_lower_rows(t, 1, r, pad_h, pad_w, stride, row_begin,
                                row_end, out_h, out_w, got);
              ASSERT_EQ(got.size(), (row_end - row_begin) * cols);
              EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                    want.size() * sizeof(float)),
                        0)
                  << h << "x" << w << " r=" << r << " pad=" << pad_h << "/"
                  << pad_w << " stride=" << stride << " rows [" << row_begin
                  << ", " << row_end << ")";
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 500u);
}

TEST(Pack, RejectsShapeMismatch) {
  const Tensor4f t = random_tensor({1, 2, 4, 4}, 23);
  EXPECT_THROW(pack(t, Layout::nchw({1, 2, 5, 4})),
               std::invalid_argument);
}

// --- The layout-aware Winograd conv against the NCHW reference ----------

class WinogradLayoutConv : public ::testing::TestWithParam<int> {};

TEST_P(WinogradLayoutConv, BitIdenticalToReferenceWalk) {
  const int m = GetParam();
  // Shapes chosen so the tile grid has ragged right/bottom edges for at
  // least one of the m values.
  const Shape4 s{2, 3, 9, 7};
  const Tensor4f input = random_tensor(s, 29);
  Tensor4f kernels(4, 3, 3, 3);
  Rng rng(31);
  rng.fill_normal(kernels.flat(), 0.0F, 0.3F);

  const winograd::TileTransformer xf(winograd::transforms(m, 3));
  const winograd::TransformedKernels tk(xf, kernels);
  winograd::WinogradConvOptions opt;
  opt.pad = 1;

  const Tensor4f reference = winograd::conv2d_winograd(input, tk, xf, opt);
  ASSERT_TRUE(bit_identical(
      reference, winograd::conv2d_winograd_layout(input, tk, xf, opt,
                                                  /*fuse_relu=*/false)));

  // Fused ReLU == separate ReLU pass.
  Tensor4f relued = reference;
  for (float& v : relued.flat()) v = v > 0.0F ? v : 0.0F;
  ASSERT_TRUE(bit_identical(
      relued, winograd::conv2d_winograd_layout(input, tk, xf, opt,
                                               /*fuse_relu=*/true)));
}

INSTANTIATE_TEST_SUITE_P(TileSizes, WinogradLayoutConv,
                         ::testing::Values(2, 3, 4));

TEST(WinogradLayoutConvGuards, RejectsPanelInputAndChannelMismatch) {
  const Shape4 s{1, 2, 6, 6};
  const Tensor4f input = random_tensor(s, 37);
  Tensor4f kernels(2, 2, 3, 3);
  Rng rng(41);
  rng.fill_normal(kernels.flat(), 0.0F, 0.3F);
  const winograd::TileTransformer xf(winograd::transforms(2, 3));
  const winograd::TransformedKernels tk(xf, kernels);
  const winograd::WinogradConvOptions opt;

  // The allocation-free entry takes NCHW only; the layout check runs
  // before the scratch is read.
  const PackedActivation panel =
      pack(input, Layout::im2col_panel(s, 3, 1, 1, 1));
  const Layout out_layout = Layout::nchw({1, 2, 4, 4});
  std::vector<float> out(out_layout.volume());
  EXPECT_THROW(winograd::conv2d_winograd_layout_into(
                   panel.layout, panel.data, tk, xf, opt, out_layout, out,
                   false, winograd::WinogradScratch{}),
               std::invalid_argument);

  const Tensor4f wrong_c = random_tensor({1, 3, 6, 6}, 43);
  EXPECT_THROW(winograd::conv2d_winograd_layout(wrong_c, tk, xf, opt, false),
               std::invalid_argument);
}

}  // namespace
}  // namespace wino::tensor

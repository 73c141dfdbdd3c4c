// Runtime Winograd convolution kernels (float): 1-D F(m, r), 2-D nested
// F(m x m, r x r) tile operations, and full NCHW layer convolution.
//
// Layer-level evaluation mirrors the paper's system (Fig 7): the image is
// decomposed into overlapping (m+r-1)^2 tiles with stride m, and kernels
// are pre-transformed once (V = G g G^T, Section IV "filter transforms are
// assumed to be precomputed"). The reference walk (conv2d_winograd)
// accumulates channels either in the transform domain (software-optimal,
// one inverse per output tile) or after the inverse transform (matching
// the hardware's accumulation buffers); their equivalence is a linearity
// property the test suite checks. The layout-aware executor
// (conv2d_winograd_layout[_into]) runs the transform-domain order only.
#pragma once

#include <span>
#include <vector>

#include "tensor/layout.hpp"
#include "tensor/tensor.hpp"
#include "winograd/cook_toom.hpp"

namespace wino::winograd {

/// Where the reduction over input channels is performed.
enum class AccumulationOrder {
  kTransformDomain,  ///< sum U_c . V_c over c, single inverse per tile
  kPostInverse       ///< inverse per channel, sum outputs (paper's Fig 7)
};

/// Precompiled float-domain tile transformer for one F(m x m, r x r).
/// Stateless after construction; safe to share across threads for reads.
class TileTransformer {
 public:
  explicit TileTransformer(const TransformSet& t);

  [[nodiscard]] int m() const { return m_; }
  [[nodiscard]] int r() const { return r_; }
  [[nodiscard]] int tile() const { return n_; }

  /// V = G g G^T. g: r*r row-major, v: n*n row-major.
  void transform_filter(std::span<const float> g, std::span<float> v) const;

  /// U = B^T d B. d: n*n row-major, u: n*n.
  void transform_data(std::span<const float> d, std::span<float> u) const;

  /// Y = A^T M A. mm: n*n, y: m*m.
  void inverse(std::span<const float> mm, std::span<float> y) const;

  /// Full tile convolution Y = A^T[(G g G^T) . (B^T d B)]A.
  void convolve_tile(std::span<const float> d, std::span<const float> g,
                     std::span<float> y) const;

  /// 1-D convolution y = A^T[(G g) . (B^T d)]; d has n elements, g has r,
  /// y has m.
  void convolve_1d(std::span<const float> d, std::span<const float> g,
                   std::span<float> y) const;

  /// The float inverse-transform matrix A^T (m rows x n cols). Exposed so
  /// consumers can batch many inverse transforms Y = A^T M A as two dense
  /// GEMMs on the shared runtime core (see hw/winograd_engine.cpp).
  [[nodiscard]] const FMatrix& at_matrix() const { return at_; }

 private:
  // Apply `mat` (rows x cols) along rows then columns of a square tile:
  // out = mat * in * mat^T, in: cols x cols, out: rows x rows.
  void sandwich(const FMatrix& mat, std::span<const float> in,
                std::span<float> out) const;

  int m_ = 0;
  int r_ = 0;
  int n_ = 0;
  FMatrix bt_;
  FMatrix g_;
  FMatrix at_;
};

/// Options for layer-level Winograd convolution.
struct WinogradConvOptions {
  int pad = 0;  ///< symmetric zero padding (VGG uses pad = 1 for r = 3)
  AccumulationOrder accumulation = AccumulationOrder::kTransformDomain;
};

/// V = G g G^T for every filter of a KCrr bank, written [k][c][n*n] into
/// `out` (K * C * n*n floats). The K * C transforms are independent, so
/// they are split over the global ThreadPool; each one runs the arithmetic
/// of xf.transform_filter, so the bank is bit-identical at any thread
/// count (pinned by tests/winograd_kernels_test.cpp). Called from inside a
/// pool chunk it runs inline. Throws std::invalid_argument when the
/// filters are not r x r or `out` has the wrong extent.
void transform_filter_bank(const TileTransformer& xf,
                           const tensor::Tensor4f& kernels,
                           std::span<float> out);

/// Pre-transformed kernel bank: V tiles for K x C kernels, each n*n floats,
/// laid out [k][c][n*n] contiguously (built by transform_filter_bank).
class TransformedKernels {
 public:
  TransformedKernels(const TileTransformer& xf,
                     const tensor::Tensor4f& kernels);

  [[nodiscard]] std::span<const float> v(std::size_t k, std::size_t c) const {
    return {data_.data() + (k * channels_ + c) * tile_sq_, tile_sq_};
  }
  /// All C tiles of kernel k, [c][n*n] contiguous.
  [[nodiscard]] std::span<const float> v(std::size_t k) const {
    return {data_.data() + k * channels_ * tile_sq_, channels_ * tile_sq_};
  }
  [[nodiscard]] std::size_t kernel_count() const { return kernels_; }
  [[nodiscard]] std::size_t channels() const { return channels_; }
  /// Floats per transformed tile, (m+r-1)^2 for the transformer that
  /// built this bank; consumers validate it against their own transformer.
  [[nodiscard]] std::size_t tile_area() const { return tile_sq_; }

 private:
  std::size_t kernels_ = 0;
  std::size_t channels_ = 0;
  std::size_t tile_sq_ = 0;
  std::vector<float> data_;  ///< [k][c][n*n]
};

/// Convolve an NCHW input with a KCrr kernel bank using F(m x m, r x r),
/// stride 1. Output spatial size is (H + 2 pad - r + 1) x (W + 2 pad - r + 1).
/// The result is numerically equivalent (up to float rounding) to
/// conv::conv2d_spatial; tests bound the difference.
tensor::Tensor4f conv2d_winograd(const tensor::Tensor4f& input,
                                 const tensor::Tensor4f& kernels, int m,
                                 const WinogradConvOptions& opt = {});

/// As above but with a caller-provided transformer (avoids transform
/// regeneration in inner loops).
tensor::Tensor4f conv2d_winograd(const tensor::Tensor4f& input,
                                 const tensor::Tensor4f& kernels,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt = {});

/// As above with the pre-transformed kernel bank supplied by the caller —
/// the serving path: filter transforms are computed once per (layer,
/// weights version) and reused across forward calls (see the cache in
/// nn/forward.cpp), matching the paper's "filter transforms are assumed
/// to be precomputed".
tensor::Tensor4f conv2d_winograd(const tensor::Tensor4f& input,
                                 const TransformedKernels& tk,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt = {});

/// Layout-aware layer convolution for the nn pipeline: the input may be
/// NCHW or Winograd-tile form (any producer tile edge), and the output is
/// produced directly in `out_kind` (kNCHW, or kWinogradTile with tile edge
/// m) — chains of Winograd layers hand activations tile-to-tile without
/// ever materialising the NCHW intermediate. `fuse_relu` folds the
/// elementwise max(x, 0) into the output scatter, replacing the separate
/// full-tensor ReLU pass.
///
/// Every output element is computed by exactly the arithmetic of
/// conv2d_winograd(input, tk, xf, opt) — the gather reads the same values,
/// the transform/accumulation order is untouched, and ReLU is the same
/// formula applied to the same result — so this path is bit-identical to
/// the always-NCHW path at every element, whatever mix of layouts carries
/// the activations (pinned by tests/nn_plan_test.cpp and
/// tests/tensor_layout_test.cpp).
///
/// The walk visits one tile column (image, tile row, tile column) at a
/// time: gather and transform its C channels into one C*n*n bank, then per
/// kernel accumulate the n*n tile over ascending c, inverse-transform it
/// and scatter it. That is the per-element order of conv2d_winograd's
/// transform-domain walk, so the result is memcmp-equal to it. This wrapper
/// splits the columns across the deterministic ThreadPool — each worker
/// owns a private scratch and a contiguous column range — and since every
/// accumulator chain is confined to one column, any thread count produces
/// the same bytes (pinned by tests/winograd_fused_test.cpp).
///
/// Transform-domain accumulation only: any other opt.accumulation throws
/// std::invalid_argument (the post-inverse order lives in the reference
/// walk, conv2d_winograd).
tensor::PackedActivation conv2d_winograd_layout(
    const tensor::PackedActivation& input, const TransformedKernels& tk,
    const TileTransformer& xf, const WinogradConvOptions& opt,
    tensor::LayoutKind out_kind, bool fuse_relu);

/// Caller-provided scratch for conv2d_winograd_layout_into: the data tile
/// d, the column's transform bank, the accumulation tiles and the tile-form
/// gather maps. Carved out of a workspace slab by
/// nn::carve_winograd_scratch, which is also the single definition of each
/// span's extent. acc_m is the accumulator of the runtime-n fallback; the
/// specialised n*n in {16, 25, 36} reductions accumulate in registers and
/// only stage their result there for the inverse transform.
struct WinogradScratch {
  std::span<float> d;        ///< n*n gathered input tile
  std::span<float> u_all;    ///< C * n*n transformed data tiles
  std::span<float> acc_m;    ///< n*n transform-domain accumulator
  std::span<float> acc_y;    ///< m*m inverse-transformed output tile
  std::span<std::size_t> row_tile;  ///< tile-form gather: source tile row
  std::span<std::size_t> row_in;    ///< row-within-tile * tile_m
  std::span<std::size_t> col_off;   ///< tile-col * tile_m^2 + col-within
};

/// Allocation-free core of conv2d_winograd_layout: identical arithmetic in
/// the identical order, reading the input from `in` (described by `il`),
/// writing the output into `out` (described by `ol` — kNCHW or
/// kWinogradTile with the transformer's own m), with every intermediate in
/// caller-provided scratch. The plan executor in nn/forward.cpp runs every
/// Winograd conv layer through this against its per-thread workspace;
/// the allocating conv2d_winograd_layout wrapper delegates to the same
/// column walk, so the two entry points cannot diverge numerically.
///
/// Walks every column sequentially. It deliberately does not spawn its own
/// parallel_for — the hot caller (nn/forward.cpp) already fans out across
/// images above this call with exactly one carved scratch per workspace,
/// so intra-call threading belongs to the allocating wrapper, which owns
/// per-worker scratch. Accumulation order as for conv2d_winograd_layout.
void conv2d_winograd_layout_into(const tensor::Layout& il,
                                 std::span<const float> in,
                                 const TransformedKernels& tk,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt,
                                 const tensor::Layout& ol,
                                 std::span<float> out, bool fuse_relu,
                                 const WinogradScratch& scratch);

}  // namespace wino::winograd

// Runtime Winograd convolution kernels (float): the F(m x m, r x r) tile
// transforms, the reference layer walk and the executor's layer
// convolution.
//
// Every tile transform is one matrix sandwich, out = mat * in * mat^T.
// TileTransformer picks, once at construction, a copy of that sandwich
// with compile-time loop bounds for each transform of F(2,3), F(3,3) and
// F(4,3) — the forms the planner's candidates run on 3x3 layers — and the
// runtime-bound loop (winograd::sandwich) for any other shape. Both
// copies perform the same operations in the same order, so their outputs
// are memcmp-equal (pinned by tests/winograd_kernels_test.cpp); every
// walk below, the filter-bank prewarm and the planner's measurements run
// through them.
//
// Layer-level evaluation mirrors the paper's system (Fig 7): the image is
// decomposed into overlapping (m+r-1)^2 tiles with stride m, and kernels
// are pre-transformed once (V = G g G^T, Section IV "filter transforms are
// assumed to be precomputed"). The reference walk (conv2d_winograd)
// accumulates channels either in the transform domain (software-optimal,
// one inverse per output tile) or after the inverse transform (matching
// the hardware's accumulation buffers); their equivalence is a linearity
// property the test suite checks, and it is the oracle every other walk is
// pinned to. The executor's convolution (conv2d_winograd_layout[_into]) is
// the fp32 reducer of the one shared tile walk (winograd/tile_walk.hpp),
// which the int8 and fixed-point forms also run: transform-domain order
// only, gathering tiles from an NCHW activation and scattering NCHW.
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

/// out = mat * in * mat^T for a rows x cols `mat`: `in` is cols x cols
/// and `out` rows x rows, both row-major. The runtime-bound loop:
/// zero entries of `mat` are skipped in the first product, and every
/// accumulator starts at 0 and adds in ascending index order. Throws
/// std::invalid_argument when a tile extent does not match `mat`.
void sandwich(const FMatrix& mat, std::span<const float> in,
              std::span<float> out);

/// Precompiled float-domain tile transformer for one F(m x m, r x r).
/// Stateless after construction; safe to share across threads for reads.
/// Each transform runs winograd::sandwich's arithmetic; the constructor
/// binds each matrix to a fixed-bound instantiation of it where one
/// exists for the matrix's shape.
class TileTransformer {
 public:
  explicit TileTransformer(const TransformSet& t);

  [[nodiscard]] int m() const { return m_; }
  [[nodiscard]] int r() const { return r_; }
  [[nodiscard]] int tile() const { return n_; }

  /// V = G g G^T. g: r*r row-major, v: n*n row-major.
  void transform_filter(std::span<const float> g, std::span<float> v) const {
    filter_fn_(g_, g, v);
  }

  /// U = B^T d B. d: n*n row-major, u: n*n.
  void transform_data(std::span<const float> d, std::span<float> u) const {
    data_fn_(bt_, d, u);
  }

  /// Y = A^T M A. mm: n*n, y: m*m.
  void inverse(std::span<const float> mm, std::span<float> y) const {
    inverse_fn_(at_, mm, y);
  }

 private:
  using SandwichFn = void (*)(const FMatrix&, std::span<const float>,
                              std::span<float>);

  int m_ = 0;
  int r_ = 0;
  int n_ = 0;
  FMatrix bt_;
  FMatrix g_;
  FMatrix at_;
  SandwichFn data_fn_ = nullptr;
  SandwichFn filter_fn_ = nullptr;
  SandwichFn inverse_fn_ = nullptr;
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
                           const tensor::Tensor4fView& kernels,
                           std::span<float> out);

/// As above for an owning kernel tensor.
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
  /// The whole bank, [k][c][n*n].
  [[nodiscard]] std::span<const float> flat() const { return data_; }

 private:
  std::size_t kernels_ = 0;
  std::size_t channels_ = 0;
  std::size_t tile_sq_ = 0;
  std::vector<float> data_;  ///< [k][c][n*n]
};

/// Non-owning view of a transformed kernel bank, [k][c][n*n] contiguous:
/// what the executor's walk reads. Converts implicitly from
/// TransformedKernels (as std::span does from a vector), or wraps a
/// caller-owned span that transform_filter_bank filled, so a walk can run
/// against a bank that lives in caller scratch.
class KernelBank {
 public:
  /// Throws std::invalid_argument unless `data` holds exactly
  /// kernels * channels * tile_area floats.
  KernelBank(std::span<const float> data, std::size_t kernels,
             std::size_t channels, std::size_t tile_area);
  KernelBank(const TransformedKernels& tk)  // NOLINT(google-explicit-constructor)
      : KernelBank(tk.flat(), tk.kernel_count(), tk.channels(),
                   tk.tile_area()) {}

  /// All C tiles of kernel k, [c][n*n] contiguous.
  [[nodiscard]] std::span<const float> v(std::size_t k) const {
    return data_.subspan(k * channels_ * tile_sq_, channels_ * tile_sq_);
  }
  [[nodiscard]] std::size_t kernel_count() const { return kernels_; }
  [[nodiscard]] std::size_t channels() const { return channels_; }
  [[nodiscard]] std::size_t tile_area() const { return tile_sq_; }

 private:
  std::span<const float> data_;
  std::size_t kernels_ = 0;
  std::size_t channels_ = 0;
  std::size_t tile_sq_ = 0;
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

/// The executor's layer convolution, allocating its NCHW output.
/// `fuse_relu` folds the elementwise max(x, 0) into the output scatter,
/// replacing the separate full-tensor ReLU pass.
///
/// Every output element is computed by exactly the arithmetic of
/// conv2d_winograd(input, tk, xf, opt) — the gather reads the same values,
/// the transform/accumulation order is untouched, and ReLU is the same
/// formula applied to the same result — so the two are bit-identical at
/// every element (pinned by tests/winograd_fused_test.cpp and
/// tests/tensor_layout_test.cpp).
///
/// It runs the shared tile walk (winograd/tile_walk.hpp) with the fp32
/// reducer: per column the C channels are transformed once, then per
/// kernel the n*n tile is accumulated over ascending c, inverse-transformed
/// and scattered. That is the per-element order of conv2d_winograd's
/// transform-domain walk, so the result is memcmp-equal to it. This wrapper
/// splits the columns across the deterministic ThreadPool — each worker
/// owns a private scratch and a contiguous column range — and since every
/// accumulator chain is confined to one column, any thread count produces
/// the same bytes.
///
/// Transform-domain accumulation only: any other opt.accumulation throws
/// std::invalid_argument (the post-inverse order lives in the reference
/// walk, conv2d_winograd).
tensor::Tensor4f conv2d_winograd_layout(const tensor::Tensor4f& input,
                                        const TransformedKernels& tk,
                                        const TileTransformer& xf,
                                        const WinogradConvOptions& opt,
                                        bool fuse_relu);

/// Scratch of the shared tile walk (winograd/tile_walk.hpp): the data tile
/// d, the column's transform bank and the accumulation tiles. Carved out
/// of a workspace slab by nn::carve_winograd_scratch, which is also the
/// single definition of each span's extent. acc_m holds the n*n tile each
/// reducer hands to the inverse transform: the fp32 runtime-n fallback
/// accumulates there, while the specialised n*n in {16, 25, 36}
/// reductions accumulate in registers and only stage their result there.
struct WinogradScratch {
  std::span<float> d;      ///< n*n gathered input tile
  std::span<float> u_all;  ///< C * n*n transformed data tiles
  std::span<float> acc_m;  ///< n*n transform-domain accumulator
  std::span<float> acc_y;  ///< m*m inverse-transformed output tile
};

/// Allocation-free core of conv2d_winograd_layout: identical arithmetic in
/// the identical order, reading the NCHW input from `in` (described by
/// `il`), writing the NCHW output into `out` (described by `ol`), with
/// every intermediate in caller-provided scratch. The plan executor in
/// nn/forward.cpp runs every Winograd conv layer through this against its
/// per-thread workspace, and the planner times fp32 Winograd candidates
/// through it against a bank in caller scratch; the allocating
/// conv2d_winograd_layout wrapper delegates to the same column walk, so
/// the entry points cannot diverge numerically. `il` and `ol` must be kNCHW (std::invalid_argument
/// otherwise): the Layout parameters stay only because
/// bench/e2e/replay.cpp passes the plan's act_layout through them, and
/// they leave together with that file (ROADMAP item 1).
///
/// Walks every column sequentially. It deliberately does not spawn its own
/// parallel_for — the hot caller (nn/forward.cpp) already fans out across
/// images above this call with exactly one carved scratch per workspace,
/// so intra-call threading belongs to the allocating wrapper, which owns
/// per-worker scratch. Accumulation order as for conv2d_winograd_layout.
void conv2d_winograd_layout_into(const tensor::Layout& il,
                                 std::span<const float> in,
                                 const KernelBank& bank,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt,
                                 const tensor::Layout& ol,
                                 std::span<float> out, bool fuse_relu,
                                 const WinogradScratch& scratch);

}  // namespace wino::winograd

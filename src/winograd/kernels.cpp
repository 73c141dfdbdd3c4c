#include "winograd/kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "winograd/tile_accumulate.hpp"
#include "winograd/tile_walk.hpp"

namespace wino::winograd {

using tensor::Tensor4f;

void sandwich(const FMatrix& mat, std::span<const float> in,
              std::span<float> out) {
  const std::size_t rows = mat.rows();
  const std::size_t cols = mat.cols();
  if (in.size() != cols * cols || out.size() != rows * rows) {
    throw std::invalid_argument("sandwich: tile size mismatch");
  }
  // tmp = mat * in  (rows x cols). Tile edges are tiny (n = m + r - 1 <= 6
  // for every supported F(m, r)), so the intermediate lives on the stack —
  // this runs per gathered tile in the conv hot loop, where a heap
  // allocation per call would dominate the arithmetic.
  float stack_buf[64];
  std::vector<float> heap_buf;
  float* tmp;
  if (rows * cols <= std::size(stack_buf)) {
    tmp = stack_buf;
  } else {
    heap_buf.resize(rows * cols);
    tmp = heap_buf.data();
  }
  std::fill(tmp, tmp + rows * cols, 0.0F);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < cols; ++k) {
      const float a = mat(i, k);
      if (a == 0.0F) continue;
      for (std::size_t j = 0; j < cols; ++j) {
        tmp[i * cols + j] += a * in[k * cols + j];
      }
    }
  }
  // out = tmp * mat^T (rows x rows)
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < rows; ++j) {
      float acc = 0.0F;
      for (std::size_t k = 0; k < cols; ++k) {
        acc += tmp[i * cols + k] * mat(j, k);
      }
      out[i * rows + j] = acc;
    }
  }
}

namespace {

/// sandwich() with the loop bounds of a Rows x Cols `mat` fixed at compile
/// time: the same zero-skip, the same zero-initialised tmp and acc, the
/// same loop order, so every output rounds exactly as the runtime loop's.
/// The fixed bounds let the compiler unroll the tile loops and keep tmp in
/// registers.
template <std::size_t Rows, std::size_t Cols>
void sandwich_fixed(const FMatrix& mat, std::span<const float> in,
                    std::span<float> out) {
  if (in.size() != Cols * Cols || out.size() != Rows * Rows) {
    throw std::invalid_argument("sandwich: tile size mismatch");
  }
  const float* a = mat.data();
  const float* x = in.data();
  float tmp[Rows * Cols] = {};
  for (std::size_t i = 0; i < Rows; ++i) {
    for (std::size_t k = 0; k < Cols; ++k) {
      const float aik = a[i * Cols + k];
      if (aik == 0.0F) continue;
      for (std::size_t j = 0; j < Cols; ++j) {
        tmp[i * Cols + j] += aik * x[k * Cols + j];
      }
    }
  }
  for (std::size_t i = 0; i < Rows; ++i) {
    for (std::size_t j = 0; j < Rows; ++j) {
      float acc = 0.0F;
      for (std::size_t k = 0; k < Cols; ++k) {
        acc += tmp[i * Cols + k] * a[j * Cols + k];
      }
      out[i * Rows + j] = acc;
    }
  }
}

using SandwichFn = decltype(&sandwich);

struct FixedSandwich {
  std::size_t rows, cols;
  SandwichFn fn;
};

/// One instantiation per (rows, cols) the transforms of F(2,3), F(3,3)
/// and F(4,3) use: B^T is n x n, A^T m x n and G n x r.
constexpr FixedSandwich kFixedSandwiches[] = {
    {4, 4, sandwich_fixed<4, 4>}, {5, 5, sandwich_fixed<5, 5>},
    {6, 6, sandwich_fixed<6, 6>}, {2, 4, sandwich_fixed<2, 4>},
    {3, 5, sandwich_fixed<3, 5>}, {4, 6, sandwich_fixed<4, 6>},
    {4, 3, sandwich_fixed<4, 3>}, {5, 3, sandwich_fixed<5, 3>},
    {6, 3, sandwich_fixed<6, 3>},
};

/// The fixed-bound sandwich for `mat`'s shape, else the runtime loop.
SandwichFn bind_sandwich(const FMatrix& mat) {
  for (const FixedSandwich& f : kFixedSandwiches) {
    if (f.rows == mat.rows() && f.cols == mat.cols()) return f.fn;
  }
  return &sandwich;
}

}  // namespace

TileTransformer::TileTransformer(const TransformSet& t)
    : m_(t.m), r_(t.r), n_(t.tile()), bt_(t.bt_f()), g_(t.g_f()),
      at_(t.at_f()), data_fn_(bind_sandwich(bt_)),
      filter_fn_(bind_sandwich(g_)), inverse_fn_(bind_sandwich(at_)) {}

void transform_filter_bank(const TileTransformer& xf,
                           const tensor::Tensor4fView& kernels,
                           std::span<float> out) {
  const auto& ks = kernels.shape();
  const auto r = static_cast<std::size_t>(xf.r());
  if (ks.h != r || ks.w != r) {
    throw std::invalid_argument("transform_filter_bank: kernel size != r x r");
  }
  const auto nsq =
      static_cast<std::size_t>(xf.tile()) * static_cast<std::size_t>(xf.tile());
  const std::size_t filters = ks.n * ks.c;
  if (out.size() != filters * nsq) {
    throw std::invalid_argument("transform_filter_bank: output extent");
  }
  // KCrr is contiguous, so filter f = k * C + c is the f-th r*r run of the
  // flat bank and lands on the f-th n*n run of `out`.
  const auto flat = kernels.flat();
  runtime::parallel_for(filters, [&](std::size_t begin, std::size_t end) {
    for (std::size_t f = begin; f < end; ++f) {
      xf.transform_filter(flat.subspan(f * r * r, r * r),
                          out.subspan(f * nsq, nsq));
    }
  });
}

void transform_filter_bank(const TileTransformer& xf, const Tensor4f& kernels,
                           std::span<float> out) {
  transform_filter_bank(
      xf, tensor::Tensor4fView(kernels.shape(), kernels.flat()), out);
}

KernelBank::KernelBank(std::span<const float> data, std::size_t kernels,
                       std::size_t channels, std::size_t tile_area)
    : data_(data), kernels_(kernels), channels_(channels),
      tile_sq_(tile_area) {
  if (data.size() != kernels * channels * tile_area) {
    throw std::invalid_argument("KernelBank: span size != bank extent");
  }
}

TransformedKernels::TransformedKernels(const TileTransformer& xf,
                                       const Tensor4f& kernels)
    : kernels_(kernels.shape().n), channels_(kernels.shape().c),
      tile_sq_(static_cast<std::size_t>(xf.tile()) *
               static_cast<std::size_t>(xf.tile())),
      data_(kernels_ * channels_ * tile_sq_) {
  transform_filter_bank(xf, kernels, data_);
}

Tensor4f conv2d_winograd(const Tensor4f& input, const Tensor4f& kernels,
                         int m, const WinogradConvOptions& opt) {
  const TileTransformer xf(
      transforms(m, static_cast<int>(kernels.shape().h)));
  return conv2d_winograd(input, kernels, xf, opt);
}

Tensor4f conv2d_winograd(const Tensor4f& input, const Tensor4f& kernels,
                         const TileTransformer& xf,
                         const WinogradConvOptions& opt) {
  const auto& ks = kernels.shape();
  const auto r = static_cast<std::size_t>(xf.r());
  if (ks.h != r || ks.w != r) {
    throw std::invalid_argument("conv2d_winograd: kernel shape mismatch");
  }
  const TransformedKernels tk(xf, kernels);
  return conv2d_winograd(input, tk, xf, opt);
}

Tensor4f conv2d_winograd(const Tensor4f& input, const TransformedKernels& tk,
                         const TileTransformer& xf,
                         const WinogradConvOptions& opt) {
  const auto& is = input.shape();
  const std::size_t kernel_count = tk.kernel_count();
  const auto r = static_cast<std::size_t>(xf.r());
  const auto tile = static_cast<std::size_t>(xf.tile());
  if (tk.tile_area() != tile * tile) {
    throw std::invalid_argument(
        "conv2d_winograd: kernel bank was transformed for a different tile");
  }
  if (tk.channels() != is.c) {
    throw std::invalid_argument("conv2d_winograd: channel mismatch");
  }
  const int pad = opt.pad;
  const std::ptrdiff_t oh =
      static_cast<std::ptrdiff_t>(is.h) + 2 * pad - static_cast<std::ptrdiff_t>(r) + 1;
  const std::ptrdiff_t ow =
      static_cast<std::ptrdiff_t>(is.w) + 2 * pad - static_cast<std::ptrdiff_t>(r) + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d_winograd: output would be empty");
  }
  const auto out_h = static_cast<std::size_t>(oh);
  const auto out_w = static_cast<std::size_t>(ow);

  const auto mm = static_cast<std::size_t>(xf.m());
  const auto n = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n * n;
  const std::size_t tiles_h = (out_h + mm - 1) / mm;
  const std::size_t tiles_w = (out_w + mm - 1) / mm;

  Tensor4f out(is.n, kernel_count, out_h, out_w);

  std::vector<float> d(nsq);
  // Data transforms for all channels of the current tile, computed once
  // and shared across the K kernels — the software mirror of the paper's
  // first hardware contribution (Section IV-E): U is independent of k, so
  // recomputing it per kernel (as [3]'s PEs do) is redundant.
  std::vector<float> u_all(is.c * nsq);
  std::vector<float> prod(nsq);
  std::vector<float> acc_m(nsq);
  std::vector<float> y(mm * mm);
  std::vector<float> acc_y(mm * mm);

  for (std::size_t img = 0; img < is.n; ++img) {
    for (std::size_t th = 0; th < tiles_h; ++th) {
      for (std::size_t tw = 0; tw < tiles_w; ++tw) {
        const std::ptrdiff_t y0 = static_cast<std::ptrdiff_t>(th * mm) - pad;
        const std::ptrdiff_t x0 = static_cast<std::ptrdiff_t>(tw * mm) - pad;

        for (std::size_t c = 0; c < is.c; ++c) {
          // Gather the (possibly padded) input tile.
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              d[i * n + j] =
                  input.padded(img, c, y0 + static_cast<std::ptrdiff_t>(i),
                               x0 + static_cast<std::ptrdiff_t>(j));
            }
          }
          xf.transform_data(d, {u_all.data() + c * nsq, nsq});
        }

        for (std::size_t k = 0; k < kernel_count; ++k) {
          std::fill(acc_m.begin(), acc_m.end(), 0.0F);
          std::fill(acc_y.begin(), acc_y.end(), 0.0F);
          for (std::size_t c = 0; c < is.c; ++c) {
            const float* u = u_all.data() + c * nsq;
            const auto v = tk.v(k, c);
            if (opt.accumulation == AccumulationOrder::kTransformDomain) {
              for (std::size_t i = 0; i < nsq; ++i) acc_m[i] += u[i] * v[i];
            } else {
              for (std::size_t i = 0; i < nsq; ++i) prod[i] = u[i] * v[i];
              xf.inverse(prod, y);
              for (std::size_t i = 0; i < y.size(); ++i) acc_y[i] += y[i];
            }
          }
          if (opt.accumulation == AccumulationOrder::kTransformDomain) {
            xf.inverse(acc_m, acc_y);
          }

          // Scatter the m x m output tile, clipping the right/bottom edge.
          for (std::size_t i = 0; i < mm; ++i) {
            const std::size_t oy = th * mm + i;
            if (oy >= out_h) break;
            for (std::size_t j = 0; j < mm; ++j) {
              const std::size_t ox = tw * mm + j;
              if (ox >= out_w) break;
              out(img, k, oy, ox) = acc_y[i * mm + j];
            }
          }
        }
      }
    }
  }
  return out;
}

namespace {

/// The fp32 reducer over columns [begin, end): per kernel, the
/// transform-domain channel reduction of tile_accumulate.hpp. Instantiated
/// here, where -ffp-contract=off makes its multiply-adds round like the
/// reference walk's.
void run_fp32_columns(const TileWalk& g, const KernelBank& bank,
                      const WinogradScratch& s, std::size_t begin,
                      std::size_t end) {
  const auto accumulate = accumulate_for<float, float>(g.nsq);
  walk_columns(
      g, s, begin, end, [](std::span<const float>) {},
      [&](std::size_t k) {
        accumulate(s.u_all.data(), bank.v(k).data(), g.channels, g.nsq,
                   s.acc_m.data());
        return std::span<const float>(s.acc_m);
      });
}

/// Validate everything but the scratch and build the walk geometry.
TileWalk make_layout_walk(const tensor::Layout& il, std::span<const float> in,
                          const KernelBank& bank,
                          const TileTransformer& xf,
                          const WinogradConvOptions& opt,
                          const tensor::Layout& ol, std::span<float> out,
                          bool fuse_relu) {
  using tensor::LayoutKind;
  if (il.kind != LayoutKind::kNCHW || ol.kind != LayoutKind::kNCHW) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: input and output must be NCHW");
  }
  if (opt.accumulation != AccumulationOrder::kTransformDomain) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: transform-domain accumulation only (the "
        "post-inverse order runs in conv2d_winograd)");
  }
  const TileWalk g = make_tile_walk(
      "conv2d_winograd_layout", il.shape, in, xf, bank.channels(),
      bank.tile_area(), bank.kernel_count(), opt.pad, out, fuse_relu);
  if (!(ol.shape == g.output_shape())) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output layout does not match this conv");
  }
  return g;
}

}  // namespace

void conv2d_winograd_layout_into(const tensor::Layout& il,
                                 std::span<const float> in,
                                 const KernelBank& bank,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt,
                                 const tensor::Layout& ol,
                                 std::span<float> out, bool fuse_relu,
                                 const WinogradScratch& scratch) {
  const TileWalk g =
      make_layout_walk(il, in, bank, xf, opt, ol, out, fuse_relu);
  validate_walk_scratch("conv2d_winograd_layout", g, scratch);
  run_fp32_columns(g, bank, scratch, 0, g.columns());
}

Tensor4f conv2d_winograd_layout(const Tensor4f& input,
                                const TransformedKernels& tk,
                                const TileTransformer& xf,
                                const WinogradConvOptions& opt,
                                bool fuse_relu) {
  using tensor::Layout;
  Tensor4f out(walk_output_shape("conv2d_winograd_layout", input.shape(), xf,
                                 tk.kernel_count(), opt.pad));
  const KernelBank bank(tk);
  const TileWalk g =
      make_layout_walk(Layout::nchw(input.shape()), input.flat(), bank, xf, opt,
                       Layout::nchw(out.shape()), out.flat(), fuse_relu);

  // Every worker chunk owns a private scratch and a contiguous column
  // range; per-column arithmetic is independent of the chunking, so any
  // thread count produces the same bytes.
  runtime::parallel_for(g.columns(), [&](std::size_t begin, std::size_t end) {
    const OwnedWinogradScratch o(g.channels, g.n, g.mm);
    run_fp32_columns(g, bank, o.spans(), begin, end);
  });
  return out;
}

}  // namespace wino::winograd

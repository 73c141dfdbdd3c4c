#include "winograd/kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "winograd/tile_accumulate.hpp"

namespace wino::winograd {

using tensor::Tensor4f;

TileTransformer::TileTransformer(const TransformSet& t)
    : m_(t.m), r_(t.r), n_(t.tile()), bt_(t.bt_f()), g_(t.g_f()),
      at_(t.at_f()) {}

void TileTransformer::sandwich(const FMatrix& mat, std::span<const float> in,
                               std::span<float> out) const {
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

void TileTransformer::transform_filter(std::span<const float> g,
                                       std::span<float> v) const {
  sandwich(g_, g, v);
}

void TileTransformer::transform_data(std::span<const float> d,
                                     std::span<float> u) const {
  sandwich(bt_, d, u);
}

void TileTransformer::inverse(std::span<const float> mm,
                              std::span<float> y) const {
  sandwich(at_, mm, y);
}

void TileTransformer::convolve_tile(std::span<const float> d,
                                    std::span<const float> g,
                                    std::span<float> y) const {
  const auto nsq = static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
  std::vector<float> u(nsq);
  std::vector<float> v(nsq);
  transform_data(d, u);
  transform_filter(g, v);
  for (std::size_t i = 0; i < nsq; ++i) u[i] *= v[i];
  inverse(u, y);
}

void TileTransformer::convolve_1d(std::span<const float> d,
                                  std::span<const float> g,
                                  std::span<float> y) const {
  const auto n = static_cast<std::size_t>(n_);
  if (d.size() != n || g.size() != static_cast<std::size_t>(r_) ||
      y.size() != static_cast<std::size_t>(m_)) {
    throw std::invalid_argument("convolve_1d: size mismatch");
  }
  std::vector<float> u(n, 0.0F);
  std::vector<float> v(n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) u[i] += bt_(i, j) * d[j];
    for (std::size_t j = 0; j < g.size(); ++j) v[i] += g_(i, j) * g[j];
    u[i] *= v[i];
  }
  for (std::size_t k = 0; k < y.size(); ++k) {
    float acc = 0.0F;
    for (std::size_t i = 0; i < n; ++i) acc += at_(k, i) * u[i];
    y[k] = acc;
  }
}

void transform_filter_bank(const TileTransformer& xf, const Tensor4f& kernels,
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

/// Geometry and buffer pointers of one conv2d_winograd_layout[_into]
/// call, immutable during the column walk.
struct LayoutConv {
  const float* src = nullptr;
  float* dst = nullptr;
  const TransformedKernels* tk = nullptr;
  const TileTransformer* xf = nullptr;
  bool fuse_relu = false;
  int pad = 0;
  std::size_t channels = 0, kernel_count = 0;
  std::size_t in_n = 0, in_h = 0, in_w = 0, out_h = 0, out_w = 0;
  std::size_t mm = 0, n = 0, nsq = 0;
  std::size_t tiles_h = 0, tiles_w = 0;

  /// Flattened tile-column count: (img, th, tw) in lexicographic order.
  [[nodiscard]] std::size_t columns() const {
    return in_n * tiles_h * tiles_w;
  }
};

/// Valid data extent of the gather window at tile position (th, tw).
struct Window {
  std::ptrdiff_t y0 = 0, x0 = 0;
  std::size_t i_lo = 0, i_hi = 0, j_lo = 0, j_hi = 0;
  bool padded = false;
};

Window make_window(const LayoutConv& g, std::size_t th, std::size_t tw) {
  Window w;
  w.y0 = static_cast<std::ptrdiff_t>(th * g.mm) - g.pad;
  w.x0 = static_cast<std::ptrdiff_t>(tw * g.mm) - g.pad;
  w.i_lo = w.y0 < 0 ? static_cast<std::size_t>(-w.y0) : 0;
  w.i_hi = std::min(g.n, static_cast<std::size_t>(std::max<std::ptrdiff_t>(
                             0, static_cast<std::ptrdiff_t>(g.in_h) - w.y0)));
  w.j_lo = w.x0 < 0 ? static_cast<std::size_t>(-w.x0) : 0;
  w.j_hi = std::min(g.n, static_cast<std::size_t>(std::max<std::ptrdiff_t>(
                             0, static_cast<std::ptrdiff_t>(g.in_w) - w.x0)));
  w.padded = w.i_lo > 0 || w.i_hi < g.n || w.j_lo > 0 || w.j_hi < g.n;
  return w;
}

/// Fill d with channel c of the gather window at (img, w).
void gather_channel(const LayoutConv& g, std::span<float> d, const Window& w,
                    std::size_t img, std::size_t c) {
  if (w.padded) std::fill(d.begin(), d.end(), 0.0F);
  const float* plane = g.src + (img * g.channels + c) * g.in_h * g.in_w;
  for (std::size_t i = w.i_lo; i < w.i_hi; ++i) {
    const float* rowp =
        plane +
        static_cast<std::size_t>(w.y0 + static_cast<std::ptrdiff_t>(i)) *
            g.in_w +
        static_cast<std::size_t>(w.x0 + static_cast<std::ptrdiff_t>(w.j_lo));
    float* drow = d.data() + i * g.n;
    // Plain loop, not std::copy: the span is a handful of floats, and a
    // memmove call per tile row costs more than the loads it performs.
    for (std::size_t j = w.j_lo; j < w.j_hi; ++j) {
      drow[j] = rowp[j - w.j_lo];
    }
  }
}

/// Scatter acc_y (m*m) for kernel k at tile (img, th, tw) into the NCHW
/// output, clipping the ragged right/bottom edge.
void scatter_tile(const LayoutConv& g, std::span<const float> acc_y,
                  std::size_t img, std::size_t k, std::size_t th,
                  std::size_t tw) {
  const std::size_t mm = g.mm;
  const std::size_t ie = std::min(mm, g.out_h - th * mm);
  const std::size_t je = std::min(mm, g.out_w - tw * mm);
  float* out_plane = g.dst + (img * g.kernel_count + k) * g.out_h * g.out_w;
  for (std::size_t i = 0; i < ie; ++i) {
    float* orow = out_plane + (th * mm + i) * g.out_w + tw * mm;
    const float* ay = acc_y.data() + i * mm;
    if (g.fuse_relu) {
      for (std::size_t j = 0; j < je; ++j) {
        orow[j] = ay[j] > 0.0F ? ay[j] : 0.0F;
      }
    } else {
      for (std::size_t j = 0; j < je; ++j) orow[j] = ay[j];
    }
  }
}

/// Decode flattened column index -> (img, th, tw).
void decode_column(const LayoutConv& g, std::size_t col, std::size_t& img,
                   std::size_t& th, std::size_t& tw) {
  const std::size_t per_img = g.tiles_h * g.tiles_w;
  img = col / per_img;
  const std::size_t rem = col % per_img;
  th = rem / g.tiles_w;
  tw = rem % g.tiles_w;
}

/// The transform-domain tile walk over columns [col_begin, col_end): per
/// column, gather and transform the C channels into the u_all bank once,
/// then per kernel accumulate, inverse-transform and scatter its tile.
void run_columns(const LayoutConv& g, const WinogradScratch& s,
                 std::size_t col_begin, std::size_t col_end) {
  const TileTransformer& xf = *g.xf;
  const TransformedKernels& tk = *g.tk;
  const std::size_t nsq = g.nsq;
  const auto accumulate = accumulate_for<float, float>(nsq);
  float* u_all = s.u_all.data();

  for (std::size_t col = col_begin; col < col_end; ++col) {
    std::size_t img = 0, th = 0, tw = 0;
    decode_column(g, col, img, th, tw);
    const Window w = make_window(g, th, tw);

    for (std::size_t c = 0; c < g.channels; ++c) {
      gather_channel(g, s.d, w, img, c);
      xf.transform_data(s.d, {u_all + c * nsq, nsq});
    }

    for (std::size_t k = 0; k < g.kernel_count; ++k) {
      accumulate(u_all, tk.v(k).data(), g.channels, nsq, s.acc_m.data());
      xf.inverse(s.acc_m, s.acc_y);
      scatter_tile(g, s.acc_y, img, k, th, tw);
    }
  }
}

/// Validate everything but the scratch and build the walk geometry.
LayoutConv make_layout_conv(const tensor::Layout& il,
                            std::span<const float> in,
                            const TransformedKernels& tk,
                            const TileTransformer& xf,
                            const WinogradConvOptions& opt,
                            const tensor::Layout& ol, std::span<float> out,
                            bool fuse_relu) {
  using tensor::LayoutKind;
  if (il.kind != LayoutKind::kNCHW || ol.kind != LayoutKind::kNCHW) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: input and output must be NCHW");
  }
  if (in.size() != il.volume()) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: buffer size != layout volume");
  }
  if (opt.accumulation != AccumulationOrder::kTransformDomain) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: transform-domain accumulation only (the "
        "post-inverse order runs in conv2d_winograd)");
  }
  const auto& is = il.shape;
  const auto r = static_cast<std::size_t>(xf.r());
  const auto tile = static_cast<std::size_t>(xf.tile());
  if (tk.tile_area() != tile * tile) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: kernel bank transformed for another tile");
  }
  if (tk.channels() != is.c) {
    throw std::invalid_argument("conv2d_winograd_layout: channel mismatch");
  }
  const int pad = opt.pad;
  const std::ptrdiff_t oh = static_cast<std::ptrdiff_t>(is.h) + 2 * pad -
                            static_cast<std::ptrdiff_t>(r) + 1;
  const std::ptrdiff_t ow = static_cast<std::ptrdiff_t>(is.w) + 2 * pad -
                            static_cast<std::ptrdiff_t>(r) + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output would be empty");
  }

  LayoutConv g;
  g.src = in.data();
  g.dst = out.data();
  g.tk = &tk;
  g.xf = &xf;
  g.fuse_relu = fuse_relu;
  g.pad = pad;
  g.channels = is.c;
  g.kernel_count = tk.kernel_count();
  g.in_n = is.n;
  g.in_h = is.h;
  g.in_w = is.w;
  g.out_h = static_cast<std::size_t>(oh);
  g.out_w = static_cast<std::size_t>(ow);
  g.mm = static_cast<std::size_t>(xf.m());
  g.n = tile;
  g.nsq = tile * tile;
  g.tiles_h = (g.out_h + g.mm - 1) / g.mm;
  g.tiles_w = (g.out_w + g.mm - 1) / g.mm;

  const tensor::Shape4 out_shape{is.n, g.kernel_count, g.out_h, g.out_w};
  if (!(ol.shape == out_shape)) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output layout does not match this conv");
  }
  if (out.size() != ol.volume()) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output buffer size != layout volume");
  }
  return g;
}

/// Validate the scratch against the geometry.
void validate_scratch(const LayoutConv& g, const WinogradScratch& s) {
  const std::size_t nsq = g.nsq;
  if (s.d.size() != nsq || s.u_all.size() != g.channels * nsq ||
      s.acc_m.size() != nsq || s.acc_y.size() != g.mm * g.mm) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: scratch size mismatch");
  }
}

/// Heap-backed scratch for the allocating wrapper (one per worker chunk).
struct OwnedScratch {
  std::vector<float> f;
  WinogradScratch s;
};

OwnedScratch make_owned_scratch(std::size_t channels, std::size_t n,
                                std::size_t mm) {
  const std::size_t nsq = n * n;
  OwnedScratch o;
  o.f.resize(nsq + channels * nsq + nsq + mm * mm);
  float* f = o.f.data();
  o.s.d = {f, nsq};
  f += nsq;
  o.s.u_all = {f, channels * nsq};
  f += channels * nsq;
  o.s.acc_m = {f, nsq};
  f += nsq;
  o.s.acc_y = {f, mm * mm};
  return o;
}

}  // namespace

void conv2d_winograd_layout_into(const tensor::Layout& il,
                                 std::span<const float> in,
                                 const TransformedKernels& tk,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt,
                                 const tensor::Layout& ol,
                                 std::span<float> out, bool fuse_relu,
                                 const WinogradScratch& scratch) {
  const LayoutConv g =
      make_layout_conv(il, in, tk, xf, opt, ol, out, fuse_relu);
  validate_scratch(g, scratch);
  run_columns(g, scratch, 0, g.columns());
}

Tensor4f conv2d_winograd_layout(const Tensor4f& input,
                                const TransformedKernels& tk,
                                const TileTransformer& xf,
                                const WinogradConvOptions& opt,
                                bool fuse_relu) {
  using tensor::Layout;
  const Layout il = Layout::nchw(input.shape());
  const auto& is = il.shape;
  const auto r = static_cast<std::size_t>(xf.r());
  const int pad = opt.pad;
  const std::ptrdiff_t oh = static_cast<std::ptrdiff_t>(is.h) + 2 * pad -
                            static_cast<std::ptrdiff_t>(r) + 1;
  const std::ptrdiff_t ow = static_cast<std::ptrdiff_t>(is.w) + 2 * pad -
                            static_cast<std::ptrdiff_t>(r) + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output would be empty");
  }
  Tensor4f out(is.n, tk.kernel_count(), static_cast<std::size_t>(oh),
               static_cast<std::size_t>(ow));
  const LayoutConv g =
      make_layout_conv(il, input.flat(), tk, xf, opt,
                       Layout::nchw(out.shape()), out.flat(), fuse_relu);

  // Every worker chunk owns a private scratch and a contiguous column
  // range; per-column arithmetic is independent of the chunking, so any
  // thread count produces the same bytes.
  runtime::parallel_for(g.columns(), [&](std::size_t begin, std::size_t end) {
    const OwnedScratch o = make_owned_scratch(is.c, g.n, g.mm);
    run_columns(g, o.s, begin, end);
  });
  return out;
}

}  // namespace wino::winograd

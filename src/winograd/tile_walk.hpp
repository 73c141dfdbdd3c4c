// The one Winograd tile walk behind every runtime form: the fp32 executor
// (winograd/kernels.cpp), the int8 form (quant/int8.cpp) and the
// fixed-point datapath (quant/fixed_point.cpp). The reference walk
// conv2d_winograd stays separate as the oracle the others are pinned to.
//
// The walk visits one tile column (image, tile row, tile column) at a
// time: gather the C channels of its (m+r-1)^2 window from the NCHW input
// and transform each once into the C*n*n bank u_all — the paper's shared
// data transform (Section IV-E, Fig 7) — then, per kernel, invert the
// kernel's transform-domain tile and scatter its m x m outputs NCHW,
// clipping the ragged right/bottom edge and optionally fusing ReLU as
// x > 0 ? x : 0 (the executor's and forward_reference's formula, which
// maps NaN to 0). What differs between the forms is only the channel
// reduction, supplied as two callables:
//
//   prepare(u_all)  once per column, after the C data transforms (the int8
//                   form quantizes here, the fixed-point form rounds U);
//   tile(k)         kernel k's n*n transform-domain tile, to be inverted.
//
// The walk itself does no arithmetic beyond the transforms, which run in
// winograd/kernels.cpp under -ffp-contract=off, so instantiating it in any
// translation unit rounds the same way.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "winograd/kernels.hpp"

namespace wino::winograd {

/// NCHW output shape of a stride-1 F(m x m, r x r) walk over `in` with
/// `kernel_count` kernels. Throws std::invalid_argument, prefixed by
/// `who`, when the output would be empty.
inline tensor::Shape4 walk_output_shape(const char* who,
                                        const tensor::Shape4& in,
                                        const TileTransformer& xf,
                                        std::size_t kernel_count, int pad) {
  const std::ptrdiff_t oh =
      static_cast<std::ptrdiff_t>(in.h) + 2 * pad - xf.r() + 1;
  const std::ptrdiff_t ow =
      static_cast<std::ptrdiff_t>(in.w) + 2 * pad - xf.r() + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(std::string(who) + ": output would be empty");
  }
  return {in.n, kernel_count, static_cast<std::size_t>(oh),
          static_cast<std::size_t>(ow)};
}

/// Geometry and buffers of one walk, immutable while it runs.
struct TileWalk {
  const float* src = nullptr;
  float* dst = nullptr;
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
  [[nodiscard]] tensor::Shape4 output_shape() const {
    return {in_n, kernel_count, out_h, out_w};
  }
};

/// Validate one walk's operands and build its geometry. `bank_channels`
/// and `bank_tile_area` describe the caller's kernel bank. Throws
/// std::invalid_argument, prefixed by `who`, on any mismatch.
inline TileWalk make_tile_walk(const char* who, const tensor::Shape4& in_shape,
                               std::span<const float> in,
                               const TileTransformer& xf,
                               std::size_t bank_channels,
                               std::size_t bank_tile_area,
                               std::size_t kernel_count, int pad,
                               std::span<float> out, bool fuse_relu) {
  const auto fail = [who](const char* what) {
    return std::invalid_argument(std::string(who) + ": " + what);
  };
  if (in.size() != in_shape.volume()) {
    throw fail("input buffer size != shape volume");
  }
  const auto tile = static_cast<std::size_t>(xf.tile());
  if (bank_tile_area != tile * tile) {
    throw fail("kernel bank transformed for another tile");
  }
  if (bank_channels != in_shape.c) throw fail("channel mismatch");
  const tensor::Shape4 os =
      walk_output_shape(who, in_shape, xf, kernel_count, pad);
  if (out.size() != os.volume()) {
    throw fail("output buffer size != output volume");
  }
  TileWalk g;
  g.src = in.data();
  g.dst = out.data();
  g.xf = &xf;
  g.fuse_relu = fuse_relu;
  g.pad = pad;
  g.channels = in_shape.c;
  g.kernel_count = kernel_count;
  g.in_n = in_shape.n;
  g.in_h = in_shape.h;
  g.in_w = in_shape.w;
  g.out_h = os.h;
  g.out_w = os.w;
  g.mm = static_cast<std::size_t>(xf.m());
  g.n = tile;
  g.nsq = tile * tile;
  g.tiles_h = (g.out_h + g.mm - 1) / g.mm;
  g.tiles_w = (g.out_w + g.mm - 1) / g.mm;
  return g;
}

/// Throws std::invalid_argument unless `s` is sized for `g`.
inline void validate_walk_scratch(const char* who, const TileWalk& g,
                                  const WinogradScratch& s) {
  if (s.d.size() != g.nsq || s.u_all.size() != g.channels * g.nsq ||
      s.acc_m.size() != g.nsq || s.acc_y.size() != g.mm * g.mm) {
    throw std::invalid_argument(std::string(who) + ": scratch size mismatch");
  }
}

/// Heap-backed WinogradScratch for the allocating wrappers. It points into
/// its own buffer, so it is neither copied nor moved.
class OwnedWinogradScratch {
 public:
  OwnedWinogradScratch(std::size_t channels, std::size_t n, std::size_t mm)
      : buf_(n * n + channels * n * n + n * n + mm * mm) {
    const std::size_t nsq = n * n;
    float* f = buf_.data();
    s_.d = {f, nsq};
    s_.u_all = {f + nsq, channels * nsq};
    s_.acc_m = {f + nsq + channels * nsq, nsq};
    s_.acc_y = {f + nsq + channels * nsq + nsq, mm * mm};
  }
  OwnedWinogradScratch(const OwnedWinogradScratch&) = delete;
  OwnedWinogradScratch& operator=(const OwnedWinogradScratch&) = delete;

  [[nodiscard]] const WinogradScratch& spans() const { return s_; }

 private:
  std::vector<float> buf_;
  WinogradScratch s_;
};

namespace detail {

/// Valid data extent of the gather window at tile position (th, tw).
struct Window {
  std::ptrdiff_t y0 = 0, x0 = 0;
  std::size_t i_lo = 0, i_hi = 0, j_lo = 0, j_hi = 0;
  bool padded = false;
};

inline Window make_window(const TileWalk& g, std::size_t th, std::size_t tw) {
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

/// Fill d with channel c of the gather window at (img, w), one NCHW row
/// run per tile row; the padding stays zero.
inline void gather_channel(const TileWalk& g, std::span<float> d,
                           const Window& w, std::size_t img, std::size_t c) {
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

/// Scatter the m*m tile y of kernel k at (img, th, tw) into the NCHW
/// output, clipping the ragged right/bottom edge.
inline void scatter_tile(const TileWalk& g, std::span<const float> y,
                         std::size_t img, std::size_t k, std::size_t th,
                         std::size_t tw) {
  const std::size_t mm = g.mm;
  const std::size_t ie = std::min(mm, g.out_h - th * mm);
  const std::size_t je = std::min(mm, g.out_w - tw * mm);
  float* out_plane = g.dst + (img * g.kernel_count + k) * g.out_h * g.out_w;
  for (std::size_t i = 0; i < ie; ++i) {
    float* orow = out_plane + (th * mm + i) * g.out_w + tw * mm;
    const float* yr = y.data() + i * mm;
    if (g.fuse_relu) {
      for (std::size_t j = 0; j < je; ++j) {
        orow[j] = yr[j] > 0.0F ? yr[j] : 0.0F;
      }
    } else {
      for (std::size_t j = 0; j < je; ++j) orow[j] = yr[j];
    }
  }
}

}  // namespace detail

/// Walk tile columns [col_begin, col_end) of `g` with scratch `s` (sized
/// per validate_walk_scratch). Per column: gather and transform the C
/// channels into s.u_all, call prepare(s.u_all), then for each kernel k
/// invert tile(k) — a span of n*n floats — into s.acc_y and scatter it.
/// Columns are independent, so disjoint ranges may run on different
/// threads with private scratch and produce the same bytes.
template <typename Prepare, typename Tile>
void walk_columns(const TileWalk& g, const WinogradScratch& s,
                  std::size_t col_begin, std::size_t col_end,
                  Prepare&& prepare, Tile&& tile) {
  const TileTransformer& xf = *g.xf;
  const std::size_t nsq = g.nsq;
  const std::size_t per_img = g.tiles_h * g.tiles_w;
  for (std::size_t col = col_begin; col < col_end; ++col) {
    const std::size_t img = col / per_img;
    const std::size_t rem = col % per_img;
    const std::size_t th = rem / g.tiles_w;
    const std::size_t tw = rem % g.tiles_w;
    const detail::Window w = detail::make_window(g, th, tw);
    for (std::size_t c = 0; c < g.channels; ++c) {
      detail::gather_channel(g, s.d, w, img, c);
      xf.transform_data(s.d, s.u_all.subspan(c * nsq, nsq));
    }
    prepare(s.u_all);
    for (std::size_t k = 0; k < g.kernel_count; ++k) {
      xf.inverse(tile(k), s.acc_y);
      detail::scatter_tile(g, s.acc_y, img, k, th, tw);
    }
  }
}

}  // namespace wino::winograd

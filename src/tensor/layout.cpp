#include "tensor/layout.hpp"

#include <stdexcept>

namespace wino::tensor {

namespace {

/// Conv output extent (input + both pads, kernel r, stride s); throws when
/// the window never fits. Mirrors conv::conv_out_extent, restated here so
/// the tensor layer stays at the bottom of the dependency stack.
std::size_t out_extent(std::size_t in, std::size_t r, int pad, int stride) {
  const std::ptrdiff_t padded =
      static_cast<std::ptrdiff_t>(in) + 2 * pad - static_cast<std::ptrdiff_t>(r);
  if (padded < 0 || stride < 1) {
    throw std::invalid_argument("Layout: im2col window never fits input");
  }
  return static_cast<std::size_t>(padded) / static_cast<std::size_t>(stride) +
         1;
}

}  // namespace

std::string to_string(LayoutKind kind) {
  switch (kind) {
    case LayoutKind::kNCHW:
      return "nchw";
    case LayoutKind::kIm2colPanel:
      return "im2col-panel";
  }
  return "unknown";
}

std::string to_string(const Layout& layout) {
  std::string s = to_string(layout.kind);
  if (layout.kind == LayoutKind::kIm2colPanel) {
    s += "(r=" + std::to_string(layout.patch_r) +
         ",pad=" + std::to_string(layout.pad_h) + "x" +
         std::to_string(layout.pad_w) +
         ",stride=" + std::to_string(layout.stride) + ")";
  }
  return s;
}

Layout Layout::nchw(Shape4 shape) {
  Layout l;
  l.kind = LayoutKind::kNCHW;
  l.shape = shape;
  return l;
}

Layout Layout::im2col_panel(Shape4 shape, std::size_t r, int pad_h,
                            int pad_w, int stride) {
  if (r == 0 || stride < 1 || pad_h < 0 || pad_w < 0) {
    throw std::invalid_argument("Layout::im2col_panel: bad parameters");
  }
  Layout l;
  l.kind = LayoutKind::kIm2colPanel;
  l.shape = shape;
  l.patch_r = r;
  l.pad_h = pad_h;
  l.pad_w = pad_w;
  l.stride = stride;
  (void)l.panel_out_h();  // validate the window fits now, not at pack time
  (void)l.panel_out_w();
  return l;
}

std::size_t Layout::panel_out_h() const {
  return out_extent(shape.h, patch_r, pad_h, stride);
}
std::size_t Layout::panel_out_w() const {
  return out_extent(shape.w, patch_r, pad_w, stride);
}

std::size_t Layout::volume() const {
  switch (kind) {
    case LayoutKind::kNCHW:
      return shape.volume();
    case LayoutKind::kIm2colPanel:
      return shape.n * shape.c * patch_r * patch_r * panel_out_h() *
             panel_out_w();
  }
  return 0;
}

PackedActivation PackedActivation::from_nchw(Tensor4f&& t) {
  const Shape4 shape = t.shape();
  return {Layout::nchw(shape), std::move(t).release()};
}

namespace {

void pack_im2col_panel(const Tensor4f& src, const Layout& l,
                       std::vector<float>& dst) {
  const auto& s = l.shape;
  const std::size_t r = l.patch_r;
  const std::size_t out_h = l.panel_out_h();
  const std::size_t out_w = l.panel_out_w();
  const std::size_t rows = s.c * r * r;
  const std::size_t cols = out_h * out_w;
  for (std::size_t n = 0; n < s.n; ++n) {
    for (std::size_t row = 0; row < rows; ++row) {
      im2col_lower_row(src, n, r, l.pad_h, l.pad_w, l.stride, row, out_h,
                       out_w,
                       {dst.data() + (n * rows + row) * cols, cols});
    }
  }
}

void unpack_im2col_panel(const PackedActivation& src, Tensor4f& dst) {
  const Layout& l = src.layout;
  const auto& s = l.shape;
  const std::size_t r = l.patch_r;
  const std::size_t out_h = l.panel_out_h();
  const std::size_t out_w = l.panel_out_w();
  const std::size_t panel = s.c * r * r * out_h * out_w;
  // Every patch element writes back to its source pixel; pixels sampled by
  // several overlapping patches receive the same value several times, and
  // pixels no patch samples (possible only for stride > 1) stay at the
  // zero initialisation.
  for (std::size_t n = 0; n < s.n; ++n) {
    std::size_t in = n * panel;
    for (std::size_t c = 0; c < s.c; ++c) {
      for (std::size_t u = 0; u < r; ++u) {
        for (std::size_t v = 0; v < r; ++v) {
          for (std::size_t oy = 0; oy < out_h; ++oy) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy) * l.stride +
                static_cast<std::ptrdiff_t>(u) - l.pad_h;
            for (std::size_t ox = 0; ox < out_w; ++ox, ++in) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox) * l.stride +
                  static_cast<std::ptrdiff_t>(v) - l.pad_w;
              if (iy >= 0 && ix >= 0 &&
                  static_cast<std::size_t>(iy) < s.h &&
                  static_cast<std::size_t>(ix) < s.w) {
                dst(n, c, static_cast<std::size_t>(iy),
                    static_cast<std::size_t>(ix)) = src.data[in];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

PackedActivation pack(const Tensor4f& nchw, const Layout& target) {
  if (!(nchw.shape() == target.shape)) {
    throw std::invalid_argument("pack: tensor shape != layout shape");
  }
  PackedActivation out{target, std::vector<float>(target.volume())};
  switch (target.kind) {
    case LayoutKind::kNCHW: {
      const auto flat = nchw.flat();
      std::copy(flat.begin(), flat.end(), out.data.begin());
      break;
    }
    case LayoutKind::kIm2colPanel:
      pack_im2col_panel(nchw, target, out.data);
      break;
  }
  return out;
}

Tensor4f unpack(const PackedActivation& packed) {
  if (packed.data.size() != packed.layout.volume()) {
    throw std::invalid_argument("unpack: buffer size != layout volume");
  }
  switch (packed.layout.kind) {
    case LayoutKind::kNCHW:
      return Tensor4f(packed.layout.shape, std::vector<float>(packed.data));
    case LayoutKind::kIm2colPanel: {
      Tensor4f out(packed.layout.shape);
      unpack_im2col_panel(packed, out);
      return out;
    }
  }
  throw std::invalid_argument("unpack: unknown layout kind");
}

bool im2col_covers_input(const Layout& layout) {
  if (layout.kind != LayoutKind::kIm2colPanel) {
    throw std::invalid_argument("im2col_covers_input: not an im2col layout");
  }
  if (layout.stride == 1) return true;
  // The last window starts at s*(out-1) - pad and spans r pixels; every
  // pixel before it is covered because consecutive windows overlap or abut
  // whenever r >= stride. Pixels at or beyond start+r are never sampled.
  const auto covers = [&](std::size_t extent, int pad, std::size_t out) {
    if (layout.patch_r < static_cast<std::size_t>(layout.stride)) {
      return extent + static_cast<std::size_t>(pad) <= layout.patch_r;
    }
    const std::ptrdiff_t last_start =
        static_cast<std::ptrdiff_t>(layout.stride) *
            (static_cast<std::ptrdiff_t>(out) - 1) -
        pad;
    return last_start + static_cast<std::ptrdiff_t>(layout.patch_r) >=
           static_cast<std::ptrdiff_t>(extent);
  };
  return covers(layout.shape.h, layout.pad_h, layout.panel_out_h()) &&
         covers(layout.shape.w, layout.pad_w, layout.panel_out_w());
}

}  // namespace wino::tensor

// Activation layouts and the pack/unpack conversion kernels between them.
//
// Activations pass between layers in NCHW, the interchange layout every
// conv backend reads. The im2col GEMM additionally consumes a
// (C*r*r) x (outH*outW) patch panel built from that NCHW activation; the
// Winograd walks tile the image inside each layer (overlapping
// (m+r-1)^2 windows gathered straight from NCHW), so no tile form ever
// leaves a layer. `Layout` + `PackedActivation` make the form explicit:
//
//  * kNCHW          dense (n, c, h, w), w fastest — Tensor4f's layout.
//  * kIm2colPanel   the im2col lowering [n][c*r*r][outH*outW] for a given
//                   (r, pad_h, pad_w, stride). Exact inverse whenever
//                   every input pixel is sampled by at least one patch
//                   (always for stride 1; see im2col_covers_input()).
//
// Both conversions are value-preserving: packing then unpacking returns
// the original tensor bit-for-bit wherever the panel covers the input
// (tests/tensor_layout_test.cpp sweeps stride > 1 and asymmetric padding).
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace wino::tensor {

enum class LayoutKind {
  kNCHW,         ///< dense (n, c, h, w) — the interchange layout
  kIm2colPanel,  ///< im2col patch panel: [n][c*r*r][outH*outW]
};

[[nodiscard]] std::string to_string(LayoutKind kind);

/// Full description of an activation's in-memory form: the logical NCHW
/// shape it represents plus the parameters of the packing applied to it.
struct Layout {
  LayoutKind kind = LayoutKind::kNCHW;
  Shape4 shape{};          ///< logical NCHW shape of the activation

  std::size_t patch_r = 0; ///< kIm2colPanel: kernel size r
  int pad_h = 0;           ///< kIm2colPanel: vertical padding
  int pad_w = 0;           ///< kIm2colPanel: horizontal padding
  int stride = 1;          ///< kIm2colPanel: spatial stride

  [[nodiscard]] static Layout nchw(Shape4 shape);
  [[nodiscard]] static Layout im2col_panel(Shape4 shape, std::size_t r,
                                           int pad_h, int pad_w, int stride);

  /// kIm2colPanel: the conv output extents the panel columns enumerate.
  [[nodiscard]] std::size_t panel_out_h() const;
  [[nodiscard]] std::size_t panel_out_w() const;

  /// Physical floats of storage this layout occupies (>= shape.volume()
  /// for im2col patch overlap).
  [[nodiscard]] std::size_t volume() const;

  friend bool operator==(const Layout&, const Layout&) = default;
};

[[nodiscard]] std::string to_string(const Layout& layout);

/// An activation tensor in an explicit layout: flat storage plus the
/// Layout describing how to read it. For kNCHW the data is exactly a
/// Tensor4f's flat buffer (and moves in/out of one without copying).
struct PackedActivation {
  Layout layout;
  std::vector<float> data;

  /// Wrap an NCHW tensor without copying.
  [[nodiscard]] static PackedActivation from_nchw(Tensor4f&& t);
};

/// Convert an NCHW tensor into `target` (whose shape must match). Packing
/// to kNCHW is a plain move-free copy of the buffer.
[[nodiscard]] PackedActivation pack(const Tensor4f& nchw,
                                    const Layout& target);

/// Convert back to NCHW. Exact inverse of pack() for kNCHW always, and
/// for kIm2colPanel whenever the panel samples every input pixel (see
/// im2col_covers_input); unsampled pixels — only possible with stride > 1
/// — come back as zero.
[[nodiscard]] Tensor4f unpack(const PackedActivation& packed);

/// True when every input pixel of `layout.shape` appears in at least one
/// im2col patch, i.e. pack -> unpack through kIm2colPanel is the identity.
/// Always true for stride 1; with stride s > 1 the trailing edge can fall
/// between patch windows when (extent + pads - r) is not a multiple of s.
[[nodiscard]] bool im2col_covers_input(const Layout& layout);

/// Lower patch rows [row_begin, row_end) of one image into `out`, row
/// after row, outH * outW values each. Row `row` is the fixed (c, u, v) =
/// (row / r², (row / r) % r, row % r); the range steps (c, u, v) instead
/// of dividing per row, which dominated the lowering of small maps. Each
/// output row is the input row iy = oy * stride + u - pad_h sampled at
/// ix = ox * stride + v - pad_w: the in-bounds samples form one rectangle
/// of (oy, ox) that depends only on (u, v), so each of its rows is copied
/// as a run over a zero-filled range — the values Tensor4::padded reads,
/// element for element (pinned against it by tests/tensor_layout_test.cpp). The single source of truth for the
/// im2col patch enumeration order and padding handling: tensor::pack
/// lowers every row through it and conv::im2col fans contiguous row
/// ranges out over the pool, so the two panels are byte-identical by
/// construction (the determinism contract the panel conv consumer relies
/// on). Templated over the tensor type so owning Tensor4f and non-owning
/// Tensor4fView (slab-backed activations in the workspace executor) lower
/// through the identical code path.
template <typename TensorLike>
inline void im2col_lower_rows(const TensorLike& input, std::size_t image,
                              std::size_t r, int pad_h, int pad_w, int stride,
                              std::size_t row_begin, std::size_t row_end,
                              std::size_t out_h, std::size_t out_w,
                              std::span<float> out) {
  const Shape4& s = input.shape();
  const auto in_h = static_cast<std::ptrdiff_t>(s.h);
  const auto in_w = static_cast<std::ptrdiff_t>(s.w);
  const auto step = static_cast<std::ptrdiff_t>(stride);
  // First output index whose sample offset o * stride reaches `lo`.
  const auto first_reaching = [&](std::ptrdiff_t lo) {
    if (lo <= 0) return std::size_t{0};
    return static_cast<std::size_t>(stride == 1 ? lo : (lo + step - 1) / step);
  };
  std::size_t c = row_begin / (r * r);
  std::size_t u = (row_begin / r) % r;
  std::size_t v = row_begin % r;
  // Zero the range once, then copy each row's in-bounds samples over it:
  // one fill beats a fill per clipped edge, which on small maps costs more
  // than the copies.
  const std::size_t cols = out_h * out_w;
  std::fill(out.begin(), out.begin() + (row_end - row_begin) * cols, 0.0F);
  float* dst = out.data();
  for (std::size_t row = row_begin; row < row_end; ++row, dst += cols) {
    // Output rows [oy_lo, oy_hi) and columns [ox_lo, ox_hi) sample inside
    // the input; everything else is padding.
    const std::ptrdiff_t y0 = static_cast<std::ptrdiff_t>(u) - pad_h;
    const std::ptrdiff_t x0 = static_cast<std::ptrdiff_t>(v) - pad_w;
    const std::size_t ox_lo = std::min(out_w, first_reaching(-x0));
    const std::size_t ox_hi =
        std::max(ox_lo, std::min(out_w, first_reaching(in_w - x0)));
    const std::size_t oy_lo = std::min(out_h, first_reaching(-y0));
    const std::size_t oy_hi =
        std::max(oy_lo, std::min(out_h, first_reaching(in_h - y0)));
    const std::size_t len = ox_hi - ox_lo;
    const float* plane =
        input.flat().data() + (image * s.c + c) * s.h * s.w;
    for (std::size_t oy = oy_lo; oy < oy_hi && len > 0; ++oy) {
      // Plain loops, not std::copy: a run is a handful of floats.
      const float* src = plane +
                         (static_cast<std::ptrdiff_t>(oy) * step + y0) * in_w +
                         static_cast<std::ptrdiff_t>(ox_lo) * step + x0;
      float* run = dst + oy * out_w + ox_lo;
      if (stride == 1) {
        for (std::size_t i = 0; i < len; ++i) run[i] = src[i];
      } else {
        for (std::size_t i = 0; i < len; ++i) {
          run[i] = src[static_cast<std::ptrdiff_t>(i) * step];
        }
      }
    }
    if (++v == r) {
      v = 0;
      if (++u == r) {
        u = 0;
        ++c;
      }
    }
  }
}

}  // namespace wino::tensor

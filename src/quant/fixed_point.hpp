// Fixed-point datapath simulation for the Winograd engine.
//
// The paper uses fp32 "without any quantization scheme for the sake of
// simplicity and high precision" (Section IV); real deployments (and the
// compared design [12], which is 16-bit) quantise. This module simulates a
// Q(total, frac) two's-complement datapath by rounding-and-saturating every
// pipeline stage boundary of the tile computation, enabling the
// wordlength-vs-accuracy ablation bench.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"
#include "winograd/cook_toom.hpp"

namespace wino::quant {

/// Two's-complement fixed point with `total_bits` including sign and
/// `frac_bits` fractional bits (e.g. Q16.12: total 16, frac 12).
struct FixedPointFormat {
  int total_bits = 16;
  int frac_bits = 8;

  [[nodiscard]] double scale() const {
    return static_cast<double>(std::int64_t{1} << frac_bits);
  }
  [[nodiscard]] double max_value() const {
    return (static_cast<double>(
                (std::int64_t{1} << (total_bits - 1)) - 1)) /
           scale();
  }
  [[nodiscard]] double min_value() const {
    return -static_cast<double>(std::int64_t{1} << (total_bits - 1)) /
           scale();
  }

  /// Round-to-nearest and saturate. Edge cases are pinned by
  /// tests/quant_test.cpp: +-inf saturate to max_value()/min_value(),
  /// NaN maps to 0 (not to the most negative code, which a naive
  /// min/max clamp would silently produce), and invalid widths
  /// (total_bits < 2 or > 32, frac_bits < 0 or >= total_bits) throw
  /// std::invalid_argument.
  [[nodiscard]] float quantize(float v) const;
};

/// Quantise every element in place.
void quantize_tensor(tensor::Tensor4f& t, const FixedPointFormat& fmt);

/// Winograd layer convolution with a simulated fixed-point datapath:
/// inputs, transformed kernels, the data-transform output U, the products
/// and the inverse-transform results are all rounded/saturated.
/// pad/stride semantics match winograd::conv2d_winograd (stride 1). Runs
/// the shared tile walk (winograd/tile_walk.hpp), so each tile's data
/// transform is computed once for all K kernels, as in the paper's engine;
/// the result is bit-identical to evaluating every (kernel, tile) on its
/// own (pinned by tests/quant_test.cpp).
///
/// `guard_bits` widens the *internal* stages (U, V, products, accumulators)
/// beyond `fmt`, keeping the fractional precision: the B^T/A^T constants
/// grow with m (row magnitude sums of ~10 for F(4,3)), so intermediate
/// values need integer headroom that the external wordlength lacks —
/// exactly the wider internal datapath a real fixed-point engine carries.
tensor::Tensor4f conv2d_winograd_quantized(const tensor::Tensor4f& input,
                                           const tensor::Tensor4f& kernels,
                                           int m,
                                           const FixedPointFormat& fmt,
                                           int pad = 0,
                                           int guard_bits = 8);

/// Error summary of a quantised run against an fp32 reference.
struct QuantError {
  float max_abs = 0;
  float rms = 0;
  float ref_max_abs = 0;  ///< scale of the reference data
  [[nodiscard]] float relative_max() const {
    return ref_max_abs > 0 ? max_abs / ref_max_abs : 0;
  }
};

QuantError compare(const tensor::Tensor4f& quantized,
                   const tensor::Tensor4f& reference);

}  // namespace wino::quant

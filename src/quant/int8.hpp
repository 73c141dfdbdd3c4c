// Int8 symmetric-quantized convolution execution.
//
// The runtime half of the paper's complexity-vs-error trade: weights carry
// per-output-channel scales (computed once at model registration),
// activations carry one per-tensor scale (static, from calibration — or
// derived per image when no calibration exists), and the convolution
// reduces in exact int32 arithmetic before one dequantizing multiply per
// output element. Two forms exist:
//
//  * im2col form — lower the patch matrix in fp32, quantize it K-contiguous
//    and run the int8 GEMM (runtime/igemm.hpp).
//  * Winograd form — pre-transform the filter bank (V = G g G^T) and
//    quantize it in the TRANSFORM domain; walk the tiles with the shared
//    tile walk (winograd/tile_walk.hpp): per tile column, transform the
//    data in fp32 (U = B^T d B) and quantize U once, then per kernel
//    reduce over channels in int32, dequantize, and apply the fp32
//    inverse transform A^T M A. Only the
//    channel reduction — the O(C) hot loop — runs in int8; the transforms
//    (O(1) per tile) stay fp32, so quantization error does not compound
//    through B^T/A^T. Whether a given F(m, 3) is safe at a layer's dynamic
//    range is winograd::ErrorModel's call (see nn::predict_layer_rel_error
//    and docs/QUANTIZATION.md).
//
// Determinism: every step is either exact integer arithmetic or fp32 ops
// applied per-image / per-tile in a fixed order, and activation scales
// depend only on calibration constants (or on the single image being
// convolved) — never on batch composition or thread count. Outputs are
// bit-identical across batch sizes, thread counts and ISAs (pinned by
// tests/quant_plan_test.cpp and tests/runtime_igemm_test.cpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"
#include "winograd/kernels.hpp"

namespace wino::quant {

/// Round-to-nearest-even symmetric int8 quantization of one value.
/// `inv_scale` is 1 / scale (pass 0 to map every finite value to 0, the
/// convention for all-zero operands). Saturates to [-127, 127] (the
/// symmetric grid; -128 is unused so negation stays closed); +-inf
/// saturate like any out-of-range value. A NaN product — a NaN input, or
/// an infinity times a zero inverse scale — maps to 0, the only code with
/// no directional bias (as in FixedPointFormat::quantize); casting it
/// would be undefined behaviour.
inline std::int8_t quantize_symmetric(float v, float inv_scale) {
  const float scaled = std::nearbyint(v * inv_scale);
  if (std::isnan(scaled)) return 0;
  const float clamped = scaled < -127.0F ? -127.0F
                        : scaled > 127.0F ? 127.0F
                                          : scaled;
  return static_cast<std::int8_t>(clamped);
}

/// Symmetric scale for a tensor slice: max|v| / 127, or 0 for an all-zero
/// slice (its quantized form is all zeros and dequantizes exactly).
[[nodiscard]] float symmetric_scale(std::span<const float> values);

/// Spatial-domain quantized filter bank for the im2col form: kernel k's
/// weights as int8 rows of length C*r*r (matching the patch matrix's
/// K-contiguous layout) with a per-output-channel scale.
struct QuantizedFilter {
  std::vector<std::int8_t> data;  ///< [k][c*r*r], K-contiguous rows
  std::vector<float> scale;       ///< per output channel: max|w_k| / 127
  std::size_t kernels = 0;        ///< output channels K
  std::size_t channels = 0;       ///< input channels C
  std::size_t r = 0;              ///< kernel edge

  /// Reduction depth of one output element (the GEMM inner dimension).
  [[nodiscard]] std::size_t inner() const { return channels * r * r; }
};

/// Quantize a KCrr kernel bank for the im2col form. Scales are
/// per-output-channel (each kernel's dynamic range is independent; a
/// shared scale would waste grid resolution on small-norm channels).
[[nodiscard]] QuantizedFilter quantize_filters(
    const tensor::Tensor4f& kernels);

/// Transform-domain quantized filter bank for the Winograd form: V tiles
/// (G g G^T, computed in fp32) quantized per (output channel, tile
/// position). The channel reduction sums across c at a fixed position, so
/// each of the n*n positions can carry its own scale — essential because
/// the transform's Vandermonde structure spreads position magnitudes over
/// orders of magnitude, and one shared scale would starve the small
/// positions of quantization levels.
struct QuantizedWinogradKernels {
  std::vector<std::int8_t> data;  ///< [k][c][n*n] quantized V tiles
  std::vector<float> scale;       ///< [k][n*n]: max_c |V_kc[i]| / 127
  std::size_t kernels = 0;        ///< output channels K
  std::size_t channels = 0;       ///< input channels C
  std::size_t tile_sq = 0;        ///< (m + r - 1)^2 values per tile
};

/// Pre-transform and quantize a KCrr kernel bank for F(m x m, r x r) under
/// `xf`. Computed once per (weights version, layer, m) and cached by the
/// nn executor alongside the fp32 transform cache.
[[nodiscard]] QuantizedWinogradKernels quantize_winograd_kernels(
    const winograd::TileTransformer& xf, const tensor::Tensor4f& kernels);

/// Caller-provided scratch for conv2d_im2col_int8_into; carved from the
/// workspace slab by nn::carve_quant_im2col_scratch. Extents are validated
/// at entry (the single point keeping carver and consumer in sync).
struct QuantIm2colScratch {
  std::span<float> panel;         ///< inner x cols fp32 patch matrix
  std::span<std::int8_t> qpanel;  ///< cols x inner quantized transpose
  std::span<std::int32_t> acc;    ///< kernels x cols int32 GEMM output
};

/// Caller-provided scratch for conv2d_winograd_int8_into; carved by
/// nn::carve_quant_winograd_scratch. Extents validated at entry. `walk` is
/// the shared tile walk's scratch (winograd/tile_walk.hpp), whose acc_m
/// holds each kernel's dequantized transform-domain tile; acc is the
/// accumulator of the runtime-n fallback, while the specialised n*n in
/// {16, 25, 36} reductions accumulate in registers and stage their sums
/// there.
struct QuantWinogradScratch {
  winograd::WinogradScratch walk;  ///< gather, fp32 U bank, tiles
  std::span<float> sv;             ///< n*n per-position data scales
  std::span<std::int8_t> uq_all;   ///< C * n*n quantized transform tiles
  std::span<std::int32_t> acc;     ///< n*n int32 channel accumulator
};

/// \brief Allocation-free int8 im2col convolution over an NCHW batch view.
///
/// Per image: fp32 im2col lowering, transpose-quantize at the activation
/// scale, exact int8 GEMM against `qf`, per-output-channel dequantize into
/// `out` (NCHW), optionally fusing ReLU into the dequantizing store.
///
/// \param input     NCHW batch view (any n).
/// \param qf        quantized filter bank matching the input's channels.
/// \param pad       symmetric zero padding (stride is 1).
/// \param act_scale static per-tensor activation scale (max|x| / 127 from
///                  calibration); <= 0 derives the scale per image from
///                  that image's max|x| — still batch- and thread-
///                  deterministic, since it depends on one image only.
/// \param fuse_relu fold max(x, 0) into the dequantizing store.
/// \param out       NCHW output span, n * K * outH * outW floats.
/// \param scratch   spans sized per QuantIm2colScratch (validated).
void conv2d_im2col_int8_into(const tensor::Tensor4fView& input,
                             const QuantizedFilter& qf, int pad,
                             float act_scale, bool fuse_relu,
                             std::span<float> out,
                             const QuantIm2colScratch& scratch);

/// \brief Allocation-free int8 Winograd convolution over an NCHW batch
/// view (tile edge and r fixed by `xf`; input and output are NCHW, like
/// every activation handed between layers).
///
/// Runs the shared tile walk (winograd/tile_walk.hpp). Per tile column:
/// fp32 data transform for every channel, then one scale per tile
/// position from the observed max across channels (the channel reduction
/// sums across c at a fixed position, so only c must share a scale) and
/// int8 quantize; per kernel: int32 channel reduction against `qk`,
/// per-position dequantize (sv[i] * qk.scale[k][i]), fp32 inverse
/// transform and the walk's clipped scatter (optionally fusing ReLU as
/// x > 0 ? x : 0, which maps NaN to 0 like forward_reference). The
/// per-position scales track the transform's position-dependent dynamic
/// range; a single worst-case ||B^T||_inf^2 scale would leave F(4x4, 3x3)
/// only a few of the 127 levels at most positions.
///
/// \param input     NCHW batch view (any n).
/// \param qk        transform-domain bank built by quantize_winograd_kernels
///                  with a transformer equivalent to `xf`.
/// \param xf        the F(m x m, r x r) transformer.
/// \param pad       symmetric zero padding (stride is 1).
/// \param act_scale accepted for run_conv signature symmetry; the Winograd
///                  form self-calibrates per tile position and ignores it
///                  (the result is deterministic either way).
/// \param fuse_relu fold max(x, 0) into the output scatter.
/// \param out       NCHW output span, n * K * outH * outW floats.
/// \param scratch   spans sized per QuantWinogradScratch (validated).
void conv2d_winograd_int8_into(const tensor::Tensor4fView& input,
                               const QuantizedWinogradKernels& qk,
                               const winograd::TileTransformer& xf, int pad,
                               float act_scale, bool fuse_relu,
                               std::span<float> out,
                               const QuantWinogradScratch& scratch);

/// Allocating im2col-form wrapper (no fused ReLU): quantizes `kernels`,
/// allocates scratch and delegates to conv2d_im2col_int8_into — the two
/// cannot diverge numerically. \see conv2d_im2col_int8_into for act_scale.
[[nodiscard]] tensor::Tensor4f conv2d_im2col_int8(
    const tensor::Tensor4f& input, const tensor::Tensor4f& kernels, int pad,
    float act_scale = 0.0F);

/// As above with a prequantized bank (the executor/measurement path —
/// filter quantization priced once, not per call).
[[nodiscard]] tensor::Tensor4f conv2d_im2col_int8(
    const tensor::Tensor4f& input, const QuantizedFilter& qf, int pad,
    float act_scale = 0.0F);

/// Allocating Winograd-form wrapper (no fused ReLU) for F(m x m, 3 x 3).
/// \see conv2d_winograd_int8_into for act_scale semantics.
[[nodiscard]] tensor::Tensor4f conv2d_winograd_int8(
    const tensor::Tensor4f& input, const tensor::Tensor4f& kernels, int m,
    int pad, float act_scale = 0.0F);

/// As above with a prequantized transform-domain bank and transformer.
[[nodiscard]] tensor::Tensor4f conv2d_winograd_int8(
    const tensor::Tensor4f& input, const QuantizedWinogradKernels& qk,
    const winograd::TileTransformer& xf, int pad, float act_scale = 0.0F);

}  // namespace wino::quant

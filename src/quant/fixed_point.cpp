#include "quant/fixed_point.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "winograd/kernels.hpp"
#include "winograd/tile_walk.hpp"

namespace wino::quant {

using tensor::Tensor4f;

float FixedPointFormat::quantize(float v) const {
  if (total_bits < 2 || total_bits > 32 || frac_bits < 0 ||
      frac_bits >= total_bits) {
    throw std::invalid_argument("FixedPointFormat: bad widths");
  }
  // NaN would silently compare its way through min/max to the most
  // negative code — a large-magnitude garbage value. Map it to zero, the
  // only code with no directional bias.
  if (std::isnan(v)) return 0.0F;
  const double scaled = std::nearbyint(static_cast<double>(v) * scale());
  const double lo = static_cast<double>(
      -(std::int64_t{1} << (total_bits - 1)));
  const double hi =
      static_cast<double>((std::int64_t{1} << (total_bits - 1)) - 1);
  // +-inf saturate like any out-of-range value: nearbyint keeps them
  // infinite and the clamp pins them to the format's extremes.
  const double clamped = std::min(hi, std::max(lo, scaled));
  return static_cast<float>(clamped / scale());
}

void quantize_tensor(Tensor4f& t, const FixedPointFormat& fmt) {
  for (float& v : t.flat()) v = fmt.quantize(v);
}

Tensor4f conv2d_winograd_quantized(const Tensor4f& input,
                                   const Tensor4f& kernels, int m,
                                   const FixedPointFormat& fmt, int pad,
                                   int guard_bits) {
  constexpr const char* kWho = "conv2d_winograd_quantized";
  if (guard_bits < 0 || fmt.total_bits + guard_bits > 32) {
    throw std::invalid_argument(
        "conv2d_winograd_quantized: guard bits out of range");
  }
  // Internal stage format: same fractional grid, wider integer headroom.
  const FixedPointFormat wide{fmt.total_bits + guard_bits, fmt.frac_bits};
  const auto& ks = kernels.shape();
  const winograd::TileTransformer xf(
      winograd::transforms(m, static_cast<int>(ks.h)));
  const auto n = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n * n;

  // Inputs and weights arrive at the external wordlength; the transformed
  // kernels V live in fixed-point kernel buffers on chip.
  Tensor4f q_input = input;
  quantize_tensor(q_input, fmt);
  Tensor4f q_kernels = kernels;
  quantize_tensor(q_kernels, fmt);
  std::vector<float> v_bank(ks.n * ks.c * nsq);
  winograd::transform_filter_bank(xf, q_kernels, v_bank);
  for (float& v : v_bank) v = wide.quantize(v);

  Tensor4f out(
      winograd::walk_output_shape(kWho, input.shape(), xf, ks.n, pad));
  const winograd::TileWalk g = winograd::make_tile_walk(
      kWho, input.shape(), q_input.flat(), xf, ks.c, nsq, ks.n, pad,
      out.flat(), /*fuse_relu=*/false);
  const winograd::OwnedWinogradScratch scratch(g.channels, n, g.mm);
  const winograd::WinogradScratch& s = scratch.spans();
  winograd::walk_columns(
      g, s, 0, g.columns(),
      [&](std::span<float> u_all) {
        for (float& u : u_all) u = wide.quantize(u);  // U register stage
      },
      [&](std::size_t k) {
        const float* v = v_bank.data() + k * g.channels * nsq;
        std::fill(s.acc_m.begin(), s.acc_m.end(), 0.0F);
        for (std::size_t c = 0; c < g.channels; ++c) {
          const float* u = s.u_all.data() + c * nsq;
          for (std::size_t i = 0; i < nsq; ++i) {
            s.acc_m[i] += wide.quantize(u[i] * v[c * nsq + i]);  // M stage
          }
        }
        for (float& a : s.acc_m) a = wide.quantize(a);
        return std::span<const float>(s.acc_m);
      });
  // Output registers narrow back to the external wordlength.
  quantize_tensor(out, fmt);
  return out;
}

QuantError compare(const Tensor4f& quantized, const Tensor4f& reference) {
  if (!(quantized.shape() == reference.shape())) {
    throw std::invalid_argument("compare: shape mismatch");
  }
  QuantError e;
  double sq = 0;
  const auto qf = quantized.flat();
  const auto rf = reference.flat();
  for (std::size_t i = 0; i < qf.size(); ++i) {
    const float diff = std::abs(qf[i] - rf[i]);
    e.max_abs = std::max(e.max_abs, diff);
    sq += static_cast<double>(diff) * diff;
    e.ref_max_abs = std::max(e.ref_max_abs, std::abs(rf[i]));
  }
  e.rms = static_cast<float>(
      std::sqrt(sq / static_cast<double>(qf.size())));
  return e;
}

}  // namespace wino::quant

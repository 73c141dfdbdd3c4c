#include "quant/int8.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "conv/im2col.hpp"
#include "runtime/igemm.hpp"
#include "winograd/tile_accumulate.hpp"
#include "winograd/tile_walk.hpp"

namespace wino::quant {
namespace {

// Largest |v| over a span; the numerator of every symmetric scale.
float span_max_abs(std::span<const float> values) {
  float worst = 0.0F;
  for (const float v : values) {
    const float m = v < 0.0F ? -v : v;
    if (m > worst) worst = m;
  }
  return worst;
}

void check_span(std::size_t got, std::size_t want, const char* name) {
  if (got != want) {
    throw std::invalid_argument(std::string("quant scratch span '") + name +
                                "': got " + std::to_string(got) +
                                " elements, need " + std::to_string(want));
  }
}

// Activation scale for one image: the static calibration scale when
// provided, else this image's own max|x| / 127. Never depends on other
// batch members, so batching cannot perturb results.
float image_act_scale(float act_scale, std::span<const float> image) {
  if (act_scale > 0.0F) return act_scale;
  return span_max_abs(image) / 127.0F;
}

}  // namespace

float symmetric_scale(std::span<const float> values) {
  return span_max_abs(values) / 127.0F;
}

QuantizedFilter quantize_filters(const tensor::Tensor4f& kernels) {
  const auto& ks = kernels.shape();
  QuantizedFilter qf;
  qf.kernels = ks.n;
  qf.channels = ks.c;
  qf.r = ks.h;
  if (ks.h != ks.w) {
    throw std::invalid_argument("quantize_filters: non-square kernels");
  }
  const std::size_t inner = qf.inner();
  qf.data.resize(qf.kernels * inner);
  qf.scale.resize(qf.kernels);
  const auto flat = kernels.flat();
  for (std::size_t k = 0; k < qf.kernels; ++k) {
    const auto row = flat.subspan(k * inner, inner);
    const float scale = symmetric_scale(row);
    qf.scale[k] = scale;
    const float inv = scale > 0.0F ? 1.0F / scale : 0.0F;
    for (std::size_t i = 0; i < inner; ++i) {
      qf.data[k * inner + i] = quantize_symmetric(row[i], inv);
    }
  }
  return qf;
}

QuantizedWinogradKernels quantize_winograd_kernels(
    const winograd::TileTransformer& xf, const tensor::Tensor4f& kernels) {
  const auto& ks = kernels.shape();
  if (ks.h != ks.w || static_cast<int>(ks.h) != xf.r()) {
    throw std::invalid_argument(
        "quantize_winograd_kernels: kernel size does not match transformer");
  }
  const std::size_t n_tile = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n_tile * n_tile;
  QuantizedWinogradKernels qk;
  qk.kernels = ks.n;
  qk.channels = ks.c;
  qk.tile_sq = nsq;
  qk.data.resize(qk.kernels * qk.channels * nsq);
  qk.scale.resize(qk.kernels * nsq);

  // Transform the whole bank in fp32 first, then pick one scale per
  // (output channel, tile position) over that position's C values: the
  // channel reduction sums across c at a fixed position, so only the c
  // axis must share a scale for the int32 sum to dequantize with a single
  // multiply — and per-position scales absorb the transform's
  // position-magnitude disparity.
  std::vector<float> v_bank(qk.kernels * qk.channels * nsq);
  winograd::transform_filter_bank(xf, kernels, v_bank);
  for (std::size_t k = 0; k < qk.kernels; ++k) {
    const float* kbase = v_bank.data() + k * qk.channels * nsq;
    for (std::size_t i = 0; i < nsq; ++i) {
      float pos_max = 0.0F;
      for (std::size_t c = 0; c < qk.channels; ++c) {
        pos_max = std::max(pos_max, std::abs(kbase[c * nsq + i]));
      }
      const float scale = pos_max / 127.0F;
      qk.scale[k * nsq + i] = scale;
      const float inv = scale > 0.0F ? 1.0F / scale : 0.0F;
      for (std::size_t c = 0; c < qk.channels; ++c) {
        qk.data[(k * qk.channels + c) * nsq + i] =
            quantize_symmetric(kbase[c * nsq + i], inv);
      }
    }
  }
  return qk;
}

void conv2d_im2col_int8_into(const tensor::Tensor4fView& input,
                             const QuantizedFilter& qf, int pad,
                             float act_scale, bool fuse_relu,
                             std::span<float> out,
                             const QuantIm2colScratch& scratch) {
  const auto& is = input.shape();
  if (is.c != qf.channels) {
    throw std::invalid_argument("conv2d_im2col_int8: channel mismatch");
  }
  const std::size_t r = qf.r;
  const std::size_t oh = is.h + 2 * static_cast<std::size_t>(pad) - r + 1;
  const std::size_t ow = is.w + 2 * static_cast<std::size_t>(pad) - r + 1;
  const std::size_t cols = oh * ow;
  const std::size_t inner = qf.inner();
  check_span(scratch.panel.size(), inner * cols, "panel");
  check_span(scratch.qpanel.size(), cols * inner, "qpanel");
  check_span(scratch.acc.size(), qf.kernels * cols, "acc");
  check_span(out.size(), is.n * qf.kernels * cols, "out");

  const std::size_t image_volume = is.c * is.h * is.w;
  for (std::size_t img = 0; img < is.n; ++img) {
    conv::im2col(input, img, r, pad, pad, 1, scratch.panel);
    const float a_scale =
        image_act_scale(act_scale, input.flat().subspan(img * image_volume,
                                                        image_volume));
    const float inv = a_scale > 0.0F ? 1.0F / a_scale : 0.0F;
    // Transpose while quantizing: the panel is (inner x cols) but the
    // GEMM wants K-contiguous rows per output pixel.
    for (std::size_t j = 0; j < cols; ++j) {
      std::int8_t* qrow = scratch.qpanel.data() + j * inner;
      for (std::size_t kk = 0; kk < inner; ++kk) {
        qrow[kk] = quantize_symmetric(scratch.panel[kk * cols + j], inv);
      }
    }
    runtime::igemm_nt(qf.kernels, cols, inner, qf.data.data(), inner,
                      scratch.qpanel.data(), inner, scratch.acc.data(), cols);
    float* obase = out.data() + img * qf.kernels * cols;
    for (std::size_t k = 0; k < qf.kernels; ++k) {
      const float deq = qf.scale[k] * a_scale;
      const std::int32_t* arow = scratch.acc.data() + k * cols;
      float* orow = obase + k * cols;
      if (fuse_relu) {
        for (std::size_t j = 0; j < cols; ++j) {
          const float v = static_cast<float>(arow[j]) * deq;
          orow[j] = v > 0.0F ? v : 0.0F;
        }
      } else {
        for (std::size_t j = 0; j < cols; ++j) {
          orow[j] = static_cast<float>(arow[j]) * deq;
        }
      }
    }
  }
}

void conv2d_winograd_int8_into(const tensor::Tensor4fView& input,
                               const QuantizedWinogradKernels& qk,
                               const winograd::TileTransformer& xf, int pad,
                               float act_scale, bool fuse_relu,
                               std::span<float> out,
                               const QuantWinogradScratch& scratch) {
  const winograd::TileWalk g = winograd::make_tile_walk(
      "conv2d_winograd_int8", input.shape(), input.flat(), xf, qk.channels,
      qk.tile_sq, qk.kernels, pad, out, fuse_relu);
  winograd::validate_walk_scratch("conv2d_winograd_int8", g, scratch.walk);
  const std::size_t nsq = g.nsq;
  const std::size_t chans = g.channels;
  check_span(scratch.sv.size(), nsq, "sv");
  check_span(scratch.uq_all.size(), chans * nsq, "uq_all");
  check_span(scratch.acc.size(), nsq, "acc");

  // The Winograd form self-calibrates in the transform domain: each tile
  // position takes its scale from the observed max across channels (the
  // channel reduction demands the c axis share a scale, nothing more) —
  // per-image/per-tile deterministic, so thread bit-identity is free. The
  // static act_scale is for the spatial-domain forms; ignore it here.
  (void)act_scale;

  // Exact int32 sums: the reduction order cannot change a bit.
  const auto accumulate =
      winograd::accumulate_for<std::int8_t, std::int32_t>(nsq);
  const std::span<float> m_f = scratch.walk.acc_m;
  winograd::walk_columns(
      g, scratch.walk, 0, g.columns(),
      [&](std::span<const float> u_all) {
        for (std::size_t i = 0; i < nsq; ++i) {
          float pos_max = 0.0F;
          for (std::size_t c = 0; c < chans; ++c) {
            pos_max = std::max(pos_max, std::abs(u_all[c * nsq + i]));
          }
          scratch.sv[i] = pos_max / 127.0F;
          const float inv = pos_max > 0.0F ? 127.0F / pos_max : 0.0F;
          for (std::size_t c = 0; c < chans; ++c) {
            scratch.uq_all[c * nsq + i] =
                quantize_symmetric(u_all[c * nsq + i], inv);
          }
        }
      },
      [&](std::size_t k) {
        accumulate(scratch.uq_all.data(), qk.data.data() + k * chans * nsq,
                   chans, nsq, scratch.acc.data());
        const float* kscale = qk.scale.data() + k * nsq;
        for (std::size_t i = 0; i < nsq; ++i) {
          m_f[i] = static_cast<float>(scratch.acc[i]) *
                   (kscale[i] * scratch.sv[i]);
        }
        return std::span<const float>(m_f);
      });
}

namespace {

// Shared allocating-path scratch setup so the wrappers stay thin and the
// _into cores remain the single numerical definition.
tensor::Tensor4f run_im2col_int8(const tensor::Tensor4f& input,
                                 const QuantizedFilter& qf, int pad,
                                 float act_scale) {
  const auto& is = input.shape();
  const std::size_t oh = is.h + 2 * static_cast<std::size_t>(pad) - qf.r + 1;
  const std::size_t ow = is.w + 2 * static_cast<std::size_t>(pad) - qf.r + 1;
  const std::size_t cols = oh * ow;
  const std::size_t inner = qf.inner();
  std::vector<float> panel(inner * cols);
  std::vector<std::int8_t> qpanel(cols * inner);
  std::vector<std::int32_t> acc(qf.kernels * cols);
  tensor::Tensor4f out(is.n, qf.kernels, oh, ow);
  conv2d_im2col_int8_into(
      tensor::Tensor4fView(is, input.flat()), qf, pad, act_scale,
      /*fuse_relu=*/false, out.flat(),
      QuantIm2colScratch{panel, qpanel, acc});
  return out;
}

tensor::Tensor4f run_winograd_int8(const tensor::Tensor4f& input,
                                   const QuantizedWinogradKernels& qk,
                                   const winograd::TileTransformer& xf,
                                   int pad, float act_scale) {
  const auto& is = input.shape();
  const auto n_tile = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n_tile * n_tile;
  const winograd::OwnedWinogradScratch walk(
      is.c, n_tile, static_cast<std::size_t>(xf.m()));
  std::vector<float> sv(nsq);
  std::vector<std::int8_t> uq_all(is.c * nsq);
  std::vector<std::int32_t> acc(nsq);
  tensor::Tensor4f out(winograd::walk_output_shape(
      "conv2d_winograd_int8", is, xf, qk.kernels, pad));
  conv2d_winograd_int8_into(tensor::Tensor4fView(is, input.flat()), qk, xf,
                            pad, act_scale, /*fuse_relu=*/false, out.flat(),
                            QuantWinogradScratch{.walk = walk.spans(),
                                                 .sv = sv,
                                                 .uq_all = uq_all,
                                                 .acc = acc});
  return out;
}

}  // namespace

tensor::Tensor4f conv2d_im2col_int8(const tensor::Tensor4f& input,
                                    const tensor::Tensor4f& kernels, int pad,
                                    float act_scale) {
  return run_im2col_int8(input, quantize_filters(kernels), pad, act_scale);
}

tensor::Tensor4f conv2d_im2col_int8(const tensor::Tensor4f& input,
                                    const QuantizedFilter& qf, int pad,
                                    float act_scale) {
  return run_im2col_int8(input, qf, pad, act_scale);
}

tensor::Tensor4f conv2d_winograd_int8(const tensor::Tensor4f& input,
                                      const tensor::Tensor4f& kernels, int m,
                                      int pad, float act_scale) {
  const winograd::TileTransformer xf(
      winograd::transforms(m, static_cast<int>(kernels.shape().h)));
  return run_winograd_int8(input, quantize_winograd_kernels(xf, kernels), xf,
                           pad, act_scale);
}

tensor::Tensor4f conv2d_winograd_int8(const tensor::Tensor4f& input,
                                      const QuantizedWinogradKernels& qk,
                                      const winograd::TileTransformer& xf,
                                      int pad, float act_scale) {
  return run_winograd_int8(input, qk, xf, pad, act_scale);
}

}  // namespace wino::quant

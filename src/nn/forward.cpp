#include "nn/forward.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "common/random.hpp"
#include "conv/fft.hpp"
#include "conv/im2col.hpp"
#include "conv/spatial.hpp"
#include "nn/plan.hpp"
#include "quant/int8.hpp"
#include "runtime/thread_pool.hpp"
#include "winograd/kernels.hpp"

namespace wino::nn {

using tensor::Tensor4f;

int winograd_m(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kWinograd2:
      return 2;
    case ConvAlgo::kWinograd3:
      return 3;
    case ConvAlgo::kWinograd4:
      return 4;
    default:
      return 0;
  }
}

bool is_int8(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kInt8Im2col:
    case ConvAlgo::kInt8Winograd2:
    case ConvAlgo::kInt8Winograd4:
      return true;
    default:
      return false;
  }
}

int int8_winograd_m(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kInt8Winograd2:
      return 2;
    case ConvAlgo::kInt8Winograd4:
      return 4;
    default:
      return 0;
  }
}

namespace {

/// One cached per-layer Winograd prep: the compiled F(m x m, r x r)
/// transformer plus the transformed kernel bank V = G g G^T for every
/// (k, c). Immutable after construction, shared read-only across threads.
struct CachedTransforms {
  winograd::TileTransformer xf;
  winograd::TransformedKernels tk;

  CachedTransforms(int m, const Tensor4f& kernels)
      : xf(winograd::transforms(m, static_cast<int>(kernels.shape().h))),
        tk(xf, kernels) {}
};

struct TransformKey {
  std::uint64_t version;
  std::size_t layer;
  int m;
  std::size_t r;

  friend bool operator==(const TransformKey&, const TransformKey&) = default;
};

struct TransformKeyHash {
  std::size_t operator()(const TransformKey& k) const {
    std::size_t h = std::hash<std::uint64_t>{}(k.version);
    h = h * 1315423911u ^ std::hash<std::size_t>{}(k.layer);
    h = h * 1315423911u ^ std::hash<int>{}(k.m);
    return h * 1315423911u ^ std::hash<std::size_t>{}(k.r);
  }
};

/// Process-wide cache of immutable per-layer kernel preps keyed by
/// (weights version, layer, m, r). Serving workloads call forward() many
/// times over frozen weights; without it every call re-transforms (or
/// re-quantizes) every filter of every layer, per sub-batch. Bounded FIFO
/// so abandoned weight versions age out.
///
/// A miss builds its entry with the mutex released, then inserts it only
/// if the key is still absent (the first insert wins; a racing builder's
/// copy is dropped). The build fans out over the global pool, and the
/// chunks of an in-flight forward take this mutex for their lookups while
/// their caller holds the pool's job slot — building under the mutex
/// would deadlock a registration against a serving model.
template <typename Entry>
class KernelPrepCache {
 public:
  std::shared_ptr<const Entry> get(const TransformKey& key,
                                   const Tensor4f& kernels) {
    {
      std::lock_guard lock(mutex_);
      if (auto it = map_.find(key); it != map_.end()) {
        ++hits_;
        return it->second;
      }
      ++misses_;
    }
    auto entry = std::make_shared<const Entry>(key.m, kernels);
    std::lock_guard lock(mutex_);
    const auto [it, inserted] = map_.emplace(key, std::move(entry));
    if (inserted) {
      order_.push_back(key);
      while (order_.size() > kMaxEntries) {
        map_.erase(order_.front());
        order_.pop_front();
      }
    }
    return it->second;
  }

  TransformCacheStats stats() {
    std::lock_guard lock(mutex_);
    return {hits_, misses_, map_.size()};
  }

  void clear() {
    std::lock_guard lock(mutex_);
    map_.clear();
    order_.clear();
    hits_ = misses_ = 0;
  }

 private:
  // Generous for one serving model (VGG-16 has 13 conv layers) while
  // bounding memory when weight versions churn.
  static constexpr std::size_t kMaxEntries = 256;

  std::mutex mutex_;
  std::unordered_map<TransformKey, std::shared_ptr<const Entry>,
                     TransformKeyHash>
      map_;
  std::deque<TransformKey> order_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

using TransformCache = KernelPrepCache<CachedTransforms>;

TransformCache& transform_cache() {
  static TransformCache cache;
  return cache;
}

/// One cached per-layer quantized kernel prep: the spatial-domain int8
/// bank (m == 0, the im2col form) or the transform-domain int8 bank plus
/// its transformer (m > 0). Immutable after construction, shared
/// read-only across threads — the quantized sibling of CachedTransforms.
struct CachedQuantKernels {
  // Exactly one of {filter} / {xf, wino} is engaged, by key.m.
  std::unique_ptr<const quant::QuantizedFilter> filter;
  std::unique_ptr<const winograd::TileTransformer> xf;
  std::unique_ptr<const quant::QuantizedWinogradKernels> wino;

  CachedQuantKernels(int m, const Tensor4f& kernels) {
    if (m == 0) {
      filter = std::make_unique<const quant::QuantizedFilter>(
          quant::quantize_filters(kernels));
    } else {
      xf = std::make_unique<const winograd::TileTransformer>(
          winograd::transforms(m, static_cast<int>(kernels.shape().h)));
      wino = std::make_unique<const quant::QuantizedWinogradKernels>(
          quant::quantize_winograd_kernels(*xf, kernels));
    }
  }
};

/// The quantized banks, keyed like the fp32 transform cache with m = 0
/// for the im2col form. Weight quantization happens once per frozen model,
/// not per forward call — the "per-channel weight scales computed at model
/// registration" contract (prewarm_transforms warms this at add_model
/// time).
using QuantKernelCache = KernelPrepCache<CachedQuantKernels>;

QuantKernelCache& quant_cache() {
  static QuantKernelCache cache;
  return cache;
}

}  // namespace

std::uint64_t next_weight_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

TransformCacheStats transform_cache_stats() {
  return transform_cache().stats();
}

void clear_transform_cache() {
  transform_cache().clear();
  quant_cache().clear();
}

std::string to_string(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kSpatial:
      return "spatial";
    case ConvAlgo::kIm2col:
      return "im2col";
    case ConvAlgo::kFft:
      return "fft";
    case ConvAlgo::kWinograd2:
      return "winograd-F(2x2,3x3)";
    case ConvAlgo::kWinograd3:
      return "winograd-F(3x3,3x3)";
    case ConvAlgo::kWinograd4:
      return "winograd-F(4x4,3x3)";
    case ConvAlgo::kInt8Im2col:
      return "int8-im2col";
    case ConvAlgo::kInt8Winograd2:
      return "int8-winograd-F(2x2,3x3)";
    case ConvAlgo::kInt8Winograd4:
      return "int8-winograd-F(4x4,3x3)";
  }
  return "unknown";
}

ConvAlgo parse_conv_algo(const std::string& name) {
  for (const ConvAlgo algo :
       {ConvAlgo::kSpatial, ConvAlgo::kIm2col, ConvAlgo::kFft,
        ConvAlgo::kWinograd2, ConvAlgo::kWinograd3, ConvAlgo::kWinograd4,
        ConvAlgo::kInt8Im2col, ConvAlgo::kInt8Winograd2,
        ConvAlgo::kInt8Winograd4}) {
    if (name == to_string(algo)) return algo;
  }
  if (name == "winograd2" || name == "w2") return ConvAlgo::kWinograd2;
  if (name == "winograd3" || name == "w3") return ConvAlgo::kWinograd3;
  if (name == "winograd4" || name == "w4") return ConvAlgo::kWinograd4;
  if (name == "int8" || name == "i8") return ConvAlgo::kInt8Im2col;
  if (name == "int8-winograd2" || name == "i8w2") {
    return ConvAlgo::kInt8Winograd2;
  }
  if (name == "int8-winograd4" || name == "i8w4") {
    return ConvAlgo::kInt8Winograd4;
  }
  throw std::invalid_argument(
      "parse_conv_algo: unknown algorithm '" + name +
      "' (expected spatial, im2col, fft, winograd2/3/4, int8, or "
      "int8-winograd2/4)");
}

Tensor4f run_conv(ConvAlgo algo, const Tensor4f& input,
                  const Tensor4f& kernels, int pad, float act_scale) {
  const conv::SpatialConvOptions sopt{.pad = pad, .stride = 1};
  winograd::WinogradConvOptions wopt;
  wopt.pad = pad;
  switch (algo) {
    case ConvAlgo::kSpatial:
      return conv::conv2d_spatial(input, kernels, sopt);
    case ConvAlgo::kIm2col:
      return conv::conv2d_im2col(input, kernels, sopt);
    case ConvAlgo::kFft:
      return conv::conv2d_fft(input, kernels, sopt);
    case ConvAlgo::kWinograd2:
      return winograd::conv2d_winograd(input, kernels, 2, wopt);
    case ConvAlgo::kWinograd3:
      return winograd::conv2d_winograd(input, kernels, 3, wopt);
    case ConvAlgo::kWinograd4:
      return winograd::conv2d_winograd(input, kernels, 4, wopt);
    case ConvAlgo::kInt8Im2col:
      return quant::conv2d_im2col_int8(input, kernels, pad, act_scale);
    case ConvAlgo::kInt8Winograd2:
      return quant::conv2d_winograd_int8(input, kernels, 2, pad, act_scale);
    case ConvAlgo::kInt8Winograd4:
      return quant::conv2d_winograd_int8(input, kernels, 4, pad, act_scale);
  }
  throw std::invalid_argument("run_conv: unknown algorithm");
}

Tensor4f run_conv(ConvAlgo algo, const Tensor4f& input,
                  const Tensor4f& kernels, int pad) {
  return run_conv(algo, input, kernels, pad, 0.0F);
}

void relu_inplace(Tensor4f& t) {
  for (float& v : t.flat()) v = v > 0.0F ? v : 0.0F;
}

Tensor4f maxpool2x2(const Tensor4f& input) {
  const auto& s = input.shape();
  if (s.h < 2 || s.w < 2) {
    throw std::invalid_argument("maxpool2x2: input too small");
  }
  Tensor4f out(s.n, s.c, s.h / 2, s.w / 2);
  for (std::size_t n = 0; n < s.n; ++n) {
    for (std::size_t c = 0; c < s.c; ++c) {
      for (std::size_t y = 0; y + 1 < s.h; y += 2) {
        for (std::size_t x = 0; x + 1 < s.w; x += 2) {
          const float m0 = std::max(input(n, c, y, x), input(n, c, y, x + 1));
          const float m1 =
              std::max(input(n, c, y + 1, x), input(n, c, y + 1, x + 1));
          out(n, c, y / 2, x / 2) = std::max(m0, m1);
        }
      }
    }
  }
  return out;
}

Tensor4f fully_connected(const Tensor4f& input,
                         const std::vector<float>& weights,
                         const std::vector<float>& bias,
                         std::size_t out_features) {
  const auto& s = input.shape();
  const std::size_t in_features = s.c * s.h * s.w;
  if (weights.size() != in_features * out_features ||
      bias.size() != out_features) {
    throw std::invalid_argument("fully_connected: weight size mismatch");
  }
  Tensor4f out(s.n, out_features, 1, 1);
  for (std::size_t n = 0; n < s.n; ++n) {
    const std::span<const float> x =
        input.flat().subspan(n * in_features, in_features);
    for (std::size_t o = 0; o < out_features; ++o) {
      float acc = bias[o];
      const float* wrow = &weights[o * in_features];
      for (std::size_t i = 0; i < in_features; ++i) acc += wrow[i] * x[i];
      out(n, o, 0, 0) = acc;
    }
  }
  return out;
}

WeightBank random_weights(const std::vector<LayerSpec>& layers,
                          std::uint64_t seed) {
  common::Rng rng(seed);
  WeightBank bank;
  for (const auto& l : layers) {
    if (l.kind == LayerKind::kConv) {
      const auto& c = l.conv;
      Tensor4f k(c.k, c.c, c.r, c.r);
      const float stddev =
          std::sqrt(2.0F / static_cast<float>(c.c * c.r * c.r));
      rng.fill_normal(k.flat(), 0.0F, stddev);
      bank.conv_kernels.push_back(std::move(k));
    } else if (l.kind == LayerKind::kFullyConnected) {
      std::vector<float> w(l.fc_in * l.fc_out);
      std::vector<float> b(l.fc_out);
      const float stddev = std::sqrt(2.0F / static_cast<float>(l.fc_in));
      rng.fill_normal(w, 0.0F, stddev);
      rng.fill_uniform(b, -0.1F, 0.1F);
      bank.fc_weights.push_back(std::move(w));
      bank.fc_bias.push_back(std::move(b));
    }
  }
  return bank;
}

namespace {

/// The calling thread's execution arena. Pool worker threads and serve
/// worker threads each get their own; slabs grow monotonically and live
/// for the thread's lifetime, so the steady state allocates nothing.
Workspace& thread_workspace() {
  static thread_local Workspace ws;
  return ws;
}

/// Copy the current NCHW activation into an owning tensor — the bridge
/// into the allocating spatial/FFT conv kernels.
Tensor4f materialize_nchw(const tensor::Layout& cur_layout,
                          std::span<const float> cur) {
  return Tensor4f(cur_layout.shape, std::vector<float>(cur.begin(), cur.end()));
}

/// Copy an owning tensor into the planned NCHW output buffer.
void store_activation(const Tensor4f& t, const tensor::Layout& ol,
                      std::span<float> obuf) {
  if (!(t.shape() == ol.shape)) {
    throw std::invalid_argument("forward: plan layer geometry mismatch");
  }
  const auto src = t.flat();
  std::copy(src.begin(), src.end(), obuf.begin());
}

/// Plan-driven data flow over one contiguous sub-batch, executing against
/// a prepared per-thread Workspace: each layer's algorithm and ReLU fusion
/// come from its LayerPlan, the NCHW activations and the scratch live at
/// the MemoryPlan's slab offsets, and the final layer writes the caller's
/// output span directly. Winograd conv layers tile the activation inside
/// the layer and scatter NCHW; im2col layers lower into a slab-carved
/// panel and GEMM straight into the output activation; the int8 layers
/// run their allocation-free cores; spatial/FFT convs keep their
/// allocating kernels behind a copy in and a copy out. Bit-identical to
/// forward_reference (the per-layer composition through run_conv): all
/// arithmetic runs in the same order on the same values (pinned by
/// tests/nn_plan_test.cpp).
void forward_plan_ws(const ExecutionPlan& plan, const MemoryPlan& mp,
                     const WeightBank& weights, std::size_t images,
                     std::span<const float> in, std::span<float> out,
                     Workspace& ws) {
  using tensor::Layout;
  const std::vector<LayerSpec>& layers = plan.layers;
  const std::size_t last = layers.size() - 1;
  std::span<const float> cur = in;
  Layout cur_layout = Layout::nchw(
      {images, mp.input_shape.c, mp.input_shape.h, mp.input_shape.w});
  std::size_t conv_idx = 0;
  std::size_t fc_idx = 0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& l = layers[li];
    const LayerPlan& step = plan.steps[li];
    Layout ol = mp.act_layout[li];
    ol.shape.n = images;  // every layout's volume scales linearly in n
    const std::span<float> obuf =
        li == last ? out
                   : ws.span_of<float>(
                         static_cast<std::size_t>(mp.step_activation[li]),
                         ol.volume());
    switch (l.kind) {
      case LayerKind::kConv: {
        const Tensor4f& kern = weights.conv_kernels[conv_idx];
        const int m = winograd_m(step.algo);
        if (m > 0) {
          const auto entry = transform_cache().get(
              {weights.version, conv_idx, m, kern.shape().h}, kern);
          winograd::WinogradConvOptions wopt;
          wopt.pad = l.conv.pad;
          ByteCarver carver(ws.buffer_bytes(
              static_cast<std::size_t>(mp.step_scratch[li])));
          const winograd::WinogradScratch scratch = carve_winograd_scratch(
              carver, cur_layout.shape.c,
              static_cast<std::size_t>(entry->xf.tile()),
              static_cast<std::size_t>(m));
          winograd::conv2d_winograd_layout_into(cur_layout, cur, entry->tk,
                                                entry->xf, wopt, ol, obuf,
                                                step.fused_relu, scratch);
          if (!step.fused_relu) {
            for (float& v : obuf) v = v > 0.0F ? v : 0.0F;
          }
        } else if (step.algo == ConvAlgo::kIm2col) {
          // Lower one image at a time into the slab-carved panel — one
          // panel alive per walk, sized once per layer — and GEMM each
          // image's rows directly into its output slice: the legacy
          // scatter out(img, k, i / out_w, i % out_w) = result[k * cols
          // + i] is the identity copy on flat NCHW storage, so writing C
          // in place is the same values at the same offsets (sgemm with
          // beta = 0 never reads C, making dirty slab memory safe).
          const auto& shp = cur_layout.shape;
          const conv::SpatialConvOptions sopt{.pad = l.conv.pad,
                                              .stride = 1};
          const std::size_t r = kern.shape().h;
          const Layout panel_layout = Layout::im2col_panel(
              {1, shp.c, shp.h, shp.w}, r, sopt.eff_pad_h(),
              sopt.eff_pad_w(), sopt.stride);
          ByteCarver carver(ws.buffer_bytes(
              static_cast<std::size_t>(mp.step_scratch[li])));
          const std::span<float> panel =
              carver.take<float>(panel_layout.volume());
          const tensor::Tensor4fView view(shp, cur);
          const std::size_t kcount = kern.shape().n;
          const std::size_t inner = shp.c * r * r;
          const std::size_t cols =
              panel_layout.panel_out_h() * panel_layout.panel_out_w();
          for (std::size_t img = 0; img < images; ++img) {
            // conv::im2col and tensor::pack share one lowering kernel
            // (tensor::im2col_lower_row), so this per-image fill is the
            // panel pack, minus the per-image input slicing.
            conv::im2col(view, img, r, sopt.eff_pad_h(), sopt.eff_pad_w(),
                         sopt.stride, panel);
            conv::gemm(kern.flat(), panel,
                       obuf.subspan(img * kcount * cols, kcount * cols),
                       kcount, inner, cols);
          }
          for (float& v : obuf) v = v > 0.0F ? v : 0.0F;
        } else if (is_int8(step.algo)) {
          // Quantized fast path: the int8 banks come from the cross-call
          // quant cache (weights quantized once per frozen model), the
          // int8 cores read the slab-backed NCHW activation through a
          // view and dequantize straight into the output activation with
          // ReLU fused into the store — max(0, x) on the same value the
          // unfused composition would produce. The activation scale is
          // the plan's static calibration scale (or per-image when the
          // plan carries none), so batching and threading cannot perturb
          // results.
          const auto entry = quant_cache().get(
              {weights.version, conv_idx, int8_winograd_m(step.algo),
               kern.shape().h},
              kern);
          ByteCarver carver(ws.buffer_bytes(
              static_cast<std::size_t>(mp.step_scratch[li])));
          const tensor::Tensor4fView view(cur_layout.shape, cur);
          if (step.algo == ConvAlgo::kInt8Im2col) {
            const quant::QuantIm2colScratch scratch =
                carve_quant_im2col_scratch(carver, entry->filter->inner(),
                                           ol.shape.h * ol.shape.w,
                                           entry->filter->kernels);
            quant::conv2d_im2col_int8_into(view, *entry->filter, l.conv.pad,
                                           step.act_scale, /*fuse_relu=*/true,
                                           obuf, scratch);
          } else {
            const quant::QuantWinogradScratch scratch =
                carve_quant_winograd_scratch(
                    carver, cur_layout.shape.c,
                    static_cast<std::size_t>(entry->xf->tile()),
                    static_cast<std::size_t>(entry->xf->m()));
            quant::conv2d_winograd_int8_into(view, *entry->wino, *entry->xf,
                                             l.conv.pad, step.act_scale,
                                             /*fuse_relu=*/true, obuf,
                                             scratch);
          }
        } else {
          const Tensor4f in_t = materialize_nchw(cur_layout, cur);
          Tensor4f out_t =
              run_conv(step.algo, in_t, kern, l.conv.pad, step.act_scale);
          relu_inplace(out_t);
          store_activation(out_t, ol, obuf);
        }
        ++conv_idx;
        break;
      }
      case LayerKind::kMaxPool:
        maxpool2x2_packed_into(cur_layout, cur, ol, obuf, {}, {});
        break;
      case LayerKind::kFullyConnected: {
        // fully_connected's loop verbatim, reading/writing flat spans.
        const auto& s = cur_layout.shape;
        const std::size_t in_features = s.c * s.h * s.w;
        const std::vector<float>& wts = weights.fc_weights[fc_idx];
        const std::vector<float>& bias = weights.fc_bias[fc_idx];
        if (wts.size() != in_features * l.fc_out ||
            bias.size() != l.fc_out) {
          throw std::invalid_argument(
              "fully_connected: weight size mismatch");
        }
        for (std::size_t n = 0; n < images; ++n) {
          const std::span<const float> x =
              cur.subspan(n * in_features, in_features);
          float* orow = obuf.data() + n * l.fc_out;
          for (std::size_t o = 0; o < l.fc_out; ++o) {
            float acc = bias[o];
            const float* wrow = &wts[o * in_features];
            for (std::size_t i = 0; i < in_features; ++i) {
              acc += wrow[i] * x[i];
            }
            orow[o] = acc;
          }
        }
        ++fc_idx;
        if (fc_idx < weights.fc_weights.size()) {
          for (float& v : obuf) v = v > 0.0F ? v : 0.0F;
        }
        break;
      }
    }
    cur = obuf;
    cur_layout = ol;
  }
}

/// The weight-bank check at the API boundary: one K x C x r x r kernel
/// bank per conv layer and one fc_in x fc_out weight + fc_out bias pair
/// per FC layer, in stack order and nothing more. A bank built for another
/// stack fails here, naming the layer, instead of deep inside a kernel on
/// a worker thread.
void check_weights(const ExecutionPlan& plan, const WeightBank& weights) {
  const auto mismatch = [](std::size_t li, const char* what) {
    return std::invalid_argument("forward: weight bank does not match layer " +
                                 std::to_string(li) + " (" + what + ")");
  };
  std::size_t conv_idx = 0;
  std::size_t fc_idx = 0;
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    const LayerSpec& l = plan.layers[li];
    if (l.kind == LayerKind::kConv) {
      if (conv_idx >= weights.conv_kernels.size()) {
        throw mismatch(li, "missing conv kernels");
      }
      const auto& ks = weights.conv_kernels[conv_idx++].shape();
      if (ks.n != l.conv.k || ks.c != l.conv.c || ks.h != l.conv.r ||
          ks.w != l.conv.r) {
        throw mismatch(li, "conv kernels are not K x C x r x r");
      }
    } else if (l.kind == LayerKind::kFullyConnected) {
      if (fc_idx >= weights.fc_weights.size() ||
          fc_idx >= weights.fc_bias.size()) {
        throw mismatch(li, "missing fc weights");
      }
      if (weights.fc_weights[fc_idx].size() != l.fc_in * l.fc_out ||
          weights.fc_bias[fc_idx].size() != l.fc_out) {
        throw mismatch(li, "fc weight or bias size");
      }
      ++fc_idx;
    }
  }
  if (conv_idx != weights.conv_kernels.size() ||
      fc_idx != weights.fc_weights.size() ||
      fc_idx != weights.fc_bias.size()) {
    throw std::invalid_argument(
        "forward: weight bank holds " +
        std::to_string(weights.conv_kernels.size()) + " conv / " +
        std::to_string(weights.fc_weights.size()) +
        " fc layers, the plan has " + std::to_string(conv_idx) + " / " +
        std::to_string(fc_idx));
  }
}

/// Plan-aware prewarm: the cache key already carries a per-layer m, so a
/// mixed-m plan simply warms each conv layer's own (layer, m, r) entry.
/// Quantized layers warm the int8 bank cache instead — this is where
/// "per-channel weight scales computed at model registration" happens
/// (serve::InferenceServer::add_model calls prewarm_workspaces, which
/// lands here before the first request).
void prewarm_transforms(const ExecutionPlan& plan, const WeightBank& weights) {
  std::size_t conv_idx = 0;
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    if (plan.layers[li].kind != LayerKind::kConv) continue;
    const Tensor4f& kern = weights.conv_kernels[conv_idx];
    if (const int m = winograd_m(plan.steps[li].algo); m > 0) {
      transform_cache().get({weights.version, conv_idx, m, kern.shape().h},
                            kern);
    } else if (is_int8(plan.steps[li].algo)) {
      quant_cache().get({weights.version, conv_idx,
                         int8_winograd_m(plan.steps[li].algo),
                         kern.shape().h},
                        kern);
    }
    ++conv_idx;
  }
}

// Per-core cache budget, roughly one L2 slice: the transform-domain
// working set of a worker chunk must fit in it.
constexpr std::size_t kSubbatchCacheBudget = 768u << 10;

/// Per-image transform-domain working set of one Winograd conv layer:
/// the (m+r-1)^2 / m^2 expansion over its input + output activations.
std::size_t winograd_layer_bytes(const ConvLayerSpec& l, int m) {
  const auto mu = static_cast<std::size_t>(m);
  const std::size_t alpha = mu + l.r - 1;
  return l.h * l.w * (l.c + l.k) * sizeof(float) * (alpha * alpha) /
         (mu * mu);
}

/// The one sub-batch rule: images a worker chunk marches through the
/// stack together. Larger sub-batches amortise each step's per-call
/// set-up over more images, but multiply the transform-domain working set
/// — (m+r-1)²/m² times a layer's activations per image, sized with each
/// Winograd layer's own m (fp32 or int8) — so the size is capped to keep
/// the fattest such set cache-resident. Chunk composition never changes
/// results (image independence; pinned by tests/serve_test.cpp). Plans
/// with no Winograd layer have no cache-budgeted working set, so the whole
/// range stays one chunk per thread — `batch` (the full range) comes back
/// rather than an unbounded sentinel, keeping the caller's `i += cap`
/// chunk walk overflow-free.
///
/// Known trade-off: in a plan mixing Winograd with an FFT layer, the
/// Winograd cache budget wins and the FFT layer re-derives its per-call
/// kernel FFTs once per sub-batch rather than once per thread chunk.
/// Deliberate: the measured planner picks kFft only where FFT actually
/// wins the layer (rare at r = 3), while every Winograd layer in the plan
/// benefits from cache-resident chunks on every batch. Cross-call FFT
/// kernel caching would dissolve the tension if such plans become common.
std::size_t plan_subbatch(const ExecutionPlan& plan, std::size_t batch) {
  std::size_t worst_bytes = 0;
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    if (plan.layers[li].kind != LayerKind::kConv) continue;
    int m = winograd_m(plan.steps[li].algo);
    if (m == 0) m = int8_winograd_m(plan.steps[li].algo);
    if (m == 0) continue;
    worst_bytes =
        std::max(worst_bytes, winograd_layer_bytes(plan.layers[li].conv, m));
  }
  if (worst_bytes == 0) return batch;
  return std::max<std::size_t>(1, kSubbatchCacheBudget / worst_bytes);
}

}  // namespace

std::size_t plan_batch_ceiling(const ExecutionPlan& plan) {
  // plan_subbatch with batch = 0: plans with no Winograd layer return the
  // 0 sentinel (no cache-derived ceiling — their working set does not
  // inflate by (m+r-1)^2/m^2), everything else returns the largest image
  // count whose transform-domain working set fits the cache budget.
  return plan_subbatch(plan, 0);
}

void forward(const ExecutionPlan& plan, const WeightBank& weights,
             const Tensor4f& input, Tensor4f& out) {
  if (plan.steps.size() != plan.layers.size()) {
    throw std::invalid_argument(
        "forward: plan steps do not match its layer stack");
  }
  check_weights(plan, weights);
  const auto& is = input.shape();
  if (plan.layers.empty()) {
    out = input;
    return;
  }
  // Use the plan's memory plan when it matches the live per-image input;
  // rebuild locally otherwise (fc-first models accept any factorisation
  // of fc_in, pool-first stacks have no plan-time shape at all).
  MemoryPlan local;
  const MemoryPlan* mp = &plan.memory;
  const tensor::Shape4 per_img{1, is.c, is.h, is.w};
  if (mp->empty() || !(mp->input_shape == per_img)) {
    local = build_memory_plan(plan, per_img);
    mp = &local;
  }
  const auto& fl = mp->act_layout.back();
  const tensor::Shape4 os{is.n, fl.shape.c, fl.shape.h, fl.shape.w};
  if (!(out.shape() == os)) out = Tensor4f(os);
  if (is.n == 0) return;
  prewarm_transforms(plan, weights);
  const std::span<const float> in_flat = input.flat();
  const std::span<float> out_flat = out.flat();
  // Batch-parallel: every layer treats images independently, so running a
  // contiguous sub-batch through the stack alone reproduces the batched
  // result bit-for-bit. Winograd layers read their filter transforms from
  // the cross-call cache (prewarmed above), so chunks walk the batch in
  // cache-budgeted sub-batches (see plan_subbatch) — bit-identical either
  // way.
  if (is.n <= 1) {
    Workspace& ws = thread_workspace();
    ws.prepare(*mp, 1);
    forward_plan_ws(plan, *mp, weights, 1, in_flat, out_flat, ws);
    return;
  }
  const std::size_t cap = plan_subbatch(plan, is.n);
  const std::size_t ivol = is.c * is.h * is.w;
  const std::size_t ovol = os.c * os.h * os.w;
  runtime::parallel_for(is.n, [&](std::size_t begin, std::size_t end) {
    Workspace& ws = thread_workspace();
    for (std::size_t i = begin; i < end; i += cap) {
      const std::size_t count = std::min(cap, end - i);
      ws.prepare(*mp, count);
      forward_plan_ws(plan, *mp, weights, count,
                      in_flat.subspan(i * ivol, count * ivol),
                      out_flat.subspan(i * ovol, count * ovol), ws);
    }
  });
}

Tensor4f forward(const ExecutionPlan& plan, const WeightBank& weights,
                 const Tensor4f& input) {
  Tensor4f out;
  forward(plan, weights, input, out);
  return out;
}

void prewarm_workspaces(const ExecutionPlan& plan, const WeightBank& weights,
                        std::size_t max_images) {
  if (plan.steps.size() != plan.layers.size()) {
    throw std::invalid_argument(
        "forward: plan steps do not match its layer stack");
  }
  check_weights(plan, weights);
  prewarm_transforms(plan, weights);
  if (plan.memory.empty()) return;
  const std::size_t imgs = std::max<std::size_t>(1, max_images);
  const std::size_t chunk = std::min(plan_subbatch(plan, imgs), imgs);
  // One chunk per pool participant (count == threads), so every worker
  // thread plus the caller sizes its own slab before the first request.
  // Serve worker threads warm on their first batch instead; see
  // docs/ARCHITECTURE.md.
  runtime::parallel_for(runtime::ThreadPool::global().threads(),
                        [&](std::size_t, std::size_t) {
                          thread_workspace().prepare(plan.memory, chunk);
                        });
}

std::size_t thread_workspace_bytes() {
  return thread_workspace().slab_bytes();
}

Tensor4f forward(const std::vector<LayerSpec>& layers,
                 const WeightBank& weights, const Tensor4f& input,
                 ConvAlgo algo) {
  return forward(uniform_plan(layers, algo), weights, input);
}

Tensor4f stack_images(const std::vector<const Tensor4f*>& images) {
  if (images.empty()) {
    throw std::invalid_argument("stack_images: no images");
  }
  for (const Tensor4f* img : images) {
    if (img == nullptr) {
      throw std::invalid_argument("stack_images: null image");
    }
  }
  std::size_t total = 0;
  const auto& first = images.front()->shape();
  for (const Tensor4f* img : images) {
    const auto& s = img->shape();
    if (s.c != first.c || s.h != first.h || s.w != first.w) {
      throw std::invalid_argument("stack_images: mismatched image shapes");
    }
    total += s.n;
  }
  Tensor4f batch(total, first.c, first.h, first.w);
  auto dst = batch.flat();
  std::size_t offset = 0;
  for (const Tensor4f* img : images) {
    const auto src = img->flat();
    std::copy(src.begin(), src.end(), dst.begin() + offset);
    offset += src.size();
  }
  return batch;
}

std::vector<Tensor4f> unstack_images(const Tensor4f& batch) {
  const auto& s = batch.shape();
  const std::size_t volume = s.c * s.h * s.w;
  std::vector<Tensor4f> images;
  images.reserve(s.n);
  for (std::size_t n = 0; n < s.n; ++n) {
    Tensor4f img(1, s.c, s.h, s.w);
    const auto src = batch.flat().subspan(n * volume, volume);
    std::copy(src.begin(), src.end(), img.flat().begin());
    images.push_back(std::move(img));
  }
  return images;
}

std::vector<LayerSpec> vgg16_d_scaled(std::size_t scale,
                                      std::size_t channel_div) {
  if (scale == 0 || 224 % scale != 0) {
    throw std::invalid_argument("vgg16_d_scaled: scale must divide 224");
  }
  if (channel_div == 0) {
    throw std::invalid_argument("vgg16_d_scaled: channel_div must be > 0");
  }
  std::vector<LayerSpec> layers;
  std::size_t hw = 224 / scale;
  std::size_t prev_c = 3;
  for (const auto& group : vgg16_d().groups) {
    for (const auto& c : group.layers) {
      LayerSpec l;
      l.kind = LayerKind::kConv;
      l.conv = c;
      l.conv.h = hw;
      l.conv.w = hw;
      l.conv.c = prev_c;
      l.conv.k = std::max<std::size_t>(1, c.k / channel_div);
      prev_c = l.conv.k;
      layers.push_back(l);
    }
    if (hw >= 2) {
      LayerSpec pool;
      pool.kind = LayerKind::kMaxPool;
      layers.push_back(pool);
      hw /= 2;
    }
  }
  LayerSpec fc;
  fc.kind = LayerKind::kFullyConnected;
  fc.fc_in = prev_c * hw * hw;
  fc.fc_out = 10;
  layers.push_back(fc);
  return layers;
}

}  // namespace wino::nn

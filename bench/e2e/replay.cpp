// Per-step replay of an ExecutionPlan through the public kernels.
//
// The plan executor (nn::forward) gives no per-step timings, so each step
// is re-run here from outside: the same kernel call forward_plan_ws makes
// for that step, on the step's planned input and output layouts, with
// filter banks built once up front (as the executor's caches hold them),
// split image-parallel over the global ThreadPool exactly like forward()
// (same chunk boundaries, same sub-batch walk). Inputs are the
// layer-by-layer reference activations, and every replayed output must
// equal the next reference activation byte for byte — so a replay that
// drifted from what the executor runs fails loudly instead of timing the
// wrong work.
#include <algorithm>
#include <memory>
#include <optional>

#include "common/random.hpp"
#include "conv/im2col.hpp"
#include "e2e.hpp"
#include "nn/memory_plan.hpp"
#include "quant/int8.hpp"
#include "runtime/gemm.hpp"
#include "runtime/igemm.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "winograd/cook_toom.hpp"
#include "winograd/kernels.hpp"

namespace e2e {

namespace nn = wino::nn;
namespace quant = wino::quant;
namespace runtime = wino::runtime;
namespace tensor = wino::tensor;
namespace winograd = wino::winograd;
using tensor::Layout;
using tensor::LayoutKind;

namespace {

/// Scratch bytes aligned like a workspace slab.
class AlignedBytes {
 public:
  explicit AlignedBytes(std::size_t bytes)
      : raw_(bytes + nn::kSlabAlign), bytes_(bytes) {}
  std::span<std::byte> span() {
    const auto addr = reinterpret_cast<std::uintptr_t>(raw_.data());
    const std::size_t off = (nn::kSlabAlign - addr % nn::kSlabAlign) %
                            nn::kSlabAlign;
    return {raw_.data() + off, bytes_};
  }

 private:
  std::vector<std::byte> raw_;
  std::size_t bytes_;
};

/// One step's filter banks, built once like the executor's caches.
struct Banks {
  std::optional<winograd::TileTransformer> xf;
  std::optional<winograd::TransformedKernels> tk;
  std::optional<quant::QuantizedFilter> qf;
  std::optional<quant::QuantizedWinogradKernels> qw;
};

struct StepCtx {
  const nn::LayerSpec* layer = nullptr;
  const nn::LayerPlan* plan = nullptr;
  const Tensor4f* kernels = nullptr;      ///< conv steps
  const std::vector<float>* fc_w = nullptr;
  const std::vector<float>* fc_b = nullptr;
  bool fc_relu = false;
  std::size_t block_columns = 1;
  Banks banks;
};

/// One worker chunk's sub-batch of one step: its input in the step's input
/// layout, its output buffer, and its scratch.
struct Unit {
  std::size_t first = 0;
  std::size_t count = 0;
  Layout il;
  Layout ol;
  std::vector<float> in;
  Tensor4f in_nchw;  ///< for the allocating kernels (fc, spatial, fft)
  std::vector<float> out;
  std::unique_ptr<AlignedBytes> scratch;
};

enum class Path { kWinograd, kIm2col, kInt8Im2col, kInt8Winograd, kGeneric,
                  kPool, kFc };

Path path_of(const StepCtx& s, const Unit& u) {
  switch (s.layer->kind) {
    case nn::LayerKind::kMaxPool:
      return Path::kPool;
    case nn::LayerKind::kFullyConnected:
      return Path::kFc;
    case nn::LayerKind::kConv:
      break;
  }
  const nn::ConvAlgo algo = s.plan->algo;
  const bool nchw_io = u.il.kind == LayoutKind::kNCHW &&
                       u.ol.kind == LayoutKind::kNCHW;
  if (nn::winograd_m(algo) > 0) return Path::kWinograd;
  if (algo == nn::ConvAlgo::kIm2col && nchw_io) return Path::kIm2col;
  if (algo == nn::ConvAlgo::kInt8Im2col && nchw_io) return Path::kInt8Im2col;
  if (nn::is_int8(algo) && nchw_io) return Path::kInt8Winograd;
  return Path::kGeneric;
}

Layout im2col_panel_layout(const Layout& il, std::size_t r, int pad) {
  return Layout::im2col_panel({1, il.shape.c, il.shape.h, il.shape.w}, r, pad,
                              pad, 1);
}

/// Carve the step's scratch the way forward_plan_ws does; with a measuring
/// carver this sizes it.
struct Carved {
  winograd::WinogradScratch wino;
  quant::QuantIm2colScratch qi2c;
  quant::QuantWinogradScratch qwino;
  nn::PoolScratch pool;
  std::span<float> panel;
};

Carved carve(const StepCtx& s, const Unit& u, nn::ByteCarver& carver) {
  Carved c;
  switch (path_of(s, u)) {
    case Path::kWinograd:
      c.wino = nn::carve_winograd_scratch(
          carver, u.il.shape.c, static_cast<std::size_t>(s.banks.xf->tile()),
          static_cast<std::size_t>(s.banks.xf->m()), s.block_columns);
      break;
    case Path::kIm2col:
      c.panel = carver.take<float>(
          im2col_panel_layout(u.il, s.kernels->shape().h, s.layer->conv.pad)
              .volume());
      break;
    case Path::kInt8Im2col:
      c.qi2c = nn::carve_quant_im2col_scratch(
          carver, s.banks.qf->inner(), u.ol.shape.h * u.ol.shape.w,
          s.banks.qf->kernels);
      break;
    case Path::kInt8Winograd:
      c.qwino = nn::carve_quant_winograd_scratch(
          carver, u.il.shape.c, static_cast<std::size_t>(s.banks.xf->tile()),
          static_cast<std::size_t>(s.banks.xf->m()), s.block_columns);
      break;
    case Path::kPool:
      c.pool = nn::carve_pool_scratch(carver, u.il, u.ol);
      break;
    case Path::kGeneric:
    case Path::kFc:
      break;
  }
  return c;
}

void relu(std::span<float> v) {
  for (float& x : v) x = x > 0.0F ? x : 0.0F;
}

void store(const Tensor4f& t, const Layout& ol, std::vector<float>& out) {
  const tensor::PackedActivation packed = tensor::pack(t, ol);
  std::copy(packed.data.begin(), packed.data.end(), out.begin());
}

/// The kernel call forward_plan_ws makes for this step, on one unit.
void run_unit(const StepCtx& s, Unit& u) {
  nn::ByteCarver carver(u.scratch->span());
  const Carved c = carve(s, u, carver);
  const int pad = s.layer->conv.pad;
  switch (path_of(s, u)) {
    case Path::kWinograd: {
      winograd::WinogradConvOptions opt;
      opt.pad = pad;
      winograd::conv2d_winograd_layout_into(u.il, u.in, *s.banks.tk,
                                            *s.banks.xf, opt, u.ol, u.out,
                                            s.plan->fused_relu, c.wino);
      if (!s.plan->fused_relu) relu(u.out);
      break;
    }
    case Path::kIm2col: {
      const std::size_t r = s.kernels->shape().h;
      const std::size_t kcount = s.kernels->shape().n;
      const std::size_t inner = u.il.shape.c * r * r;
      const std::size_t cols = u.ol.shape.h * u.ol.shape.w;
      const tensor::Tensor4fView view(u.il.shape, u.in);
      for (std::size_t img = 0; img < u.count; ++img) {
        wino::conv::im2col(view, img, r, pad, pad, 1, c.panel);
        wino::conv::gemm(s.kernels->flat(), c.panel,
                         std::span<float>(u.out).subspan(img * kcount * cols,
                                                         kcount * cols),
                         kcount, inner, cols);
      }
      relu(u.out);
      break;
    }
    case Path::kInt8Im2col:
      quant::conv2d_im2col_int8_into(tensor::Tensor4fView(u.il.shape, u.in),
                                     *s.banks.qf, pad, s.plan->act_scale,
                                     /*fuse_relu=*/true, u.out, c.qi2c);
      break;
    case Path::kInt8Winograd:
      quant::conv2d_winograd_int8_into(tensor::Tensor4fView(u.il.shape, u.in),
                                       *s.banks.qw, *s.banks.xf, pad,
                                       s.plan->act_scale, /*fuse_relu=*/true,
                                       u.out, c.qwino);
      break;
    case Path::kGeneric: {
      Tensor4f t = nn::run_conv(s.plan->algo, u.in_nchw, *s.kernels, pad,
                                s.plan->act_scale);
      nn::relu_inplace(t);
      store(t, u.ol, u.out);
      break;
    }
    case Path::kPool:
      nn::maxpool2x2_packed_into(u.il, u.in, u.ol, u.out, c.pool.in_col,
                                 c.pool.out_col);
      break;
    case Path::kFc: {
      Tensor4f t = nn::fully_connected(u.in_nchw, *s.fc_w, *s.fc_b,
                                       s.layer->fc_out);
      if (s.fc_relu) nn::relu_inplace(t);
      std::copy(t.flat().begin(), t.flat().end(), u.out.begin());
      break;
    }
  }
}

/// One reference layer: exactly forward_reference's per-layer composition.
Tensor4f reference_layer(const StepCtx& s, const Tensor4f& act) {
  switch (s.layer->kind) {
    case nn::LayerKind::kConv: {
      Tensor4f out = nn::run_conv(s.plan->algo, act, *s.kernels,
                                  s.layer->conv.pad, s.plan->act_scale);
      nn::relu_inplace(out);
      return out;
    }
    case nn::LayerKind::kMaxPool:
      return nn::maxpool2x2(act);
    case nn::LayerKind::kFullyConnected: {
      Tensor4f out = nn::fully_connected(act, *s.fc_w, *s.fc_b,
                                         s.layer->fc_out);
      if (s.fc_relu) nn::relu_inplace(out);
      return out;
    }
  }
  return act;
}

std::string step_layer(const StepCtx& s) {
  if (s.layer->kind != nn::LayerKind::kConv) return "nn";
  if (nn::is_int8(s.plan->algo)) return "quant";
  if (nn::winograd_m(s.plan->algo) > 0) return "winograd";
  return "conv";
}

/// Worker chunks of forward()'s image-parallel split: the global pool's
/// static partition of [0, images).
std::vector<std::pair<std::size_t, std::size_t>> worker_chunks(
    std::size_t images) {
  const std::size_t chunks =
      std::min(images, runtime::ThreadPool::global().threads());
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t c = 0; c < chunks; ++c) {
    out.emplace_back(runtime::ThreadPool::chunk_begin(c, images, chunks),
                     runtime::ThreadPool::chunk_begin(c + 1, images, chunks));
  }
  return out;
}

/// Median wall time of `reps` calls of `fn` (after one warm-up call), each
/// recorded as a span.
template <typename F>
double time_reps(int reps, Trace& trace, const std::string& name,
                 const std::string& layer, int parent, const F& fn) {
  fn();
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ms.push_back(ms_between(t0, t1));
    trace.add(name, layer, t0, t1, parent);
  }
  return median(ms);
}

}  // namespace

Replay replay_plan(const nn::ExecutionPlan& plan, std::size_t plan_batch,
                   const nn::WeightBank& weights, const Tensor4f& input,
                   int reps, Trace& trace, int parent) {
  const std::size_t images = input.shape().n;
  const std::size_t nsteps = plan.layers.size();
  const nn::MemoryPlan& mp = plan.memory;
  if (mp.empty() || !(mp.input_shape == tensor::Shape4{1, input.shape().c,
                                                       input.shape().h,
                                                       input.shape().w})) {
    throw std::invalid_argument("replay_plan: plan has no memory plan for "
                                "this input");
  }

  // Step contexts and filter banks.
  std::vector<StepCtx> ctx(nsteps);
  std::size_t conv_idx = 0;
  std::size_t fc_idx = 0;
  for (std::size_t li = 0; li < nsteps; ++li) {
    StepCtx& s = ctx[li];
    s.layer = &plan.layers[li];
    s.plan = &plan.steps[li];
    if (li < mp.step_block_columns.size()) {
      s.block_columns = mp.step_block_columns[li];
    }
    if (s.layer->kind == nn::LayerKind::kConv) {
      s.kernels = &weights.conv_kernels.at(conv_idx++);
      const int r = static_cast<int>(s.kernels->shape().h);
      if (const int m = nn::winograd_m(s.plan->algo); m > 0) {
        s.banks.xf.emplace(winograd::transforms(m, r));
        s.banks.tk.emplace(*s.banks.xf, *s.kernels);
      } else if (s.plan->algo == nn::ConvAlgo::kInt8Im2col) {
        s.banks.qf = quant::quantize_filters(*s.kernels);
      } else if (const int qm = nn::int8_winograd_m(s.plan->algo); qm > 0) {
        s.banks.xf.emplace(winograd::transforms(qm, r));
        s.banks.qw = quant::quantize_winograd_kernels(*s.banks.xf,
                                                      *s.kernels);
      }
    } else if (s.layer->kind == nn::LayerKind::kFullyConnected) {
      s.fc_w = &weights.fc_weights.at(fc_idx);
      s.fc_b = &weights.fc_bias.at(fc_idx);
      ++fc_idx;
      s.fc_relu = fc_idx < weights.fc_weights.size();
    }
  }

  // Reference activations, pinned to the library's oracle.
  std::vector<Tensor4f> acts{input};
  for (std::size_t li = 0; li < nsteps; ++li) {
    acts.push_back(reference_layer(ctx[li], acts.back()));
  }
  Replay result;
  result.identical =
      same_bytes(acts.back(), nn::forward_reference(plan, weights, input));

  // Units: worker chunk x sub-batch, as forward() walks them.
  const std::size_t cap =
      plan.batch_ceiling > 0 ? plan.batch_ceiling : images;
  const auto chunks = worker_chunks(images);
  std::vector<std::vector<std::vector<Unit>>> units(nsteps);
  for (std::size_t li = 0; li < nsteps; ++li) {
    units[li].resize(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      for (std::size_t i = chunks[c].first; i < chunks[c].second; i += cap) {
        Unit u;
        u.first = i;
        u.count = std::min(cap, chunks[c].second - i);
        u.il = li == 0 ? Layout::nchw({1, input.shape().c, input.shape().h,
                                       input.shape().w})
                       : mp.act_layout[li - 1];
        u.ol = mp.act_layout[li];
        u.il.shape.n = u.count;
        u.ol.shape.n = u.count;
        const Tensor4f slice = slice_images(acts[li], u.first, u.count);
        u.in = tensor::pack(slice, u.il).data;
        u.in_nchw = slice;
        u.out.assign(u.ol.volume(), 0.0F);
        nn::ByteCarver measure;
        (void)carve(ctx[li], u, measure);
        u.scratch = std::make_unique<AlignedBytes>(measure.used());
        units[li][c].push_back(std::move(u));
      }
    }
  }

  Tensor4f out;
  result.forward_ms = time_reps(reps, trace, "nn.forward", "nn", parent, [&] {
    nn::forward(plan, weights, input, out);
  });
  result.identical = result.identical && same_bytes(out, acts.back());

  std::size_t pool_no = 0;
  for (std::size_t li = 0; li < nsteps; ++li) {
    const StepCtx& s = ctx[li];
    StepTime st;
    st.layer = step_layer(s);
    st.conv = s.layer->kind == nn::LayerKind::kConv;
    if (st.conv) {
      st.name = s.layer->conv.name;
      st.algo = nn::to_string(s.plan->algo);
      st.predicted_ms = s.plan->predicted_ms /
                        static_cast<double>(plan_batch) *
                        static_cast<double>(images);
      st.ops = static_cast<double>(s.layer->conv.spatial_ops(images));
    } else if (s.layer->kind == nn::LayerKind::kMaxPool) {
      st.name = "pool" + std::to_string(++pool_no);
      st.algo = "maxpool";
    } else {
      st.name = "fc";
      st.algo = "fc";
    }
    auto& step_units = units[li];
    st.ms = time_reps(reps, trace, "nn.step." + st.name, st.layer, parent,
                      [&] {
                        runtime::parallel_for(
                            images, [&](std::size_t begin, std::size_t) {
                              for (std::size_t c = 0; c < chunks.size(); ++c) {
                                if (chunks[c].first != begin) continue;
                                for (Unit& u : step_units[c]) run_unit(s, u);
                              }
                            });
                      });
    for (const auto& chunk_units : step_units) {
      for (const Unit& u : chunk_units) {
        const Tensor4f got = tensor::unpack({u.ol, u.out});
        result.identical = result.identical &&
                           same_bytes(got, slice_images(acts[li + 1], u.first,
                                                        u.count));
      }
    }
    result.steps.push_back(st);
  }
  return result;
}

double sgemm_gflops(const std::vector<nn::LayerSpec>& layers,
                    std::size_t images, int reps, Trace& trace, int parent) {
  double flops = 0;
  double ms = 0;
  wino::common::Rng rng(17);
  for (const nn::LayerSpec& l : layers) {
    if (l.kind != nn::LayerKind::kConv) continue;
    const std::size_t m = l.conv.k;
    const std::size_t k = l.conv.c * l.conv.r * l.conv.r;
    const std::size_t n = l.conv.out_h() * l.conv.out_w();
    std::vector<float> a(m * k);
    std::vector<float> b(images * k * n);
    std::vector<float> c(images * m * n);
    rng.fill_uniform(a);
    rng.fill_uniform(b);
    ms += time_reps(reps, trace, "runtime.sgemm", "runtime", parent, [&] {
      runtime::parallel_for_each(images, [&](std::size_t img) {
        runtime::sgemm(m, n, k, 1.0F, a.data(), k, b.data() + img * k * n, n,
                       0.0F, c.data() + img * m * n, n);
      });
    });
    flops += 2.0 * static_cast<double>(m * n * k * images);
  }
  return ms > 0 ? flops / (ms * 1e6) : 0.0;
}

double igemm_gops(const std::vector<nn::LayerSpec>& layers,
                  const std::string& conv_name, std::size_t images, int reps,
                  Trace& trace, int parent) {
  for (const nn::LayerSpec& l : layers) {
    if (l.kind != nn::LayerKind::kConv || l.conv.name != conv_name) continue;
    const std::size_t m = l.conv.k;
    const std::size_t k = l.conv.c * l.conv.r * l.conv.r;
    const std::size_t n = l.conv.out_h() * l.conv.out_w();
    wino::common::Rng rng(19);
    std::vector<std::int8_t> a(m * k);
    std::vector<std::int8_t> b(images * n * k);
    std::vector<std::int32_t> c(images * m * n);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    const double ms =
        time_reps(reps, trace, "runtime.igemm", "runtime", parent, [&] {
          runtime::parallel_for_each(images, [&](std::size_t img) {
            runtime::igemm_nt(m, n, k, a.data(), k, b.data() + img * n * k, k,
                              c.data() + img * m * n, n);
          });
        });
    return 2.0 * static_cast<double>(m * n * k * images) / (ms * 1e6);
  }
  return 0.0;
}

}  // namespace e2e

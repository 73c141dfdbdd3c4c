#include "nn/plan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "conv/im2col.hpp"
#include "dse/complexity.hpp"
#include "quant/int8.hpp"
#include "runtime/thread_pool.hpp"
#include "winograd/error_model.hpp"
#include "winograd/kernels.hpp"
#include "winograd/tile_walk.hpp"

namespace wino::nn {

using tensor::Layout;
using tensor::LayoutKind;
using tensor::Shape4;
using tensor::Tensor4f;

namespace {

/// The fp32 algorithm whose op count / calibration family an int8 algo
/// shares: the quantized forms run the same dataflow (im2col GEMM, F(m)
/// transform sandwich) with cheaper multiplies, so they reuse the family's
/// modelled ops and calibrated rate, adjusted by kInt8AnalyticSpeedup in
/// the analytic model (measured scoring times them directly).
ConvAlgo fp32_family(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kInt8Im2col:
      return ConvAlgo::kIm2col;
    case ConvAlgo::kInt8Winograd2:
      return ConvAlgo::kWinograd2;
    case ConvAlgo::kInt8Winograd4:
      return ConvAlgo::kWinograd4;
    default:
      return algo;
  }
}

/// Analytic-model throughput factor of int8 over its fp32 family: int8
/// operands halve the memory traffic and the widening-multiply-accumulate
/// runs 2x the lanes per vector op. Deliberately conservative — default
/// (measured) scoring times the int8 kernels directly and ignores this.
constexpr double kInt8AnalyticSpeedup = 2.0;

/// Modelled per-image op count of one conv layer under `algo` (the
/// numerator the calibrated GFLOP/s divides). Winograd: Eq 4 + Eq 5
/// data/inverse with exact ragged tiles, filter transforms excluded
/// (cross-call cache). im2col: delivered spatial multiply+add ops. Int8
/// algos share their fp32 family's counts (same dataflow, cheaper
/// multiplies).
double modelled_ops(const ConvLayerSpec& layer, ConvAlgo algo) {
  algo = fp32_family(algo);
  const int m = winograd_m(algo);
  if (m > 0) {
    const auto costs = dse::TransformCosts::from_generated(
        m, static_cast<int>(layer.r));
    const auto t = dse::transform_complexity_tiled(layer, m, costs);
    return 2.0 * static_cast<double>(dse::mult_complexity_tiled(layer, m)) +
           t.data + t.inverse;
  }
  return static_cast<double>(layer.spatial_ops());
}

/// Best-of-3 wall clock of `fn` after one warm-up run, in seconds.
template <typename Fn>
double best_seconds(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return std::max(best, 1e-9);
}

/// Fill `out` with a fixed pattern spread over [-amplitude, amplitude):
/// one 32-bit LCG step per element (Numerical Recipes constants), whose
/// top 24 bits are the fraction. No distribution object per element.
void fill_pattern(std::span<float> out, std::uint32_t state, float amplitude) {
  for (float& v : out) {
    state = state * 1664525u + 1013904223u;
    v = amplitude * (static_cast<float>(state >> 8) * 0x1p-23F - 1.0F);
  }
}

/// Threads candidate `algo`'s own parallel_for spans when forward(plan)
/// runs `batch` images: the key of its cached timing. At one image
/// forward() runs the stack on the calling thread, so im2col (fp32 and
/// int8) fans out over the whole global pool; at more it fans the batch
/// out by image, and every layer runs inline inside its worker chunk, on
/// one thread. A walk runs on one thread either way.
std::size_t timing_threads(ConvAlgo algo, std::size_t batch) {
  return batch > 1 || is_walk(algo) ? 1
                                    : runtime::ThreadPool::global().threads();
}

/// One shape's timing job in one thread form: the geometry, its uncached
/// candidates of that form, the transformer of each Winograd candidate
/// (built on the caller; null for the others) and the seconds its timing
/// thread writes back. `threads` is the form (timing_threads) its timings
/// are keyed by; `cost` (the candidates' modelled ops) is its weight in
/// the assignment to pool threads.
struct ShapeJob {
  ConvLayerSpec layer;
  std::size_t threads = 1;
  std::vector<ConvAlgo> algos;
  std::vector<const winograd::TileTransformer*> xfs;
  std::vector<double> seconds;
  double cost = 0;
};

/// A shape's working set inside its timing thread's buffer: the
/// pattern-filled operands, the output, and the scratch of the candidate
/// being timed. A shape's candidates run one after another, so they all
/// carve their scratch from the same offset, just past the output.
struct ShapeSpans {
  std::span<float> input, kernels, out;
  std::span<float> bank;           ///< fp32 Winograd: V = G g G^T
  winograd::WinogradScratch walk;  ///< fp32 Winograd: the walk's scratch
  std::span<float> panel;          ///< im2col: one image's patch panel
  quant::QuantIm2colScratch qim2col;    ///< int8 im2col
  quant::QuantWinogradScratch qwalk;    ///< int8 Winograd
};

/// Output pixels of `l` at stride 1, the only stride plans run.
std::size_t out_pixels(const ConvLayerSpec& l) {
  return conv::conv_out_extent(l.h, l.r, l.pad, 1) *
         conv::conv_out_extent(l.w, l.r, l.pad, 1);
}

/// Carve (or measure) a shape's operands and output.
ShapeSpans carve_shape(ByteCarver& carver, const ConvLayerSpec& l) {
  ShapeSpans s;
  s.input = carver.take<float>(l.c * l.h * l.w);
  s.kernels = carver.take<float>(l.k * l.c * l.r * l.r);
  s.out = carver.take<float>(l.k * out_pixels(l));
  return s;
}

/// Carve (or measure) the scratch of candidate `algo` into `s`.
void carve_candidate(ByteCarver& carver, const ConvLayerSpec& l,
                     ConvAlgo algo, ShapeSpans& s) {
  const std::size_t inner = l.c * l.r * l.r;
  if (const int m = winograd_m(algo); m > 0) {
    const std::size_t n = static_cast<std::size_t>(m) + l.r - 1;
    s.bank = carver.take<float>(l.k * l.c * n * n);
    s.walk = carve_winograd_scratch(carver, l.c, n,
                                    static_cast<std::size_t>(m));
  } else if (const int qm = int8_winograd_m(algo); qm > 0) {
    s.qwalk = carve_quant_winograd_scratch(
        carver, l.c, static_cast<std::size_t>(qm) + l.r - 1,
        static_cast<std::size_t>(qm));
  } else if (algo == ConvAlgo::kInt8Im2col) {
    s.qim2col = carve_quant_im2col_scratch(carver, inner, out_pixels(l), l.k);
  } else {
    s.panel = carver.take<float>(inner * out_pixels(l));
  }
}

/// Buffer bytes `job` needs: its operands plus its largest candidate.
std::size_t shape_bytes(const ShapeJob& job) {
  ByteCarver measure;
  ShapeSpans s = carve_shape(measure, job.layer);
  std::size_t need = measure.used();
  for (const ConvAlgo algo : job.algos) {
    ByteCarver tail = measure;
    carve_candidate(tail, job.layer, algo, s);
    need = std::max(need, tail.used());
  }
  return need;
}

/// Time candidate `algo` on this thread through the executor's own
/// allocation-free kernels on the spans of `s`: the fp32 Winograd walk
/// against a bank transformed into `s.bank`, the executor's im2col
/// lowering + GEMM loop, or the int8 cores. Inside a parallel region
/// (runtime::InlineScope) every kernel runs inline, as in a worker chunk
/// of forward()'s batch fan-out; outside one the im2col forms fan out
/// over the pool, as forward() runs one image. `xf` is the transformer of
/// a Winograd form (fp32 or int8), else null. The int8 forms first
/// quantize their bank, as registration does (the executor reads it from
/// its cross-call cache): the one step of this function that allocates.
/// One warm-up, best of 3, single image.
double time_candidate(const ConvLayerSpec& l, ConvAlgo algo,
                      const winograd::TileTransformer* xf,
                      const ShapeSpans& s) {
  const Shape4 in_shape{1, l.c, l.h, l.w};
  const tensor::Tensor4fView input(in_shape, s.input);
  if (winograd_m(algo) > 0) {
    winograd::transform_filter_bank(
        *xf, tensor::Tensor4fView({l.k, l.c, l.r, l.r}, s.kernels), s.bank);
    const auto n = static_cast<std::size_t>(xf->tile());
    const winograd::KernelBank bank(s.bank, l.k, l.c, n * n);
    winograd::WinogradConvOptions wopt;
    wopt.pad = l.pad;
    const Layout il = Layout::nchw(in_shape);
    const Layout ol = Layout::nchw(winograd::walk_output_shape(
        "measure_layer_ms", in_shape, *xf, l.k, l.pad));
    return best_seconds([&] {
      winograd::conv2d_winograd_layout_into(il, s.input, bank, *xf, wopt, ol,
                                            s.out, /*fuse_relu=*/false,
                                            s.walk);
    });
  }
  if (algo == ConvAlgo::kIm2col) {
    const std::size_t inner = l.c * l.r * l.r;
    return best_seconds([&] {
      conv::im2col(input, 0, l.r, l.pad, l.pad, /*stride=*/1, s.panel);
      conv::gemm(s.kernels, s.panel, s.out, l.k, inner, out_pixels(l));
    });
  }
  const Tensor4f kernels({l.k, l.c, l.r, l.r},
                         std::vector<float>(s.kernels.begin(), s.kernels.end()));
  if (xf != nullptr) {
    const quant::QuantizedWinogradKernels qk =
        quant::quantize_winograd_kernels(*xf, kernels);
    return best_seconds([&] {
      quant::conv2d_winograd_int8_into(input, qk, *xf, l.pad,
                                       /*act_scale=*/0.0F,
                                       /*fuse_relu=*/false, s.out, s.qwalk);
    });
  }
  const quant::QuantizedFilter qf = quant::quantize_filters(kernels);
  return best_seconds([&] {
    quant::conv2d_im2col_int8_into(input, qf, l.pad, /*act_scale=*/0.0F,
                                   /*fuse_relu=*/false, s.out, s.qim2col);
  });
}

/// Time all of `job`'s candidates serially on this thread on spans carved
/// from `buffer` (sized by shape_bytes), against a pattern-filled input in
/// [-1, 1) and filter bank in [-0.1, 0.1): the kernels timed have no
/// data-dependent paths, so the values only need to be finite,
/// non-trivial and cheap to make. Only the int8 candidates allocate, for
/// their quantized banks.
void time_shape(ShapeJob& job, std::span<std::byte> buffer) {
  ByteCarver carver(buffer);
  ShapeSpans s = carve_shape(carver, job.layer);
  fill_pattern(s.input, 123u, 1.0F);
  fill_pattern(s.kernels, 321u, 0.1F);
  for (std::size_t i = 0; i < job.algos.size(); ++i) {
    ByteCarver tail = carver;
    carve_candidate(tail, job.layer, job.algos[i], s);
    job.seconds[i] = time_candidate(job.layer, job.algos[i], job.xfs[i], s);
  }
}

/// One layer's wish for timings: its geometry and candidates.
struct TimingRequest {
  const ConvLayerSpec* layer;
  std::span<const ConvAlgo> algos;
};

/// Per-process cache of measured per-layer timings keyed by the layer
/// geometry: repeated shapes (VGG's towers of identical layers, repeated
/// session registrations over one architecture) measure once. Entries can
/// be bulk-imported from a persisted MeasuredState (warm server start) and
/// exported back out; `measurements()` counts actual microbenchmark runs
/// (one per (shape, algo) timed), which is how tests pin that a warm cache
/// measures nothing.
class LayerTimeCache {
 public:
  /// Seconds of `layer` under each of `algos` when forward(plan) runs
  /// `batch` images, each keyed by its thread form (timing_threads).
  /// Cached entries are read back and the missing ones timed by measure.
  std::vector<double> seconds(const ConvLayerSpec& layer,
                              std::span<const ConvAlgo> algos,
                              std::size_t batch) {
    std::vector<double> out(algos.size());
    const TimingRequest request{&layer, algos};
    // A clear() racing a measurement drops its entries; time them again.
    for (;;) {
      bool missing = false;
      {
        std::lock_guard lock(mutex_);
        for (std::size_t i = 0; i < algos.size(); ++i) {
          const auto it =
              map_.find(key(layer, algos[i], timing_threads(algos[i], batch)));
          if (it == map_.end()) {
            missing = true;
          } else {
            out[i] = it->second;
          }
        }
      }
      if (!missing) return out;
      measure({&request, 1}, batch);
    }
  }

  /// Time every uncached (shape, candidate) the requests name, in the
  /// thread form forward(plan) runs `batch` images in. The one-thread
  /// jobs (every walk, and im2col at batch > 1) run concurrently: each
  /// shape goes to one global-pool thread, which times all of its
  /// candidates serially and inline (time_shape). The caller builds the
  /// transformers, assigns the shapes to threads by longest processing
  /// time first on their modelled ops (a static assignment, like the
  /// pool's own partition) and allocates one region per thread, sized for
  /// the largest shape it was given, so no timing thread allocates for an
  /// fp32 candidate. The fan-out takes the pool's job slot for its length;
  /// from inside a pool chunk it runs inline, every shape on the calling
  /// thread. Then the caller times the pool-wide jobs (im2col at batch 1)
  /// in a region of its own, outside any InlineScope, so their GEMM fans
  /// out over the pool as it does in forward(). Concurrent calls may
  /// redundantly time the same shape; the first write wins, with an
  /// identical meaning.
  void measure(std::span<const TimingRequest> requests, std::size_t batch) {
    std::vector<ShapeJob> jobs;
    {
      std::lock_guard lock(mutex_);
      for (const TimingRequest& req : requests) {
        const ConvLayerSpec& l = *req.layer;
        for (const ConvAlgo algo : req.algos) {
          const std::size_t threads = timing_threads(algo, batch);
          if (map_.contains(key(l, algo, threads))) continue;
          auto job = std::find_if(jobs.begin(), jobs.end(),
                                  [&](const ShapeJob& j) {
                                    return key(j.layer, algo, j.threads) ==
                                           key(l, algo, threads);
                                  });
          if (job == jobs.end()) {
            job = jobs.emplace(jobs.end());
            job->layer = l;
            job->threads = threads;
          }
          if (std::find(job->algos.begin(), job->algos.end(), algo) ==
              job->algos.end()) {
            job->algos.push_back(algo);
          }
        }
      }
    }
    if (jobs.empty()) return;

    std::deque<winograd::TileTransformer> transformers;
    for (ShapeJob& job : jobs) {
      for (const ConvAlgo algo : job.algos) {
        const winograd::TileTransformer* xf = nullptr;
        if (const int m = std::max(winograd_m(algo), int8_winograd_m(algo));
            m > 0) {
          const int r = static_cast<int>(job.layer.r);
          const auto it = std::find_if(
              transformers.begin(), transformers.end(),
              [&](const auto& t) { return t.m() == m && t.r() == r; });
          xf = it != transformers.end()
                   ? &*it
                   : &transformers.emplace_back(winograd::transforms(m, r));
        }
        job.xfs.push_back(xf);
        job.cost += modelled_ops(job.layer, algo);
      }
      job.seconds.resize(job.algos.size());
    }

    runtime::ThreadPool& pool = runtime::ThreadPool::global();
    const auto one_thread_jobs = static_cast<std::size_t>(
        std::count_if(jobs.begin(), jobs.end(),
                      [](const ShapeJob& j) { return j.threads == 1; }));
    const std::size_t threads = std::min(pool.threads(), one_thread_jobs);
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return jobs[a].cost != jobs[b].cost ? jobs[a].cost > jobs[b].cost
                                          : a < b;
    });
    // Region t < threads is pool thread t's; region `threads` holds the
    // pool-wide ones, which the caller times.
    std::vector<std::vector<std::size_t>> assigned(threads + 1);
    std::vector<double> load(threads, 0.0);
    std::vector<std::size_t> need(threads + 1, 0);
    for (const std::size_t j : order) {
      std::size_t t = threads;
      if (jobs[j].threads == 1) {
        t = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        load[t] += jobs[j].cost;
      }
      assigned[t].push_back(j);
      need[t] = std::max(need[t], shape_bytes(jobs[j]));
    }
    // One block carved into the regions, left uninitialised: each thread
    // first touches its own region. Freed, one block stays in the heap for
    // the allocations that follow the plan (the transform cache and the
    // workspace slabs); a block per region would go back to the system
    // and be faulted in again.
    ByteCarver measure_regions;
    for (const std::size_t bytes : need) {
      (void)measure_regions.take<std::byte>(bytes);
    }
    const auto block = std::make_unique_for_overwrite<std::byte[]>(
        measure_regions.used() + kSlabAlign);
    const auto addr = reinterpret_cast<std::uintptr_t>(block.get());
    ByteCarver carver(std::span<std::byte>(
        block.get() + (kSlabAlign - addr % kSlabAlign) % kSlabAlign,
        measure_regions.used()));
    std::vector<std::span<std::byte>> regions;
    regions.reserve(threads + 1);
    for (const std::size_t bytes : need) {
      regions.push_back(carver.take<std::byte>(bytes));
    }
    const auto time_region = [&](std::size_t t) {
      for (const std::size_t j : assigned[t]) time_shape(jobs[j], regions[t]);
    };
    pool.parallel_for(threads, [&](std::size_t begin, std::size_t end) {
      // A one-thread fan-out runs on the caller without entering the
      // pool; every layer still runs inline, as in a worker chunk.
      const runtime::InlineScope inline_scope;
      for (std::size_t t = begin; t < end; ++t) time_region(t);
    });
    time_region(threads);

    std::lock_guard lock(mutex_);
    for (const ShapeJob& job : jobs) {
      for (std::size_t i = 0; i < job.algos.size(); ++i) {
        ++measurements_;
        map_.emplace(key(job.layer, job.algos[i], job.threads),
                     job.seconds[i]);
      }
    }
  }

  void import_entries(const std::vector<MeasuredLayerTime>& entries) {
    std::lock_guard lock(mutex_);
    for (const MeasuredLayerTime& e : entries) {
      map_[Key{e.h, e.w, e.c, e.k, e.r, e.pad, e.algo, e.threads}] =
          e.seconds;
    }
  }

  [[nodiscard]] std::vector<MeasuredLayerTime> export_entries() const {
    std::vector<MeasuredLayerTime> out;
    {
      std::lock_guard lock(mutex_);
      out.reserve(map_.size());
      for (const auto& [k, secs] : map_) {
        out.push_back(
            {k.h, k.w, k.c, k.k, k.r, k.pad, k.algo, secs, k.threads});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const MeasuredLayerTime& a, const MeasuredLayerTime& b) {
                return std::tie(a.h, a.w, a.c, a.k, a.r, a.pad, a.algo,
                                a.threads) <
                       std::tie(b.h, b.w, b.c, b.k, b.r, b.pad, b.algo,
                                b.threads);
              });
    return out;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    map_.clear();
  }

  [[nodiscard]] std::uint64_t measurements() const {
    std::lock_guard lock(mutex_);
    return measurements_;
  }

  [[nodiscard]] std::size_t entries() const {
    std::lock_guard lock(mutex_);
    return map_.size();
  }

 private:
  struct Key {
    std::size_t h, w, c, k, r;
    int pad;
    ConvAlgo algo;
    std::size_t threads;
    friend bool operator==(const Key&, const Key&) = default;
  };
  static Key key(const ConvLayerSpec& layer, ConvAlgo algo,
                 std::size_t threads) {
    return {layer.h, layer.w, layer.c, layer.k, layer.r, layer.pad, algo,
            threads};
  }
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = k.h;
      for (const std::size_t v :
           {k.w, k.c, k.k, k.r, static_cast<std::size_t>(k.pad),
            static_cast<std::size_t>(k.algo), k.threads}) {
        h = h * 1315423911u ^ v;
      }
      return h;
    }
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, double, KeyHash> map_;
  std::uint64_t measurements_ = 0;
};

LayerTimeCache& layer_time_cache() {
  static LayerTimeCache cache;
  return cache;
}

void require_plannable(const char* where, ConvAlgo algo) {
  if (!is_plannable(algo)) {
    throw std::invalid_argument(std::string(where) + ": " + to_string(algo) +
                                " is not plannable (run_conv-only backend)");
  }
}

/// The quality gate of one conv layer: with an active error budget, a
/// candidate whose predicted error breaches it never enters the speed
/// race — the mechanism that demotes int8 Winograd to int8 im2col to fp32
/// as the budget tightens. Returns the survivors in listed order; throws
/// std::invalid_argument, naming the conv layer, when none survives.
std::vector<ConvAlgo> eligible_candidates(const ConvLayerSpec& layer,
                                          const PlannerOptions& options,
                                          const LayerActivationStats* stats,
                                          std::size_t conv_ordinal) {
  const double budget = options.constraints.max_rel_error;
  std::vector<ConvAlgo> eligible;
  for (const ConvAlgo algo : options.candidates) {
    if (budget > 0 && predict_layer_rel_error(layer, algo, stats) > budget) {
      continue;
    }
    eligible.push_back(algo);
  }
  if (eligible.empty()) {
    throw std::invalid_argument(
        "plan_execution: no candidate algorithm fits the error budget at "
        "conv layer " +
        std::to_string(conv_ordinal));
  }
  return eligible;
}

}  // namespace

double Calibration::gflops(ConvAlgo algo) const {
  // Int8 algos share their fp32 family's rate; the analytic model layers
  // kInt8AnalyticSpeedup on top in predict_layer_ms.
  require_plannable("Calibration::gflops", algo);
  switch (winograd_m(fp32_family(algo))) {
    case 2:
      return winograd2;
    case 3:
      return winograd3;
    case 4:
      return winograd4;
    default:
      return im2col;
  }
}

Calibration default_calibration() { return {}; }

PlanCacheStats plan_cache_stats() {
  return {layer_time_cache().measurements(), layer_time_cache().entries()};
}

MeasuredState export_measured_state() {
  return {layer_time_cache().export_entries()};
}

void import_measured_state(const MeasuredState& state) {
  layer_time_cache().import_entries(state.layer_times);
}

void clear_measured_state() { layer_time_cache().clear(); }

double measure_layer_ms(const ConvLayerSpec& layer, ConvAlgo algo,
                        std::size_t batch) {
  require_plannable("measure_layer_ms", algo);
  return layer_time_cache().seconds(layer, {&algo, 1}, batch).front() * 1e3;
}

double predict_layer_ms(const ConvLayerSpec& layer, ConvAlgo algo,
                        const Calibration& cal, std::size_t batch) {
  // Ops are counted per image and the charged time scales with batch.
  const double per_image = modelled_ops(layer, algo);
  double rate = cal.gflops(algo);
  if (is_int8(algo)) rate *= kInt8AnalyticSpeedup;
  return per_image * static_cast<double>(batch) / (rate * 1e9) * 1e3;
}

double predict_layer_rel_error(const ConvLayerSpec& layer, ConvAlgo algo,
                               const LayerActivationStats* stats) {
  constexpr double kFp32Roundoff = 5.9604644775390625e-8;  // 2^-24
  if (!is_int8(algo)) {
    if (const int m = winograd_m(algo); m > 0) {
      return winograd::error_model(m, static_cast<int>(layer.r))
          .fp32_error_estimate(1.0);
    }
    // Direct forms accumulate one fp32 rounding per reduction step; RMS
    // growth over the C * r^2 reduction is sqrt(depth).
    const double depth = static_cast<double>(layer.c) *
                         static_cast<double>(layer.r * layer.r);
    return std::sqrt(depth) * kFp32Roundoff;
  }
  if (stats == nullptr) {
    // No calibration: the int8 error is unbounded as far as the planner
    // can prove, so a budgeted plan never selects int8 blind.
    return std::numeric_limits<double>::infinity();
  }
  if (!(stats->max_abs > 0)) return 0.0;  // all-zero input quantizes exactly
  if (!(stats->rms > 0)) return std::numeric_limits<double>::infinity();
  // Grid step of the symmetric scheme is 2 * max_abs / 254 ~= max_abs/127;
  // relative to the tensor's typical magnitude that is (2/127) * spread,
  // where spread >= 1 measures how far the range outruns a uniform
  // distribution of the same RMS (uniform: max = rms * sqrt(3)).
  const double spread =
      std::max(1.0, stats->max_abs / (stats->rms * std::sqrt(3.0)));
  double err = (2.0 / 127.0) * spread;
  if (const int qm = int8_winograd_m(algo); qm > 0) {
    // Transform-domain quantization noise rides the full 1-D pipeline
    // amplification kappa_1d = ||B^T|| * ||G|| * ||A^T||: the data and
    // filter transforms widen the per-position dynamic range and the
    // inverse transform amplifies the grid noise. Per-position scaling
    // absorbs roughly one dimension's worth of that inflation, so the 1-D
    // kappa (not kappa_2d) is the empirically sound bound; /3 normalizes
    // F(2x2, 3x3) — the best-conditioned form — to a 3x grid-step cost.
    // Observed errors sit below this bound (tests/quant_plan_test.cpp).
    const winograd::ErrorModel em =
        winograd::error_model(qm, static_cast<int>(layer.r));
    err *= std::max(1.0, em.kappa_1d / 3.0);
  }
  return err;
}

std::vector<ConvAlgo> quantized_candidates() {
  return {ConvAlgo::kInt8Winograd4, ConvAlgo::kInt8Winograd2,
          ConvAlgo::kInt8Im2col};
}

QuantCalibration calibrate_activations(const std::vector<LayerSpec>& layers,
                                       const WeightBank& weights,
                                       const Tensor4f& sample) {
  QuantCalibration cal;
  Tensor4f act = sample;
  std::size_t conv_idx = 0;
  std::size_t fc_idx = 0;
  for (const LayerSpec& l : layers) {
    switch (l.kind) {
      case LayerKind::kConv: {
        if (conv_idx >= weights.conv_kernels.size()) {
          throw std::invalid_argument(
              "calibrate_activations: missing conv weights");
        }
        LayerActivationStats stats;
        double sum_sq = 0;
        const auto flat = act.flat();
        for (const float v : flat) {
          const double d = static_cast<double>(v);
          stats.max_abs = std::max(stats.max_abs, std::abs(d));
          sum_sq += d * d;
        }
        stats.rms = flat.empty()
                        ? 0.0
                        : std::sqrt(sum_sq / static_cast<double>(flat.size()));
        cal.conv_inputs.push_back(stats);
        act = run_conv(ConvAlgo::kIm2col, act, weights.conv_kernels[conv_idx],
                       l.conv.pad);
        ++conv_idx;
        relu_inplace(act);
        break;
      }
      case LayerKind::kMaxPool:
        act = maxpool2x2(act);
        break;
      case LayerKind::kFullyConnected: {
        if (fc_idx >= weights.fc_weights.size()) {
          throw std::invalid_argument(
              "calibrate_activations: missing fc weights");
        }
        act = fully_connected(act, weights.fc_weights[fc_idx],
                              weights.fc_bias[fc_idx], l.fc_out);
        ++fc_idx;
        if (fc_idx < weights.fc_weights.size()) relu_inplace(act);
        break;
      }
    }
  }
  return cal;
}

bool ExecutionPlan::uniform() const {
  const LayerPlan* first = nullptr;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    if (first == nullptr) {
      first = &steps[i];
    } else if (steps[i].algo != first->algo) {
      return false;
    }
  }
  return true;
}

std::string ExecutionPlan::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerPlan& s = steps[i];
    out += "  [" + std::to_string(i) + "] ";
    switch (layers[i].kind) {
      case LayerKind::kConv:
        out += "conv " + nn::to_string(s.algo) +
               (s.fused_relu ? " +relu" : "") + " (" +
               std::to_string(static_cast<long long>(s.predicted_ms * 1e3)) +
               "us)";
        break;
      case LayerKind::kMaxPool:
        out += "maxpool2x2";
        break;
      case LayerKind::kFullyConnected:
        out += "fc";
        break;
    }
    out += "\n";
  }
  return out;
}

void replan_layouts(ExecutionPlan& plan) {
  const auto& layers = plan.layers;
  plan.int8_layers = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    LayerPlan& step = plan.steps[i];
    const bool conv = layers[i].kind == LayerKind::kConv;
    // Winograd and int8 convs fold ReLU into their output scatter /
    // dequantizing store.
    step.fused_relu =
        conv && (winograd_m(step.algo) > 0 || is_int8(step.algo));
    if (conv && is_int8(step.algo)) ++plan.int8_layers;
  }
  plan.memory = MemoryPlan{};
  try {
    plan.memory = build_memory_plan(plan);
  } catch (const std::exception&) {
    // Input shape not derivable at plan time (pool-first stacks) or the
    // walk rejects the geometry; forward() rebuilds from the live input.
  }
  plan.batch_ceiling = plan_batch_ceiling(plan);
}

ExecutionPlan plan_execution(const std::vector<LayerSpec>& layers,
                             const PlannerOptions& options) {
  if (options.candidates.empty()) {
    throw std::invalid_argument("plan_execution: no candidate algorithms");
  }
  for (const ConvAlgo algo : options.candidates) {
    require_plannable("plan_execution", algo);
  }
  ExecutionPlan plan;
  plan.layers = layers;
  plan.steps.assign(layers.size(), LayerPlan{});
  plan.batch = options.batch;
  plan.predicted_total_ms = 0;
  plan.predicted_max_rel_error = 0;
  const double budget = options.constraints.max_rel_error;
  // Every conv layer's activation stats and the candidates that pass its
  // quality gate, gathered before anything is timed.
  struct ConvStep {
    std::size_t index;
    const LayerActivationStats* stats;
    std::vector<ConvAlgo> eligible;
  };
  std::vector<ConvStep> convs;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    const std::size_t ordinal = convs.size();
    const LayerActivationStats* stats = nullptr;
    if (options.quant && ordinal < options.quant->conv_inputs.size()) {
      stats = &options.quant->conv_inputs[ordinal];
    }
    convs.push_back({i, stats,
                     eligible_candidates(layers[i].conv, options, stats,
                                         ordinal)});
  }
  if (!options.calibration) {
    // Time every shape's candidates up front, the walks of distinct
    // shapes concurrently. The loop below then reads the cache.
    std::vector<TimingRequest> requests;
    requests.reserve(convs.size());
    for (const ConvStep& cs : convs) {
      requests.push_back({&layers[cs.index].conv, cs.eligible});
    }
    layer_time_cache().measure(requests, options.batch);
  }
  for (const ConvStep& cs : convs) {
    const ConvLayerSpec& layer = layers[cs.index].conv;
    LayerPlan& step = plan.steps[cs.index];
    const std::vector<ConvAlgo>& eligible = cs.eligible;
    // Default scoring measures every eligible candidate at this layer's
    // exact geometry, in the thread form forward() runs the plan's batch
    // in (cached per process; time per image, scaled by the batch here);
    // an injected calibration switches to the pure analytic model.
    std::vector<double> ms;
    if (options.calibration) {
      for (const ConvAlgo algo : eligible) {
        ms.push_back(predict_layer_ms(layer, algo, *options.calibration,
                                      options.batch));
      }
    } else {
      ms = layer_time_cache().seconds(layer, eligible, options.batch);
      for (double& v : ms) v = v * 1e3 * static_cast<double>(options.batch);
    }
    // min_element keeps the first minimum: ties keep the earliest listed
    // candidate, so the plan is deterministic for any scoring source
    // (measurements are cached, so re-planning sees identical numbers).
    const auto pick = std::min_element(ms.begin(), ms.end()) - ms.begin();
    step.algo = eligible[pick];
    const double best = ms[pick];
    if (is_int8(step.algo) && cs.stats != nullptr) {
      // Attach the static per-tensor activation scale the calibration
      // implies; without stats the executor derives it per image.
      step.act_scale = static_cast<float>(cs.stats->max_abs / 127.0);
    }
    if (budget > 0) {
      plan.predicted_max_rel_error =
          std::max(plan.predicted_max_rel_error,
                   predict_layer_rel_error(layer, step.algo, cs.stats));
    }
    step.predicted_ms = best;
    plan.predicted_total_ms += best;
  }
  replan_layouts(plan);
  return plan;
}

ExecutionPlan uniform_plan(const std::vector<LayerSpec>& layers,
                           ConvAlgo algo) {
  ExecutionPlan plan;
  plan.layers = layers;
  plan.steps.assign(layers.size(), LayerPlan{});
  for (std::size_t i = 0; i < layers.size(); ++i) {
    // Conv layers only: pool/FC steps keep the default (their algo field
    // is never read), matching plan_execution's output shape exactly.
    if (layers[i].kind == LayerKind::kConv) plan.steps[i].algo = algo;
  }
  replan_layouts(plan);
  return plan;
}

Tensor4f forward_reference(const ExecutionPlan& plan,
                           const WeightBank& weights, const Tensor4f& input) {
  Tensor4f act = input;
  std::size_t conv_idx = 0;
  std::size_t fc_idx = 0;
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const auto& l = plan.layers[i];
    switch (l.kind) {
      case LayerKind::kConv: {
        if (conv_idx >= weights.conv_kernels.size()) {
          throw std::invalid_argument(
              "forward_reference: missing conv weights");
        }
        act = run_conv(plan.steps[i].algo, act,
                       weights.conv_kernels[conv_idx], l.conv.pad,
                       plan.steps[i].act_scale);
        ++conv_idx;
        relu_inplace(act);
        break;
      }
      case LayerKind::kMaxPool:
        act = maxpool2x2(act);
        break;
      case LayerKind::kFullyConnected: {
        if (fc_idx >= weights.fc_weights.size()) {
          throw std::invalid_argument(
              "forward_reference: missing fc weights");
        }
        act = fully_connected(act, weights.fc_weights[fc_idx],
                              weights.fc_bias[fc_idx], l.fc_out);
        ++fc_idx;
        if (fc_idx < weights.fc_weights.size()) relu_inplace(act);
        break;
      }
    }
  }
  return act;
}

void maxpool2x2_packed_into(const Layout& il, std::span<const float> in,
                            const Layout& ol, std::span<float> out,
                            std::span<std::size_t> in_col,
                            std::span<std::size_t> out_col) {
  if (il.kind != LayoutKind::kNCHW || ol.kind != LayoutKind::kNCHW) {
    throw std::invalid_argument(
        "maxpool2x2_packed_into: input and output must be NCHW");
  }
  if (!in_col.empty() || !out_col.empty()) {
    throw std::invalid_argument(
        "maxpool2x2_packed_into: NCHW pooling takes no column maps");
  }
  if (in.size() != il.volume()) {
    throw std::invalid_argument(
        "maxpool2x2_packed_into: buffer size != layout volume");
  }
  const auto& s = il.shape;
  if (s.h < 2 || s.w < 2) {
    throw std::invalid_argument("maxpool2x2_packed_into: input too small");
  }
  const Shape4 os{s.n, s.c, s.h / 2, s.w / 2};
  if (!(ol.shape == os)) {
    throw std::invalid_argument(
        "maxpool2x2_packed_into: output layout does not match this pool");
  }
  if (out.size() != ol.volume()) {
    throw std::invalid_argument(
        "maxpool2x2_packed_into: output buffer size != layout volume");
  }
  runtime::parallel_for(s.n * s.c, [&](std::size_t begin, std::size_t end) {
    for (std::size_t plane = begin; plane < end; ++plane) {
      const float* in_plane = in.data() + plane * s.h * s.w;
      float* out_plane = out.data() + plane * os.h * os.w;
      for (std::size_t oy = 0; oy < os.h; ++oy) {
        const float* row0 = in_plane + 2 * oy * s.w;
        const float* row1 = row0 + s.w;
        float* orow = out_plane + oy * os.w;
        for (std::size_t ox = 0; ox < os.w; ++ox) {
          const std::size_t x = 2 * ox;
          // Exactly maxpool2x2's maxes in maxpool2x2's order, so the
          // result is bit-identical to it (incl. NaN propagation, which
          // depends on operand order).
          const float m0 = std::max(row0[x], row0[x + 1]);
          const float m1 = std::max(row1[x], row1[x + 1]);
          orow[ox] = std::max(m0, m1);
        }
      }
    }
  });
}

}  // namespace wino::nn

#include "nn/plan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "dse/complexity.hpp"
#include "quant/int8.hpp"
#include "runtime/thread_pool.hpp"
#include "winograd/error_model.hpp"
#include "winograd/kernels.hpp"

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

/// Modelled op count of one conv layer under `algo` (the numerator the
/// calibrated GFLOP/s divides). Winograd: Eq 4 + Eq 5 data/inverse with
/// exact ragged tiles, filter transforms excluded (cross-call cache).
/// Spatial/im2col: delivered spatial multiply+add ops. FFT: padded-grid
/// transform + complex pointwise model matching conv::conv2d_fft's shape
/// (fft_size = next_pow2(max(H, W) + r - 1)). Int8 algos share their fp32
/// family's counts (same dataflow, cheaper multiplies).
double modelled_ops(const ConvLayerSpec& layer, ConvAlgo algo,
                    std::size_t batch) {
  algo = fp32_family(algo);
  const int m = winograd_m(algo);
  if (m > 0) {
    const auto costs = dse::TransformCosts::from_generated(
        m, static_cast<int>(layer.r));
    const auto t = dse::transform_complexity_tiled(layer, m, costs, batch);
    return 2.0 * static_cast<double>(
                     dse::mult_complexity_tiled(layer, m, batch)) +
           t.data + t.inverse;
  }
  if (algo == ConvAlgo::kFft) {
    std::size_t fft_size = 1;
    while (fft_size < std::max(layer.h, layer.w) + layer.r - 1) {
      fft_size <<= 1;
    }
    const double grid = static_cast<double>(fft_size * fft_size);
    // One 2-D FFT = 2 * L length-L line FFTs at ~5 L log2 L real ops.
    const double f2d = 10.0 * grid * std::log2(static_cast<double>(fft_size));
    const double n = static_cast<double>(batch);
    const double c = static_cast<double>(layer.c);
    const double k = static_cast<double>(layer.k);
    return c * k * f2d           // kernel transforms (per call)
           + n * c * f2d         // data transforms
           + n * k * f2d         // inverse transforms
           + n * c * k * grid * 8.0;  // complex pointwise multiply-accumulate
  }
  return static_cast<double>(layer.spatial_ops(batch));
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

/// One probe layer's measurement for every backend class.
struct ProbePoint {
  ConvLayerSpec layer;
  double ops[6];     // modelled ops, indexed as `kProbeAlgos`
  double gflops[6];  // delivered rate
};

constexpr ConvAlgo kProbeAlgos[6] = {
    ConvAlgo::kSpatial,   ConvAlgo::kIm2col,    ConvAlgo::kFft,
    ConvAlgo::kWinograd2, ConvAlgo::kWinograd3, ConvAlgo::kWinograd4};

/// Fill `out` with a fixed pattern spread over [-amplitude, amplitude):
/// one 32-bit LCG step per element (Numerical Recipes constants), whose
/// top 24 bits are the fraction. No distribution object per element.
void fill_pattern(std::span<float> out, std::uint32_t state, float amplitude) {
  for (float& v : out) {
    state = state * 1664525u + 1013904223u;
    v = amplitude * (static_cast<float>(state >> 8) * 0x1p-23F - 1.0F);
  }
}

/// The operands every candidate of one layer shape is timed against: a
/// pattern-filled input image in [-1, 1) and filter bank in [-0.1, 0.1).
/// Built once per shape and shared by all of its candidates. The kernels
/// timed have no data-dependent paths, so the values only need to be
/// finite, non-trivial and cheap to make.
struct LayerOperands {
  Tensor4f input;
  Tensor4f kernels;

  explicit LayerOperands(const ConvLayerSpec& layer)
      : input(1, layer.c, layer.h, layer.w),
        kernels(layer.k, layer.c, layer.r, layer.r) {
    fill_pattern(input.flat(), 123u, 1.0F);
    fill_pattern(kernels.flat(), 321u, 0.1F);
  }
};

/// Time one conv layer under `algo` the way forward() executes it: the
/// Winograd backends get precomputed filter transforms (the executor
/// reads them from the cross-call cache and the op model excludes them)
/// and run the layout-aware kernel the plan walk dispatches; everything
/// else runs through run_conv. One warm-up, best of 3, single image.
double measure_layer_seconds(const ConvLayerSpec& layer, ConvAlgo algo,
                             const LayerOperands& operands) {
  const Tensor4f& input = operands.input;
  const Tensor4f& kernels = operands.kernels;
  if (const int m = winograd_m(algo); m > 0) {
    const winograd::TileTransformer xf(
        winograd::transforms(m, static_cast<int>(layer.r)));
    const winograd::TransformedKernels tk(xf, kernels);
    winograd::WinogradConvOptions wopt;
    wopt.pad = layer.pad;
    return best_seconds([&] {
      (void)winograd::conv2d_winograd_layout(input, tk, xf, wopt,
                                             /*fuse_relu=*/false);
    });
  }
  // The int8 forms time against prequantized banks, mirroring the executor
  // (which reads them from its cross-call cache): filter quantization is a
  // registration-time cost, not a per-forward one.
  if (const int qm = int8_winograd_m(algo); qm > 0) {
    const winograd::TileTransformer xf(
        winograd::transforms(qm, static_cast<int>(layer.r)));
    const quant::QuantizedWinogradKernels qk =
        quant::quantize_winograd_kernels(xf, kernels);
    return best_seconds([&] {
      (void)quant::conv2d_winograd_int8(input, qk, xf, layer.pad);
    });
  }
  if (algo == ConvAlgo::kInt8Im2col) {
    const quant::QuantizedFilter qf = quant::quantize_filters(kernels);
    return best_seconds(
        [&] { (void)quant::conv2d_im2col_int8(input, qf, layer.pad); });
  }
  return best_seconds(
      [&] { (void)run_conv(algo, input, kernels, layer.pad); });
}

/// Per-process cache of measured per-layer timings keyed by the layer
/// geometry: repeated shapes (VGG's towers of identical layers, repeated
/// session registrations over one architecture) measure once. Entries can
/// be bulk-imported from a persisted MeasuredState (warm server start) and
/// exported back out; `measurements()` counts actual microbenchmark runs
/// (one per (shape, algo) timed), which is how tests pin that a warm cache
/// measures nothing.
class LayerTimeCache {
 public:
  /// Seconds of `layer` under each of `algos`. Cached entries are read
  /// back; the missing ones are all timed against one LayerOperands, so a
  /// shape pays its operand fill once however many candidates it times.
  std::vector<double> seconds(const ConvLayerSpec& layer,
                              std::span<const ConvAlgo> algos) {
    std::vector<double> out(algos.size());
    std::vector<ConvAlgo> missing;
    {
      std::lock_guard lock(mutex_);
      for (std::size_t i = 0; i < algos.size(); ++i) {
        if (const auto it = map_.find(key(layer, algos[i]));
            it != map_.end()) {
          out[i] = it->second;
        } else if (std::find(missing.begin(), missing.end(), algos[i]) ==
                   missing.end()) {
          missing.push_back(algos[i]);
        }
      }
    }
    if (missing.empty()) return out;
    // Measure outside the lock (concurrent registrations may redundantly
    // measure the same shape; the first write wins with an identical
    // meaning).
    const LayerOperands operands(layer);
    std::vector<double> measured;
    measured.reserve(missing.size());
    for (const ConvAlgo algo : missing) {
      measured.push_back(measure_layer_seconds(layer, algo, operands));
    }
    std::lock_guard lock(mutex_);
    for (std::size_t j = 0; j < missing.size(); ++j) {
      ++measurements_;
      map_.emplace(key(layer, missing[j]), measured[j]);
    }
    for (std::size_t i = 0; i < algos.size(); ++i) {
      if (const auto it = map_.find(key(layer, algos[i]));
          it != map_.end()) {
        out[i] = it->second;
      }
    }
    return out;
  }

  void import_entries(const std::vector<MeasuredLayerTime>& entries) {
    std::lock_guard lock(mutex_);
    for (const MeasuredLayerTime& e : entries) {
      map_[Key{e.h, e.w, e.c, e.k, e.r, e.pad, e.algo}] = e.seconds;
    }
  }

  [[nodiscard]] std::vector<MeasuredLayerTime> export_entries() const {
    std::vector<MeasuredLayerTime> out;
    {
      std::lock_guard lock(mutex_);
      out.reserve(map_.size());
      for (const auto& [k, secs] : map_) {
        out.push_back({k.h, k.w, k.c, k.k, k.r, k.pad, k.algo, secs});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const MeasuredLayerTime& a, const MeasuredLayerTime& b) {
                return std::tie(a.h, a.w, a.c, a.k, a.r, a.pad, a.algo) <
                       std::tie(b.h, b.w, b.c, b.k, b.r, b.pad, b.algo);
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
    friend bool operator==(const Key&, const Key&) = default;
  };
  static Key key(const ConvLayerSpec& layer, ConvAlgo algo) {
    return {layer.h, layer.w, layer.c, layer.k, layer.r, layer.pad, algo};
  }
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = k.h;
      for (const std::size_t v :
           {k.w, k.c, k.k, k.r, static_cast<std::size_t>(k.pad),
            static_cast<std::size_t>(k.algo)}) {
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

ProbePoint probe_point(std::size_t hw, std::size_t channels) {
  ProbePoint p;
  p.layer.h = hw;
  p.layer.w = hw;
  p.layer.c = channels;
  p.layer.k = channels;
  p.layer.r = 3;
  p.layer.pad = 1;
  const std::vector<double> secs =
      layer_time_cache().seconds(p.layer, kProbeAlgos);
  for (int a = 0; a < 6; ++a) {
    p.ops[a] = modelled_ops(p.layer, kProbeAlgos[a], 1);
    p.gflops[a] = p.ops[a] / secs[a] / 1e9;
  }
  return p;
}

Calibration probe_calibration() {
  // Big anchor: a mid-network-ish layer where every backend is compute
  // bound. Small anchor: a late-network tiny map where per-call overheads
  // (panel packing, tile setup, tiny GEMMs) dominate — the regime where a
  // big-map rate would wildly overrate the GEMM backends.
  const ProbePoint big = probe_point(/*hw=*/16, /*channels=*/32);
  const ProbePoint small = probe_point(/*hw=*/2, /*channels=*/64);

  Calibration cal;
  AlgoCalibration* entries[6] = {&cal.spatial,   &cal.im2col,
                                 &cal.fft,       &cal.winograd2,
                                 &cal.winograd3, &cal.winograd4};
  for (int a = 0; a < 6; ++a) {
    entries[a]->ops_big = big.ops[a];
    entries[a]->gflops_big = big.gflops[a];
    entries[a]->ops_small = small.ops[a];
    entries[a]->gflops_small = small.gflops[a];
  }
  return cal;
}

bool degenerate(const AlgoCalibration& c) {
  return !(c.gflops_small > 0) || !(c.gflops_big > 0) ||
         !(c.ops_small > 0) || !(c.ops_big > c.ops_small);
}

/// Owns the process's resident Calibration. Replaces the old
/// function-local static so a persisted calibration can be imported
/// (preempting the probe — the warm-server-start path) and tests can
/// clear it to force cold behaviour. `probes()` counts actual probe runs.
class CalibrationStore {
 public:
  const Calibration& get() {
    std::lock_guard lock(mutex_);
    if (!have_) {
      // Probe under the lock: concurrent first callers block instead of
      // racing duplicate probes; the probe only touches layer_time_cache's
      // own mutex, so there is no ordering cycle.
      cal_ = sanitized_probe();
      have_ = true;
      ++probes_;
    }
    // The reference stays valid for the process lifetime (cal_ is a
    // member of a leaked-singleton store); an import() after this returns
    // changes the referenced values, matching "latest resident
    // calibration" semantics.
    return cal_;
  }

  void import(const Calibration& cal) {
    std::lock_guard lock(mutex_);
    cal_ = cal;
    have_ = true;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    have_ = false;
  }

  [[nodiscard]] bool loaded() const {
    std::lock_guard lock(mutex_);
    return have_;
  }

  [[nodiscard]] std::optional<Calibration> snapshot() const {
    std::lock_guard lock(mutex_);
    if (!have_) return std::nullopt;
    return cal_;
  }

  [[nodiscard]] std::uint64_t probes() const {
    std::lock_guard lock(mutex_);
    return probes_;
  }

 private:
  static Calibration sanitized_probe() {
    Calibration c = probe_calibration();
    // A degenerate probe point (clock glitch returning a zero or negative
    // rate) would make a candidate look free; fall back to the
    // deterministic default for that family instead.
    const Calibration fallback = default_calibration();
    if (degenerate(c.spatial)) c.spatial = fallback.spatial;
    if (degenerate(c.im2col)) c.im2col = fallback.im2col;
    if (degenerate(c.fft)) c.fft = fallback.fft;
    if (degenerate(c.winograd2)) c.winograd2 = fallback.winograd2;
    if (degenerate(c.winograd3)) c.winograd3 = fallback.winograd3;
    if (degenerate(c.winograd4)) c.winograd4 = fallback.winograd4;
    return c;
  }

  mutable std::mutex mutex_;
  Calibration cal_;
  bool have_ = false;
  std::uint64_t probes_ = 0;
};

CalibrationStore& calibration_store() {
  static CalibrationStore store;
  return store;
}

}  // namespace

double AlgoCalibration::gflops_at(double ops) const {
  if (ops <= ops_small) return gflops_small;
  if (ops >= ops_big) return gflops_big;
  const double t = (std::log(ops) - std::log(ops_small)) /
                   (std::log(ops_big) - std::log(ops_small));
  return gflops_small + t * (gflops_big - gflops_small);
}

const AlgoCalibration& Calibration::entry(ConvAlgo algo) const {
  // Int8 algos share their fp32 family's entry: the probe set (and the
  // "winocal 1" persistence format) stays six entries, and the analytic
  // model layers kInt8AnalyticSpeedup on top in predict_layer_ms.
  algo = fp32_family(algo);
  switch (winograd_m(algo)) {
    case 2:
      return winograd2;
    case 3:
      return winograd3;
    case 4:
      return winograd4;
    default:
      break;
  }
  switch (algo) {
    case ConvAlgo::kSpatial:
      return spatial;
    case ConvAlgo::kIm2col:
      return im2col;
    case ConvAlgo::kFft:
      return fft;
    default:
      return spatial;
  }
}

Calibration default_calibration() {
  Calibration cal;
  const auto flat = [](double gflops) {
    AlgoCalibration c;
    c.gflops_small = gflops;
    c.gflops_big = gflops;
    return c;
  };
  cal.spatial = flat(1.0);
  cal.im2col = flat(8.0);
  cal.fft = flat(1.0);
  cal.winograd2 = flat(4.0);
  cal.winograd3 = flat(4.0);
  cal.winograd4 = flat(4.0);
  return cal;
}

const Calibration& measured_calibration() { return calibration_store().get(); }

PlanCacheStats plan_cache_stats() {
  PlanCacheStats s;
  s.calibration_probes = calibration_store().probes();
  s.layer_measurements = layer_time_cache().measurements();
  s.layer_entries = layer_time_cache().entries();
  s.calibration_loaded = calibration_store().loaded();
  return s;
}

MeasuredState export_measured_state() {
  MeasuredState state;
  state.calibration = calibration_store().snapshot();
  state.layer_times = layer_time_cache().export_entries();
  return state;
}

void import_measured_state(const MeasuredState& state) {
  if (state.calibration) calibration_store().import(*state.calibration);
  layer_time_cache().import_entries(state.layer_times);
}

void clear_measured_state() {
  calibration_store().clear();
  layer_time_cache().clear();
}

double measure_layer_ms(const ConvLayerSpec& layer, ConvAlgo algo) {
  return layer_time_cache().seconds(layer, {&algo, 1}).front() * 1e3;
}

double predict_layer_ms(const ConvLayerSpec& layer, ConvAlgo algo,
                        const Calibration& cal, std::size_t batch) {
  // The rate anchor is selected on per-image work (sub-batches walk the
  // stack one cache-budgeted chunk at a time, so per-call work scales with
  // the layer, not the whole batch); the charged time scales with batch.
  const double per_image = modelled_ops(layer, algo, 1);
  double rate = cal.entry(algo).gflops_at(per_image);
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
  ExecutionPlan plan;
  plan.layers = layers;
  plan.steps.assign(layers.size(), LayerPlan{});
  plan.predicted_total_ms = 0;
  plan.predicted_max_rel_error = 0;
  const double budget = options.constraints.max_rel_error;
  std::size_t conv_ordinal = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    LayerPlan& step = plan.steps[i];
    const LayerActivationStats* stats = nullptr;
    if (options.quant && conv_ordinal < options.quant->conv_inputs.size()) {
      stats = &options.quant->conv_inputs[conv_ordinal];
    }
    // Quality gate first: with an active budget, a candidate whose
    // predicted error breaches it never enters the speed race — the
    // mechanism that demotes int8 Winograd to int8 im2col to fp32 as the
    // budget tightens.
    std::vector<ConvAlgo> eligible;
    for (const ConvAlgo algo : options.candidates) {
      if (budget > 0 &&
          predict_layer_rel_error(layers[i].conv, algo, stats) > budget) {
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
    // Default scoring measures every eligible candidate at this layer's
    // exact geometry in one pass (cached per process); an injected
    // calibration switches to the pure analytic model.
    std::vector<double> ms;
    if (options.calibration) {
      for (const ConvAlgo algo : eligible) {
        ms.push_back(predict_layer_ms(layers[i].conv, algo,
                                      *options.calibration, options.batch));
      }
    } else {
      ms = layer_time_cache().seconds(layers[i].conv, eligible);
      for (double& v : ms) v = v * 1e3 * static_cast<double>(options.batch);
    }
    // min_element keeps the first minimum: ties keep the earliest listed
    // candidate, so the plan is deterministic for any scoring source
    // (measurements are cached, so re-planning sees identical numbers).
    const auto pick = std::min_element(ms.begin(), ms.end()) - ms.begin();
    step.algo = eligible[pick];
    const double best = ms[pick];
    if (is_int8(step.algo) && stats != nullptr) {
      // Attach the static per-tensor activation scale the calibration
      // implies; without stats the executor derives it per image.
      step.act_scale = static_cast<float>(stats->max_abs / 127.0);
    }
    if (budget > 0) {
      plan.predicted_max_rel_error =
          std::max(plan.predicted_max_rel_error,
                   predict_layer_rel_error(layers[i].conv, step.algo, stats));
    }
    step.predicted_ms = best;
    plan.predicted_total_ms += best;
    ++conv_ordinal;
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

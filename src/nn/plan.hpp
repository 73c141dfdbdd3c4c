// Per-layer execution planning: the cost-model-driven replacement for the
// single global ConvAlgo.
//
// The paper's central result is that the best Winograd F(m, r) trades
// multiplication complexity (Eq 4) against transform complexity (Eq 5)
// *per layer*: the balance shifts with each layer's H/W/C/K, so one m for
// the whole network leaves performance behind. This header turns that
// observation into the runtime's execution model. A planner scores the
// candidate algorithms (by default im2col / Winograd m in {2, 3, 4};
// spatial and FFT on request, see PlannerOptions::candidates) for every
// conv layer with the dse:: complexity equations — evaluated with exact
// ragged-tile counts, which is what makes the best m genuinely
// layer-dependent on small late-network maps — calibrated against GFLOP/s
// measured once per process by a microbenchmark probe. The result is an
// ExecutionPlan: one decision record per layer {algo, fused ReLU},
// executed by the plan-driven nn::forward(ExecutionPlan) overload
// (src/nn/forward.cpp).
//
// Every layer hands its output to the next in NCHW. The Winograd walks tile
// the image inside each layer (overlapping (m+r-1)^2 windows with stride
// m, the paper's Fig 7), so a mixed-m plan — a W4 layer feeding a W2 one —
// needs no re-blocking between them.
//
// Determinism contract: forward(plan) is bit-identical to composing the
// same per-layer algorithms through the reference path (forward_reference),
// at every batch size and thread count — the executor runs the same
// arithmetic on the same values in the same order, the executor's maxpool
// takes the same maxes in the same order, and fused ReLU is the same
// formula on the same values. Pinned by tests/nn_plan_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/forward.hpp"
#include "nn/memory_plan.hpp"
#include "nn/network.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor.hpp"

namespace wino::nn {

/// One layer's execution decision.
struct LayerPlan {
  /// Convolution algorithm (kConv layers only; ignored for pool/FC).
  ConvAlgo algo = ConvAlgo::kIm2col;
  /// ReLU folded into the conv output scatter (Winograd and int8 layers).
  bool fused_relu = false;
  /// Cost-model estimate for this layer (conv layers; 0 otherwise).
  double predicted_ms = 0;
  /// Static per-tensor activation scale for int8 conv layers (max|x| / 127
  /// from calibration); <= 0 means "derive per image" — the value run_conv
  /// and the plan executor hand to the quant:: kernels. 0 for fp32 layers.
  float act_scale = 0;

  friend bool operator==(const LayerPlan&, const LayerPlan&) = default;
};

/// A fully resolved execution recipe for one layer stack: the stack itself
/// plus one LayerPlan per layer and summary counters. Built once (per
/// model session in serving), executed by forward(plan, weights, input)
/// any number of times.
struct ExecutionPlan {
  std::vector<LayerSpec> layers;
  std::vector<LayerPlan> steps;  ///< same length as layers

  /// Slab assignment for the plan's buffers, built by replan_layouts when
  /// the input shape is derivable from the first layer; empty otherwise
  /// (forward() then builds one from the live input shape).
  MemoryPlan memory;

  std::size_t int8_layers = 0;       ///< conv layers running a kInt8* algo
  double predicted_total_ms = 0;     ///< sum of conv predicted_ms
  /// Largest predict_layer_rel_error over the chosen conv algorithms; only
  /// filled when the plan was built under an error budget
  /// (PlanConstraints::max_rel_error > 0), else 0.
  double predicted_max_rel_error = 0;
  /// Per-model batch ceiling from the plan's transform-domain working
  /// sets (plan_batch_ceiling): the largest image count a worker chunk
  /// marches through the stack while the fattest Winograd layer's
  /// expanded activations stay cache-resident. 0 = no Winograd layer, no
  /// cache-derived ceiling. serve:: clamps dynamic batches to it instead
  /// of using the one global max_batch knob for every model.
  std::size_t batch_ceiling = 0;

  /// True when every conv layer runs the same algorithm.
  [[nodiscard]] bool uniform() const;

  /// Human-readable per-layer dump for benches and debugging.
  [[nodiscard]] std::string to_string() const;
};

/// Measured delivered rate of one backend class at two probe scales. A
/// backend's effective GFLOP/s (against the dse:: op counts — packing /
/// lowering / transform overheads folded in) is strongly work-size
/// dependent: the GEMM behind im2col runs near peak on a big feature map
/// and collapses on a 2x2 one, Winograd tiles amortise differently, and a
/// single rate per family makes the planner extrapolate tiny late-network
/// layers from big-map behaviour. Two anchors — a compute-bound "big"
/// probe and an overhead-bound "small" one — with log-work interpolation
/// in between keep the prediction exact at both probe shapes and honest
/// between them.
struct AlgoCalibration {
  double ops_small = 1e5;      ///< modelled ops of the small probe layer
  double gflops_small = 1.0;   ///< delivered rate there
  double ops_big = 5e6;        ///< modelled ops of the big probe layer
  double gflops_big = 1.0;     ///< delivered rate there

  /// Rate for a layer of `ops` modelled ops: log-linear between the two
  /// anchors, clamped outside them.
  [[nodiscard]] double gflops_at(double ops) const;

  friend bool operator==(const AlgoCalibration&,
                         const AlgoCalibration&) = default;
};

/// The measured half of the cost model: one AlgoCalibration per backend
/// class. Winograd is calibrated per tile edge — the m's differ in
/// measured efficiency (bigger tiles pay denser transform sandwiches per
/// delivered op), so a shared rate would let the op-count model alone
/// pick m and mispredict.
struct Calibration {
  AlgoCalibration spatial;
  AlgoCalibration im2col;
  AlgoCalibration fft;
  AlgoCalibration winograd2;
  AlgoCalibration winograd3;
  AlgoCalibration winograd4;

  /// The calibration entry for `algo` (winograd selected by its m).
  [[nodiscard]] const AlgoCalibration& entry(ConvAlgo algo) const;

  friend bool operator==(const Calibration&, const Calibration&) = default;
};

/// Deterministic fallback rates (also the documentation of the ratios the
/// planner assumes when no probe has run): GEMM-backed im2col well above
/// spatial, Winograd between them per delivered op, flat across work
/// sizes (gflops_small == gflops_big).
[[nodiscard]] Calibration default_calibration();

/// Measure the calibration with a one-shot microbenchmark probe: each
/// backend runs two small conv layers (a compute-bound big-map shape and
/// an overhead-bound tiny-map shape) a few times and the best wall-clocks
/// turn into the two delivered-GFLOP/s anchors. The probe runs once per
/// process and the result is cached (so repeated planning — the serving
/// registration path — is cheap and deterministic within a process). A
/// calibration injected via import_measured_state() (e.g. loaded from the
/// on-disk cache, nn/calibration_io.hpp) preempts the probe entirely.
[[nodiscard]] const Calibration& measured_calibration();

/// One cached per-layer timing — the export/import unit of the
/// measure_layer_ms cache (keys mirror its geometry key).
struct MeasuredLayerTime {
  std::size_t h = 0, w = 0, c = 0, k = 0, r = 0;
  int pad = 0;
  ConvAlgo algo = ConvAlgo::kSpatial;
  double seconds = 0.0;

  friend bool operator==(const MeasuredLayerTime&,
                         const MeasuredLayerTime&) = default;
};

/// Everything the measuring paths have learned this process: the probe
/// calibration (if any resident) and the per-layer timing cache. The
/// serialisable snapshot behind calibration persistence.
struct MeasuredState {
  std::optional<Calibration> calibration;
  /// Sorted by (h, w, c, k, r, pad, algo) for deterministic output.
  std::vector<MeasuredLayerTime> layer_times;
};

/// Introspection counters for the measured-state caches; tests pin
/// "warm start skips the probe" with these.
struct PlanCacheStats {
  std::uint64_t calibration_probes = 0;  ///< full probe runs this process
  std::uint64_t layer_measurements = 0;  ///< individual layer timings run
  std::size_t layer_entries = 0;         ///< timings currently cached
  bool calibration_loaded = false;       ///< a calibration is resident
};
[[nodiscard]] PlanCacheStats plan_cache_stats();

/// Snapshot the measured caches (thread-safe, non-destructive).
[[nodiscard]] MeasuredState export_measured_state();

/// Seed the measured caches: the calibration (when present) preempts the
/// probe in measured_calibration(), and every layer timing preempts its
/// measure_layer_ms measurement. Existing layer entries with the same key
/// are overwritten; others are kept.
void import_measured_state(const MeasuredState& state);

/// Drop both caches — the next measured_calibration() probes again and
/// every measure_layer_ms re-measures. Test hook for cold-cache paths.
void clear_measured_state();

/// Accuracy constraints the planner enforces per conv layer.
struct PlanConstraints {
  /// Maximum tolerated relative output error (max-abs error over the
  /// output's dynamic range) per conv layer. 0 disables the check; > 0
  /// makes plan_execution reject every candidate whose
  /// predict_layer_rel_error exceeds it — the gate that demotes int8
  /// Winograd to int8 im2col to fp32 as the budget tightens, and throws
  /// std::invalid_argument when no candidate fits at all.
  double max_rel_error = 0.0;

  friend bool operator==(const PlanConstraints&,
                         const PlanConstraints&) = default;
};

/// Observed dynamic range of one conv layer's input activation, recorded
/// by calibrate_activations over a representative sample.
struct LayerActivationStats {
  double max_abs = 0;  ///< max |x| — the per-tensor int8 scale is this / 127
  double rms = 0;      ///< root-mean-square of x (error-spread denominator)

  friend bool operator==(const LayerActivationStats&,
                         const LayerActivationStats&) = default;
};

/// Per-model activation calibration: one stats record per conv layer, in
/// conv-layer order. Feeds the planner's error model (which int8 form is
/// safe where) and the static activation scales the plan carries.
struct QuantCalibration {
  std::vector<LayerActivationStats> conv_inputs;

  friend bool operator==(const QuantCalibration&,
                         const QuantCalibration&) = default;
};

/// Record each conv layer's input dynamic range by walking `sample`
/// through the fp32 reference stack (im2col convs, exact NCHW data flow).
/// `sample` must match the first layer like forward()'s input; any batch
/// size works and all images contribute to the stats.
[[nodiscard]] QuantCalibration calibrate_activations(
    const std::vector<LayerSpec>& layers, const WeightBank& weights,
    const tensor::Tensor4f& sample);

/// Predicted relative output error (max-abs error / output dynamic range)
/// of one conv layer under `algo` — the quality half of the cost model,
/// derived from winograd::ErrorModel and the int8 grid step:
///
///  * fp32 direct forms charge accumulated rounding, sqrt(C * r^2) * 2^-24;
///  * fp32 Winograd charges ErrorModel::fp32_error_estimate (kappa_2d
///    amplification of fp32 roundoff);
///  * int8 im2col charges the quantization grid step 2/127 times the
///    layer's spread factor max_abs / (rms * sqrt(3)) — how much wider the
///    tensor's range is than a uniform distribution of the same RMS, i.e.
///    how much grid resolution its outliers waste;
///  * int8 Winograd additionally multiplies the transform-domain
///    amplification max(1, kappa_1d / 3) — an upper bound on what
///    quantizing U = B^T d B and V = G g G^T costs: the forward
///    transforms widen the per-position dynamic range and the inverse
///    amplifies the grid noise. The kernel scales every tile position at
///    its observed max, which absorbs about one dimension of that
///    inflation — hence the 1-D kappa rather than kappa_2d. F(2x2, 3x3)
///    (kappa_1d = 9) stays cheap; F(4x4, 3x3) (kappa_1d = 200) is priced
///    as numerically unsafe, matching its observed behaviour.
///
/// `stats` may be null: fp32 predictions don't need it; int8 predictions
/// without calibration return +infinity, so a budgeted planner never
/// selects int8 blind. Pinned by tests/quant_plan_test.cpp.
[[nodiscard]] double predict_layer_rel_error(const ConvLayerSpec& layer,
                                             ConvAlgo algo,
                                             const LayerActivationStats* stats);

/// The quantized candidate set, fastest-first: {kInt8Winograd4,
/// kInt8Winograd2, kInt8Im2col}. Append to PlannerOptions::candidates to
/// let a budgeted planner mix precisions.
[[nodiscard]] std::vector<ConvAlgo> quantized_candidates();

/// Planner knobs.
struct PlannerOptions {
  /// Candidate algorithms, tried in order; ties keep the earliest listed.
  /// kFft and kSpatial are not in the default set: measured on every
  /// distinct conv shape of vgg16_d_scaled(7|14|28, 8), FFT ran 10-40x
  /// and spatial 1.1-8x slower than the best Winograd, so neither was ever
  /// picked, yet timing FFT was most of a cold plan. Both remain valid
  /// candidates: list them here to have them measured and scored again.
  std::vector<ConvAlgo> candidates = {ConvAlgo::kWinograd2,
                                      ConvAlgo::kWinograd3,
                                      ConvAlgo::kWinograd4, ConvAlgo::kIm2col};
  /// How candidates are scored. nullopt (the default): every candidate is
  /// *measured* at each conv layer's own geometry by the microbenchmark
  /// probe (measure_layer_ms — cached per process, so planning many
  /// sessions over the same architecture re-measures nothing). With a
  /// Calibration injected, scoring is the pure analytic model
  /// (predict_layer_ms) — deterministic and timing-free, which is what
  /// the cost-model unit tests pin.
  std::optional<Calibration> calibration;
  /// Batch size the plan is optimised for (scales every candidate alike
  /// under this model, so it rarely changes the argmin; kept explicit for
  /// cost reporting).
  std::size_t batch = 1;
  /// Accuracy budget; constraints.max_rel_error > 0 activates the error
  /// model as a per-layer candidate filter.
  PlanConstraints constraints;
  /// Activation calibration (calibrate_activations). Required for int8
  /// candidates to pass an active error budget, and the source of the
  /// static act_scale attached to chosen int8 layers; without it int8
  /// layers fall back to per-image dynamic scales.
  std::optional<QuantCalibration> quant;
};

/// Cost model: predicted milliseconds for one conv layer under `algo`.
/// Winograd candidates charge 2 * dse::mult_complexity_tiled plus the
/// data + inverse transform ops of dse::transform_complexity_tiled (filter
/// transforms come from the cross-call cache and are excluded); spatial /
/// im2col charge the delivered spatial op count; FFT charges a padded
/// pointwise + FFT op model. All divided by the calibrated rate of the
/// backend's class.
[[nodiscard]] double predict_layer_ms(const ConvLayerSpec& layer,
                                      ConvAlgo algo, const Calibration& cal,
                                      std::size_t batch = 1);

/// Measured per-image milliseconds of one conv layer under `algo`, the
/// planner's default scoring source: the backend runs the layer's exact
/// geometry the way forward() executes it (Winograd with precomputed
/// filter transforms through the layout-aware kernel; im2col/spatial/FFT
/// through run_conv) and the best of a few reps is kept. Any ConvAlgo can
/// be measured, including kFft and kSpatial, which the default candidate
/// set leaves out. Results are cached per process keyed by (H, W, C, K, r,
/// pad, algo), so planning re-measures nothing for repeated shapes — VGG's
/// towers of identical layers, or many sessions over the same
/// architecture. plan_execution times all of a layer's uncached
/// candidates against one operand set, the same pattern-filled input and
/// filter bank this function builds, so a cached timing means the same
/// whichever path made it.
[[nodiscard]] double measure_layer_ms(const ConvLayerSpec& layer,
                                      ConvAlgo algo);

/// Score every candidate for every conv layer and assemble the cheapest
/// per-layer mix, then run replan_layouts over it. Deterministic: same
/// layers + same calibration -> same plan.
[[nodiscard]] ExecutionPlan plan_execution(
    const std::vector<LayerSpec>& layers, const PlannerOptions& options = {});

/// Re-derive everything a plan computes from its per-layer algorithms —
/// after an edit to them (tests and tools build bespoke mixed plans this
/// way): the fused_relu flags (set on Winograd and int8 convs), the
/// int8_layers count, the memory plan and the batch ceiling.
void replan_layouts(ExecutionPlan& plan);

/// The plan's cache-derived batch ceiling (see ExecutionPlan::
/// batch_ceiling): largest worker-chunk image count whose worst Winograd
/// transform-domain working set fits the per-core cache budget (768 KiB),
/// or 0 when no layer runs a Winograd form. Same math as the executor's
/// sub-batch split, so the serve-side ceiling and the forward-side
/// chunking cannot disagree.
[[nodiscard]] std::size_t plan_batch_ceiling(const ExecutionPlan& plan);

/// The trivial plan the forward(layers, weights, input, algo) overload
/// wraps: every conv layer runs `algo`, finished by replan_layouts like
/// plan_execution.
[[nodiscard]] ExecutionPlan uniform_plan(const std::vector<LayerSpec>& layers,
                                         ConvAlgo algo);

/// Execute a plan — the one executor every forward runs on. Batches fan
/// out image-parallel on the global ThreadPool in cache-budgeted
/// sub-batches (bit-identical for any thread count / chunking); Winograd
/// layers read filter transforms from the cross-call cache, prewarmed per
/// plan so worker chunks never serialise on a cold cache. Throws
/// std::invalid_argument, naming the layer, when `weights` was not built
/// for the plan's layer stack (one K x C x r x r bank per conv layer, one
/// fc_in x fc_out weight + fc_out bias pair per FC layer).
tensor::Tensor4f forward(const ExecutionPlan& plan, const WeightBank& weights,
                         const tensor::Tensor4f& input);

/// As above into a caller-provided output tensor (reshaped as needed):
/// the zero-allocation serving form — with the plan's MemoryPlan matching
/// the input and per-thread workspaces warm, the hot loop performs no heap
/// allocation (pinned by tests/nn_memory_test.cpp).
void forward(const ExecutionPlan& plan, const WeightBank& weights,
             const tensor::Tensor4f& input, tensor::Tensor4f& out);

/// Warm the execution state a plan needs so the first real forward pays no
/// setup: filter transforms into the cross-call cache, and every pool
/// worker's (plus the caller's) thread-local workspace slab sized for
/// chunks of up to `max_images`. serve::InferenceServer calls this at
/// model registration, making per-request memory a planned constant.
/// Checks `weights` against the plan exactly like forward().
void prewarm_workspaces(const ExecutionPlan& plan, const WeightBank& weights,
                        std::size_t max_images);

/// Slab bytes owned by the calling thread's workspace (0 before it ever
/// executed a plan). Test/introspection hook.
[[nodiscard]] std::size_t thread_workspace_bytes();

/// The memcmp oracle for forward(plan), and the only NCHW one: compose the
/// same per-layer algorithms through the always-NCHW data flow (run_conv +
/// separate ReLU pass + NCHW maxpool), one layer at a time. Slow; exists
/// for tests and the bit-identity verdicts in the benches.
tensor::Tensor4f forward_reference(const ExecutionPlan& plan,
                                   const WeightBank& weights,
                                   const tensor::Tensor4f& input);

/// 2x2 stride-2 max pooling over flat NCHW buffers: the executor's pool
/// step. Takes exactly the maxes of maxpool2x2 in the same order, so the
/// result is bit-identical to it, NaN propagation included (pinned by
/// tests/nn_plan_test.cpp). Plane-parallel on the global ThreadPool and
/// bit-identical for any thread count. `il` and `ol` must be kNCHW and
/// the column maps empty (std::invalid_argument otherwise): the Layout
/// and column-map parameters stay only because bench/e2e/replay.cpp
/// passes them, and they leave together with that file (ROADMAP item 1).
void maxpool2x2_packed_into(const tensor::Layout& il,
                            std::span<const float> in,
                            const tensor::Layout& ol, std::span<float> out,
                            std::span<std::size_t> in_col,
                            std::span<std::size_t> out_col);

}  // namespace wino::nn

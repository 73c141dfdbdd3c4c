// Per-layer execution planning: the cost-model-driven replacement for the
// single global ConvAlgo.
//
// The paper's central result is that the best Winograd F(m, r) trades
// multiplication complexity (Eq 4) against transform complexity (Eq 5)
// *per layer*: the balance shifts with each layer's H/W/C/K, so one m for
// the whole network leaves performance behind. This header turns that
// observation into the runtime's execution model. A planner scores the
// candidate algorithms (by default im2col / Winograd m in {2, 3, 4}; the
// int8 forms on request) for every conv layer, either by timing each
// candidate at the layer's own geometry (the default, cached per process;
// one image, through the executor's own kernels, in the thread form
// forward(plan) runs that candidate in at the plan's batch; the distinct
// shapes' Winograd walks time concurrently, one shape per pool thread) or
// with the dse:: complexity equations —
// evaluated with exact ragged-tile counts, which is what makes the best m
// genuinely layer-dependent on small late-network maps — divided by an
// injected per-family GFLOP/s Calibration. The result is an ExecutionPlan: one
// decision record per layer {algo, fused ReLU}, executed by the
// plan-driven nn::forward(ExecutionPlan) overload (src/nn/forward.cpp).
// Only the algorithms that executor has a step for are plannable
// (is_plannable); spatial and FFT are run_conv-only cross-check backends.
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
  /// Cost-model estimate for this layer at the plan's batch (conv layers;
  /// 0 otherwise). Measured at batch 1: the wall time of one image as
  /// forward() runs it, im2col with its parallel_for across the global
  /// pool, a walk on one thread. Measured at batch b > 1: b times the
  /// single-thread time of one image, the work forward()'s by-image
  /// fan-out spreads over the pool.
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
  /// Batch the plan was scored at: PlannerOptions::batch for
  /// plan_execution, 1 for uniform_plan.
  std::size_t batch = 1;
  /// Sum of conv predicted_ms: the plan's cost estimate at its batch.
  /// serve:: charges predicted_total_ms / batch, one image's share, per
  /// request.
  double predicted_total_ms = 0;
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

/// The rate half of the analytic cost model: delivered GFLOP/s (against
/// the dse:: op counts — packing / lowering / transform overheads folded
/// in) per plannable fp32 family; the int8 forms share their family's
/// rate. Winograd has one rate per tile edge — the m's differ in
/// efficiency (bigger tiles pay denser transform sandwiches per delivered
/// op), so a shared rate would let the op-count model alone pick m.
struct Calibration {
  double im2col = 8.0;
  double winograd2 = 4.0;
  double winograd3 = 4.0;
  double winograd4 = 4.0;

  /// The rate for `algo` (Winograd selected by its m, int8 by its fp32
  /// family). Throws std::invalid_argument for a non-plannable algo.
  [[nodiscard]] double gflops(ConvAlgo algo) const;

  friend bool operator==(const Calibration&, const Calibration&) = default;
};

/// The deterministic rates the analytic planner assumes (a default
/// Calibration): GEMM-backed im2col at twice Winograd's rate per
/// delivered op.
[[nodiscard]] Calibration default_calibration();

/// One cached per-layer timing — the export/import unit of the
/// measure_layer_ms cache (keys mirror its geometry key plus the thread
/// form: `threads` is 1 for a layer timed inline, as inside a worker chunk
/// of a batch fan-out — always for a Winograd walk — else the global pool
/// size a batch-1 im2col candidate was timed across).
struct MeasuredLayerTime {
  std::size_t h = 0, w = 0, c = 0, k = 0, r = 0;
  int pad = 0;
  ConvAlgo algo = ConvAlgo::kIm2col;
  double seconds = 0.0;
  std::size_t threads = 1;

  friend bool operator==(const MeasuredLayerTime&,
                         const MeasuredLayerTime&) = default;
};

/// Everything the measuring path has learned this process: the per-layer
/// timing cache. The serialisable snapshot behind calibration persistence.
struct MeasuredState {
  /// Sorted by (h, w, c, k, r, pad, algo, threads) for deterministic
  /// output.
  std::vector<MeasuredLayerTime> layer_times;
};

/// Introspection counters for the layer timing cache; tests pin "a warm
/// start measures nothing" with these.
struct PlanCacheStats {
  std::uint64_t layer_measurements = 0;  ///< individual layer timings run
  std::size_t layer_entries = 0;         ///< timings currently cached
};
[[nodiscard]] PlanCacheStats plan_cache_stats();

/// Snapshot the timing cache (thread-safe, non-destructive).
[[nodiscard]] MeasuredState export_measured_state();

/// Seed the timing cache: every imported layer timing preempts its
/// measure_layer_ms measurement. Existing entries with the same key are
/// overwritten; others are kept.
void import_measured_state(const MeasuredState& state);

/// Drop the timing cache — every measure_layer_ms re-measures. Test hook
/// for cold-cache paths.
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
  /// Every one must be plannable (is_plannable): plan_execution throws
  /// std::invalid_argument on kSpatial or kFft, which measured 1.1-8x and
  /// 10-40x slower than the best Winograd on every distinct conv shape of
  /// vgg16_d_scaled(7|14|28, 8) and were never picked.
  std::vector<ConvAlgo> candidates = {ConvAlgo::kWinograd2,
                                      ConvAlgo::kWinograd3,
                                      ConvAlgo::kWinograd4, ConvAlgo::kIm2col};
  /// How candidates are scored. nullopt (the default): every candidate is
  /// *measured* at each conv layer's own geometry (measure_layer_ms —
  /// cached per process, so planning many sessions over the same
  /// architecture re-measures nothing). With a
  /// Calibration injected, scoring is the pure analytic model
  /// (predict_layer_ms) — deterministic and timing-free, which is what
  /// the cost-model unit tests pin.
  std::optional<Calibration> calibration;
  /// Batch size the plan is optimised for. The analytic model scales every
  /// candidate alike by it. Measured scoring times each candidate in the
  /// thread form forward() runs this batch in (see measure_layer_ms), so
  /// batch 1 and batch > 1 can pick different algorithms.
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
/// transforms come from the cross-call cache and are excluded); im2col
/// charges the delivered spatial op count. Both are divided by the
/// calibrated rate of the backend's family (int8 forms at
/// kInt8AnalyticSpeedup times it). Throws std::invalid_argument for a
/// non-plannable algo.
[[nodiscard]] double predict_layer_ms(const ConvLayerSpec& layer,
                                      ConvAlgo algo, const Calibration& cal,
                                      std::size_t batch = 1);

/// Measured per-image milliseconds of one conv layer under `algo` when
/// forward(plan) runs `batch` images, the planner's default scoring
/// source. Every candidate is timed by one routine, on one image of the
/// layer's exact geometry, through the executor's own allocation-free
/// kernels: the Winograd walk against a bank transformed into a caller-
/// owned buffer, the executor's im2col lowering + GEMM loop, or the int8
/// cores against prequantized banks (quantizing the bank is the one step
/// that allocates). One warm-up, best of 3. The thread form — the key of
/// the cached timing — follows forward() and depends only on the algo and
/// the batch:
///  * a Winograd walk (fp32 W2/W3/W4, int8 W2/W4) has no parallel_for of
///    its own, so it has one form, threads == 1, at every batch; it is
///    timed inline on a pool thread (runtime::InlineScope), concurrently
///    with other shapes' walks;
///  * im2col (fp32 and int8) at batch > 1 runs inline inside a worker
///    chunk of forward()'s by-image fan-out and is timed that way, form 1;
///    at batch 1 forward() runs the stack on the calling thread, so it is
///    timed on the caller outside any InlineScope, its lowering and GEMM
///    fanning out over the global pool, form = the pool size.
/// Throws std::invalid_argument for a non-plannable algo. Results are
/// cached per process keyed by (H, W, C, K, r, pad, algo, form), so
/// planning re-measures nothing for repeated shapes — VGG's towers of
/// identical layers, or many sessions over the same architecture. Every
/// timing of a shape runs against the same pattern-filled input and
/// filter bank, so a cached timing means the same whichever call made it.
[[nodiscard]] double measure_layer_ms(const ConvLayerSpec& layer,
                                      ConvAlgo algo, std::size_t batch = 1);

/// Score every candidate for every conv layer and assemble the cheapest
/// per-layer mix, then run replan_layouts over it. Deterministic: same
/// layers + same calibration -> same plan. Throws std::invalid_argument
/// when the candidate list is empty or holds a non-plannable algo, or when
/// no candidate of some conv layer fits the error budget (before anything
/// is timed).
///
/// With measured scoring the uncached timings of all conv layers are taken
/// up front, at any batch. The one-thread ones (every walk, and im2col at
/// batch > 1) run concurrently: each distinct shape goes, whole, to one
/// thread of the global pool (longest processing time first by modelled
/// op count, a static assignment made on the caller), which times its
/// candidates serially in a buffer the caller allocated. At batch 1 the
/// caller then times the im2col candidates with their GEMM across the
/// pool. The per-layer scoring then reads the cache. The call holds the
/// pool's job slot for the length of the fan-out; from inside a pool
/// chunk it runs every shape inline on the calling thread.
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
/// plan_execution. Accepts every algo, so forward_reference can run the
/// whole stack under spatial or FFT; forward() executes only plannable
/// ones.
[[nodiscard]] ExecutionPlan uniform_plan(const std::vector<LayerSpec>& layers,
                                         ConvAlgo algo);

/// Execute a plan — the one executor every forward runs on. Batches fan
/// out image-parallel on the global ThreadPool in cache-budgeted
/// sub-batches (bit-identical for any thread count / chunking); Winograd
/// layers read filter transforms from the cross-call cache, prewarmed per
/// plan so worker chunks never serialise on a cold cache. Throws
/// std::invalid_argument, naming the layer, on the caller thread before
/// any worker runs when a conv step is not plannable, when `weights` was
/// not built for the plan's layer stack (one K x C x r x r bank per conv
/// layer, one fc_in x fc_out weight + fc_out bias pair per FC layer), or
/// when `input` does not fit the stack (see build_memory_plan).
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
/// worker's (plus the caller's) thread-local workspace slab sized for its
/// share of a `max_images` batch — ceil(max_images / threads) images,
/// capped by the plan's sub-batch, the most forward() hands one
/// participant. (A forward nested inside a pool chunk runs its whole batch
/// on one thread, whose slab grows on that first call.) serve::InferenceServer calls this at
/// model registration, making per-request memory a planned constant.
/// Checks the plan's algorithms and `weights` exactly like forward().
void prewarm_workspaces(const ExecutionPlan& plan, const WeightBank& weights,
                        std::size_t max_images);

/// Slab bytes owned by the calling thread's workspace (0 before it ever
/// executed a plan). Test/introspection hook.
[[nodiscard]] std::size_t thread_workspace_bytes();

/// The memcmp oracle for forward(plan), and the only NCHW one: compose the
/// same per-layer algorithms through the always-NCHW data flow (run_conv +
/// separate ReLU pass + NCHW maxpool), one layer at a time. Slow; exists
/// for tests, the bit-identity verdicts in the benches and whole-network
/// runs under the run_conv-only backends (spatial, FFT).
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

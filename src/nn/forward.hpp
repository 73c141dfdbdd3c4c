// Numerical forward pass with a pluggable convolution algorithm.
//
// Lets the examples and tests run (scaled) CNN inference where every conv
// layer is computed by im2col / Winograd-F(m) / their int8 forms and the
// results are cross-checked — the software analogue of swapping the
// paper's convolution engine in and out of the datapath. Every forward
// runs on one executor, the plan-driven forward(ExecutionPlan) in
// nn/plan.hpp, whose memcmp oracle is forward_reference; the uniform-algo
// overload here only builds the trivial plan. Spatial and FFT are
// run_conv-only cross-check backends: whole-network runs under them go
// through forward_reference(uniform_plan(...)).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "tensor/tensor.hpp"

namespace wino::nn {

/// Which algorithm computes each convolution. The kInt8* family is the
/// quantized execution mode (see docs/QUANTIZATION.md): symmetric int8
/// operands, exact int32 accumulation, fp32 dequantize — selected per
/// layer by the planner under an accuracy budget (PlanConstraints).
enum class ConvAlgo {
  kSpatial,
  kIm2col,
  kFft,
  kWinograd2,      ///< F(2x2, 3x3)
  kWinograd3,      ///< F(3x3, 3x3)
  kWinograd4,      ///< F(4x4, 3x3)
  kInt8Im2col,     ///< int8 im2col GEMM (runtime/igemm.hpp)
  kInt8Winograd2,  ///< int8 transform-domain F(2x2, 3x3)
  kInt8Winograd4,  ///< int8 transform-domain F(4x4, 3x3)
};

[[nodiscard]] std::string to_string(ConvAlgo algo);

/// Inverse of to_string(ConvAlgo), also accepting the short command-line
/// spellings: "spatial", "im2col", "fft", "winograd2" / "w2" (likewise 3,
/// 4), "int8" / "int8-im2col", "i8w2" / "i8w4" and the canonical
/// "winograd-F(2x2,3x3)" forms. The shared parser for every bench/example
/// algo flag — binaries must not grow their own if/else ladders. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] ConvAlgo parse_conv_algo(const std::string& name);

/// F(m) output-tile edge of the fp32 Winograd algos; 0 for every other
/// algorithm (the predicate the planner and executor dispatch the fp32
/// Winograd walk on). Deliberately 0 for the int8 Winograd algos, which
/// run their own quantized walk — int8_winograd_m() exposes their tile
/// edge instead.
[[nodiscard]] int winograd_m(ConvAlgo algo);

/// True for the quantized (kInt8*) algorithms.
[[nodiscard]] bool is_int8(ConvAlgo algo);

/// True for the algorithms the plan executor has a step for: Winograd
/// m in {2, 3, 4}, im2col and the three int8 forms. plan_execution,
/// measure_layer_ms, forward(plan) and prewarm_workspaces reject the rest
/// (kSpatial, kFft) with std::invalid_argument; those stay run_conv
/// backends, reachable whole-network through forward_reference.
[[nodiscard]] bool is_plannable(ConvAlgo algo);

/// F(m) output-tile edge of the int8 Winograd algos; 0 for every other
/// algorithm (including kInt8Im2col).
[[nodiscard]] int int8_winograd_m(ConvAlgo algo);

/// True for the Winograd walks, fp32 or int8. A walk has no parallel_for
/// of its own, so it runs on one thread in forward(plan) at every batch
/// and its measured timing has one thread form, threads == 1.
[[nodiscard]] bool is_walk(ConvAlgo algo);

/// Dispatch one convolution (stride 1) with the chosen algorithm.
tensor::Tensor4f run_conv(ConvAlgo algo, const tensor::Tensor4f& input,
                          const tensor::Tensor4f& kernels, int pad);

/// As above with an explicit activation scale for the int8 algorithms
/// (ignored by the fp32 ones): act_scale > 0 is the static per-tensor
/// calibration scale a plan carries (LayerPlan::act_scale); <= 0 derives
/// the scale per image. The 4-argument overload forwards act_scale = 0.
tensor::Tensor4f run_conv(ConvAlgo algo, const tensor::Tensor4f& input,
                          const tensor::Tensor4f& kernels, int pad,
                          float act_scale);

/// Elementwise max(x, 0).
void relu_inplace(tensor::Tensor4f& t);

/// 2x2 max pooling with stride 2 (VGG's pooling).
tensor::Tensor4f maxpool2x2(const tensor::Tensor4f& input);

/// y = W x + b per image; x is the flattened CHW volume.
tensor::Tensor4f fully_connected(const tensor::Tensor4f& input,
                                 const std::vector<float>& weights,
                                 const std::vector<float>& bias,
                                 std::size_t out_features);

/// Monotonic id used to tag WeightBank contents for the transformed-kernel
/// cache. Every call returns a fresh, process-unique value.
std::uint64_t next_weight_version();

/// Weight bank for a network: one KCrr tensor per conv layer plus FC
/// weight/bias arrays, initialised from a deterministic seed.
struct WeightBank {
  std::vector<tensor::Tensor4f> conv_kernels;
  std::vector<std::vector<float>> fc_weights;
  std::vector<std::vector<float>> fc_bias;

  /// Identity of the weight *values*, keying the cross-call transformed-
  /// kernel cache (copies legitimately share it — same values, same
  /// transforms). Call bump_version() after mutating any kernel in place,
  /// or the cache will serve transforms of the old values.
  std::uint64_t version = next_weight_version();

  void bump_version() { version = next_weight_version(); }
};

/// Allocate random weights for `layers` (He-style scaled normal).
WeightBank random_weights(const std::vector<LayerSpec>& layers,
                          std::uint64_t seed = 1);

/// Run the layer stack with every conv layer under `algo`: a one-line
/// wrapper over the plan executor, forward(uniform_plan(layers, algo), ...)
/// (see nn/plan.hpp), so `algo` must be plannable (is_plannable). Input
/// must match the first layer's (c, h, w); returns the final activation
/// tensor. The cost-model planner (plan_execution) produces mixed
/// per-layer plans for the same executor.
///
/// Batches run image-parallel on the runtime's global ThreadPool; every
/// layer treats images independently, so the result is bit-identical for
/// any thread count (see tests/runtime_test.cpp) — and each image's output
/// is bit-identical to running that image through forward() alone,
/// whatever batch it rides in (the property the serving layer's dynamic
/// batcher relies on; pinned by tests/serve_test.cpp).
tensor::Tensor4f forward(const std::vector<LayerSpec>& layers,
                         const WeightBank& weights,
                         const tensor::Tensor4f& input, ConvAlgo algo);

/// Batch-entry API: pack independently owned image tensors into one
/// contiguous NCHW batch for forward(). Every entry must share the same
/// (c, h, w); entries may themselves be mini-batches (n >= 1) and are
/// concatenated along n in order. Used by serve::InferenceServer to
/// coalesce queued single-image requests into a batched forward call.
///
/// \param images non-empty list of non-null tensors of identical
///               per-image shape.
/// \return batch of shape (sum of n_i, c, h, w).
tensor::Tensor4f stack_images(
    const std::vector<const tensor::Tensor4f*>& images);

/// Inverse of stack_images for single-image consumers: split a batched
/// activation into one (1, c, h, w) tensor per image, preserving order.
std::vector<tensor::Tensor4f> unstack_images(const tensor::Tensor4f& batch);

/// Counters for the process-wide transformed-kernel cache that forward()
/// consults for Winograd conv layers (keyed by layer index, m, r and the
/// WeightBank version): repeated forward calls over the same weights — the
/// serving-workload shape — reuse the filter transforms instead of
/// recomputing them per image and per call.
///
/// A miss builds its entry outside the cache lock. Two threads that miss
/// the same key concurrently therefore both count a miss and both build;
/// the first insert is kept and the other copy is dropped, so `entries`
/// counts one. Single-threaded, every miss is exactly one build.
struct TransformCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};

[[nodiscard]] TransformCacheStats transform_cache_stats();

/// Drop every cached transform (and zero the hit/miss counters).
void clear_transform_cache();

/// A spatially scaled-down VGG16-D-like stack (same channel progression,
/// reduced resolution) so end-to-end inference is test-sized. `scale`
/// divides the 224 x 224 input (must divide 224 and keep >= 32 px... the
/// standard choice is scale = 7 -> 32 x 32 input).
std::vector<LayerSpec> vgg16_d_scaled(std::size_t scale,
                                      std::size_t channel_div = 8);

}  // namespace wino::nn

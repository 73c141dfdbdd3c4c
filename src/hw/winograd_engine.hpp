// Cycle-level simulator of the pipelined Winograd convolution engine.
//
// Substitution note (DESIGN.md section 2): this stands in for the RTL the
// paper synthesises. It executes the exact datapath of Figs 4/5/7 — shared
// data transform, P parallel PEs (element-wise multipliers + inverse
// transform), per-PE channel accumulation buffers, double-buffered kernel
// groups — with cycle accounting that reduces to the paper's Eq 9 when
// bandwidth is ample, and exposes stall cycles when it is not. In
// functional mode the simulated hardware computes the actual arithmetic,
// so its output tensor is compared against spatial convolution in the
// tests (the datapath is *verified*, not assumed).
#pragma once

#include <cstdint>

#include "hw/engine_config.hpp"
#include "nn/network.hpp"
#include "tensor/tensor.hpp"

namespace wino::hw {

/// Cycle accounting for one simulated layer.
struct SimStats {
  std::uint64_t issue_cycles = 0;      ///< data-transform issue slots used
  std::uint64_t stall_cycles = 0;      ///< waiting on DRAM refills
  std::uint64_t pipeline_fill = 0;     ///< Dp - 1 drain/fill cycles
  std::uint64_t total_cycles = 0;      ///< issue + stall + fill
  std::uint64_t tiles = 0;             ///< tile positions processed
  std::uint64_t kernel_groups = 0;     ///< ceil(K / P) passes
  std::uint64_t ew_mult_ops = 0;       ///< fp32 mults issued to PEs
  std::uint64_t wasted_pe_slots = 0;   ///< idle PEs in the last group
  double dram_bytes = 0;               ///< total off-chip traffic
  double pe_utilization = 0;           ///< useful mults / peak mult slots

  [[nodiscard]] double latency_s(double frequency_hz) const {
    return static_cast<double>(total_cycles) / frequency_hz;
  }
};

struct SimResult {
  tensor::Tensor4f output;  ///< empty in timing-only mode
  SimStats stats;
};

/// What the simulator computes.
enum class SimMode {
  kFunctional,  ///< full arithmetic + cycle accounting (small layers)
  kTimingOnly   ///< cycle accounting only (whole-VGG capable)
};

class WinogradEngine {
 public:
  explicit WinogradEngine(const EngineConfig& config);

  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Simulate one stride-1 convolution layer. In functional mode `input`
  /// is NCHW and `kernels` KCrr; the result tensor matches
  /// conv::conv2d_spatial up to fp32 rounding. Computed by the
  /// single-threaded reference walk (winograd::conv2d_winograd) in the
  /// hardware's post-inverse accumulation order, so the output is
  /// bit-identical for any thread count.
  SimResult run_layer(const tensor::Tensor4f& input,
                      const tensor::Tensor4f& kernels, int pad,
                      SimMode mode = SimMode::kFunctional) const;

  /// A copy of this engine re-tiled to F(m x m, r): the multiplier budget
  /// (parallel_pes x tile^2) is re-divided into (m + r - 1)^2-wide PEs (at
  /// least one), every other knob — clock, bandwidth, style, stage
  /// latencies in their "derive from the DAG" defaults — carries over.
  /// The hook the per-layer execution planner uses to drive one simulated
  /// chip at each layer's planned m (nn/plan.hpp), modelling a
  /// reconfigurable or multi-engine deployment of the paper's datapath.
  [[nodiscard]] WinogradEngine retiled(int m) const;

  /// Timing-only simulation driven by a layer spec (no tensors).
  SimStats run_layer_timing(const nn::ConvLayerSpec& layer,
                            std::size_t batch = 1) const;

  /// Timing-only simulation of a whole workload; returns per-group-summed
  /// stats (pipeline fill counted per layer, as in Eq 9).
  SimStats run_workload_timing(const nn::ConvWorkload& net,
                               std::size_t batch = 1) const;

 private:
  SimStats simulate_timing(std::size_t out_h, std::size_t out_w,
                           std::size_t channels, std::size_t kernels,
                           std::size_t in_h, std::size_t in_w,
                           std::size_t batch) const;

  EngineConfig config_;
};

}  // namespace wino::hw

#include "hw/winograd_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "winograd/kernels.hpp"

namespace wino::hw {

using tensor::Tensor4f;

WinogradEngine::WinogradEngine(const EngineConfig& config)
    : config_(config.resolved()) {
  if (config_.parallel_pes == 0) {
    throw std::invalid_argument("WinogradEngine: need at least one PE");
  }
  if (config_.m < 1 || config_.r < 1) {
    throw std::invalid_argument("WinogradEngine: bad m/r");
  }
}

SimStats WinogradEngine::simulate_timing(std::size_t out_h, std::size_t out_w,
                                         std::size_t channels,
                                         std::size_t kernels,
                                         std::size_t in_h, std::size_t in_w,
                                         std::size_t batch) const {
  const auto mm = static_cast<std::size_t>(config_.m);
  const std::size_t n = config_.tile();
  const std::size_t p = config_.parallel_pes;
  constexpr double kBytes = 4.0;  // fp32

  SimStats s;
  const std::size_t tiles_h = (out_h + mm - 1) / mm;
  const std::size_t tiles_w = (out_w + mm - 1) / mm;
  s.tiles = tiles_h * tiles_w * batch;
  s.kernel_groups = (kernels + p - 1) / p;

  const std::uint64_t issue_per_group = s.tiles * channels;
  s.issue_cycles = issue_per_group * s.kernel_groups;
  s.pipeline_fill = config_.pipeline_depth() - 1;

  // Off-chip traffic per kernel group: the input feature map streams
  // through the line-buffered image buffer once per group, the group's
  // pre-transformed kernels load once, and its outputs write back.
  const double input_bytes =
      static_cast<double>(batch * in_h * in_w * channels) * kBytes;
  for (std::size_t g = 0; g < s.kernel_groups; ++g) {
    const std::size_t group_kernels = std::min(p, kernels - g * p);
    const double kernel_bytes =
        static_cast<double>(group_kernels * channels * n * n) * kBytes;
    const double output_bytes =
        static_cast<double>(batch * out_h * out_w * group_kernels) * kBytes;
    const double group_bytes = input_bytes + kernel_bytes + output_bytes;
    s.dram_bytes += group_bytes;
    const double io_cycles =
        std::ceil(group_bytes / config_.dram_bytes_per_cycle);
    if (config_.double_buffering) {
      const double excess = io_cycles - static_cast<double>(issue_per_group);
      if (excess > 0) s.stall_cycles += static_cast<std::uint64_t>(excess);
    } else {
      s.stall_cycles += static_cast<std::uint64_t>(io_cycles);
    }
  }

  s.ew_mult_ops = static_cast<std::uint64_t>(s.tiles) * channels * n * n *
                  kernels;
  s.wasted_pe_slots =
      (s.kernel_groups * p - kernels) * s.tiles * channels;
  s.pe_utilization = static_cast<double>(kernels) /
                     static_cast<double>(s.kernel_groups * p);
  s.total_cycles = s.issue_cycles + s.stall_cycles + s.pipeline_fill;
  return s;
}

SimStats WinogradEngine::run_layer_timing(const nn::ConvLayerSpec& layer,
                                          std::size_t batch) const {
  if (static_cast<int>(layer.r) != config_.r) {
    throw std::invalid_argument("run_layer_timing: kernel size mismatch");
  }
  return simulate_timing(layer.out_h(), layer.out_w(), layer.c, layer.k,
                         layer.h, layer.w, batch);
}

SimStats WinogradEngine::run_workload_timing(const nn::ConvWorkload& net,
                                             std::size_t batch) const {
  SimStats total;
  for (const auto& layer : net.all_layers()) {
    const SimStats s = run_layer_timing(layer, batch);
    total.issue_cycles += s.issue_cycles;
    total.stall_cycles += s.stall_cycles;
    total.pipeline_fill += s.pipeline_fill;
    total.total_cycles += s.total_cycles;
    total.tiles += s.tiles;
    total.kernel_groups += s.kernel_groups;
    total.ew_mult_ops += s.ew_mult_ops;
    total.wasted_pe_slots += s.wasted_pe_slots;
    total.dram_bytes += s.dram_bytes;
  }
  const double peak = static_cast<double>(total.issue_cycles) *
                      static_cast<double>(config_.parallel_pes);
  total.pe_utilization =
      peak > 0 ? (peak - static_cast<double>(total.wasted_pe_slots)) / peak
               : 0.0;
  return total;
}

WinogradEngine WinogradEngine::retiled(int m) const {
  if (m < 1) {
    throw std::invalid_argument("WinogradEngine::retiled: m must be >= 1");
  }
  EngineConfig cfg = config_;
  const std::size_t budget = cfg.parallel_pes * cfg.tile() * cfg.tile();
  cfg.m = m;
  cfg.parallel_pes = std::max<std::size_t>(
      1, budget / (cfg.tile() * cfg.tile()));
  // Stage latencies were resolved for the old tile; re-derive them from
  // the new transform program's DAG depth.
  cfg.data_transform_latency = 0;
  cfg.inverse_latency = 0;
  return WinogradEngine(cfg);
}

SimResult WinogradEngine::run_layer(const Tensor4f& input,
                                    const Tensor4f& kernels, int pad,
                                    SimMode mode) const {
  const auto& is = input.shape();
  const auto& ks = kernels.shape();
  if (ks.c != is.c) {
    throw std::invalid_argument("run_layer: channel mismatch");
  }
  if (ks.h != static_cast<std::size_t>(config_.r) || ks.h != ks.w) {
    throw std::invalid_argument("run_layer: kernel size mismatch");
  }
  const std::ptrdiff_t oh = static_cast<std::ptrdiff_t>(is.h) + 2 * pad -
                            config_.r + 1;
  const std::ptrdiff_t ow = static_cast<std::ptrdiff_t>(is.w) + 2 * pad -
                            config_.r + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("run_layer: output would be empty");
  }
  const auto out_h = static_cast<std::size_t>(oh);
  const auto out_w = static_cast<std::size_t>(ow);

  SimResult result;
  result.stats =
      simulate_timing(out_h, out_w, is.c, ks.n, is.h, is.w, is.n);
  if (mode == SimMode::kTimingOnly) return result;

  // Functional execution through the reference tile walk. The hardware's
  // datapath — shared data transform, elementwise PE products, per-PE
  // inverse, then the Fig 7 accumulation buffers summing channel by
  // channel in ascending order — is exactly winograd::conv2d_winograd with
  // post-inverse accumulation: the same gather, the same transforms, the
  // same channel-ascending sums after each tile's inverse. Kernel grouping
  // only affects timing (the per-group stats above), never values, so the
  // engine delegates to the reference walk instead of keeping a private
  // copy of the tile loop.
  const winograd::TileTransformer xf(
      winograd::transforms(config_.m, config_.r));
  const winograd::TransformedKernels tk(xf, kernels);
  result.output = winograd::conv2d_winograd(
      input, tk, xf, {pad, winograd::AccumulationOrder::kPostInverse});
  return result;
}

}  // namespace wino::hw

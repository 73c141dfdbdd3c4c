#include "nn/memory_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "nn/plan.hpp"

namespace wino::nn {

using tensor::Layout;
using tensor::LayoutKind;
using tensor::Shape4;

namespace {

std::size_t align_up(std::size_t n) {
  return (n + kSlabAlign - 1) / kSlabAlign * kSlabAlign;
}

std::uint64_t next_plan_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Planned output Layout of one step at shape.n == 1; validates the plan
/// only emits layouts the workspace executor can write.
Layout step_output_layout(const LayerPlan& step, Shape4 out) {
  switch (step.output_kind) {
    case LayoutKind::kNCHW:
      return Layout::nchw(out);
    case LayoutKind::kWinogradTile:
      return Layout::winograd_tile(out, step.out_tile_m);
    default:
      throw std::invalid_argument(
          "build_memory_plan: unsupported planned output layout");
  }
}

}  // namespace

winograd::WinogradScratch carve_winograd_scratch(ByteCarver& carver,
                                                 std::size_t channels,
                                                 std::size_t n_tile,
                                                 std::size_t m,
                                                 std::size_t block_columns) {
  const std::size_t nsq = n_tile * n_tile;
  winograd::WinogradScratch s;
  s.d = carver.take<float>(nsq);
  if (block_columns > 1) {
    // Fused tile-block layout: the [n*n][C][B] bank and its accumulators
    // replace the per-tile bank, so the block size only ever grows a
    // step's scratch, never shrinks it below the per-tile cost.
    s.u_blk = carver.take<float>(channels * nsq * block_columns);
    s.acc_blk = carver.take<float>(nsq * block_columns);
  } else {
    s.u_all = carver.take<float>(channels * nsq);
  }
  s.acc_m = carver.take<float>(nsq);
  s.acc_y = carver.take<float>(m * m);
  s.row_tile = carver.take<std::size_t>(n_tile);
  s.row_in = carver.take<std::size_t>(n_tile);
  s.col_off = carver.take<std::size_t>(n_tile);
  return s;
}

quant::QuantIm2colScratch carve_quant_im2col_scratch(ByteCarver& carver,
                                                     std::size_t inner,
                                                     std::size_t cols,
                                                     std::size_t kcount) {
  quant::QuantIm2colScratch s;
  s.panel = carver.take<float>(inner * cols);
  s.qpanel = carver.take<std::int8_t>(cols * inner);
  s.acc = carver.take<std::int32_t>(kcount * cols);
  return s;
}

quant::QuantWinogradScratch carve_quant_winograd_scratch(
    ByteCarver& carver, std::size_t channels, std::size_t n_tile,
    std::size_t m, std::size_t block_columns) {
  const std::size_t nsq = n_tile * n_tile;
  quant::QuantWinogradScratch s;
  s.d = carver.take<float>(nsq);
  if (block_columns > 1) {
    s.u_blk = carver.take<float>(channels * nsq * block_columns);
    s.sv_blk = carver.take<float>(nsq * block_columns);
    s.uq_blk = carver.take<std::int8_t>(channels * nsq * block_columns);
    s.acc_blk = carver.take<std::int32_t>(nsq * block_columns);
  } else {
    s.u_all = carver.take<float>(channels * nsq);
    s.sv = carver.take<float>(nsq);
    s.uq_all = carver.take<std::int8_t>(channels * nsq);
    s.acc = carver.take<std::int32_t>(nsq);
  }
  s.m_f = carver.take<float>(nsq);
  s.y = carver.take<float>(m * m);
  return s;
}

PoolScratch carve_pool_scratch(ByteCarver& carver, const Layout& il,
                               const Layout& ol) {
  PoolScratch s;
  s.in_col = carver.take<std::size_t>(
      il.kind == LayoutKind::kWinogradTile ? il.shape.w : 0);
  s.out_col = carver.take<std::size_t>(
      ol.kind == LayoutKind::kWinogradTile ? ol.shape.w : 0);
  return s;
}

namespace {

/// One Winograd conv step recorded during the plan walk, for the fused
/// block sizing pass: enough geometry to re-measure its scratch at any
/// block size.
struct WinoStepRecord {
  std::size_t step = 0;       ///< step index (for step_block_columns)
  std::size_t buffer = 0;     ///< buffers index of the scratch
  std::size_t channels = 0;
  std::size_t n_tile = 0;
  std::size_t m = 0;
  std::size_t tiles = 0;      ///< output tiles per image
  bool is_int8 = false;
};

std::size_t measure_wino_scratch(const WinoStepRecord& ws,
                                 std::size_t block_columns) {
  ByteCarver measure;
  if (ws.is_int8) {
    (void)carve_quant_winograd_scratch(measure, ws.channels, ws.n_tile, ws.m,
                                       block_columns);
  } else {
    (void)carve_winograd_scratch(measure, ws.channels, ws.n_tile, ws.m,
                                 block_columns);
  }
  return measure.used();
}

}  // namespace

MemoryPlan build_memory_plan(const ExecutionPlan& plan, Shape4 input,
                             bool fuse_blocks) {
  if (plan.steps.size() != plan.layers.size()) {
    throw std::invalid_argument(
        "build_memory_plan: plan steps do not match its layer stack");
  }
  input.n = 1;
  if (input.volume() == 0) {
    throw std::invalid_argument("build_memory_plan: empty input shape");
  }
  MemoryPlan mp;
  mp.input_shape = input;
  mp.plan_id = next_plan_id();
  const auto& layers = plan.layers;
  if (layers.empty()) return mp;
  const std::size_t last = layers.size() - 1;
  mp.step_activation.reserve(layers.size());
  mp.step_scratch.reserve(layers.size());
  mp.step_block_columns.assign(layers.size(), 1);
  mp.act_layout.reserve(layers.size());
  std::vector<WinoStepRecord> wino_steps;

  Shape4 cur = input;
  Layout cur_layout = Layout::nchw(cur);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const LayerSpec& l = layers[li];
    const LayerPlan& step = plan.steps[li];
    Shape4 out{};
    std::size_t scratch_bytes = 0;
    switch (l.kind) {
      case LayerKind::kConv: {
        const std::size_t r = l.conv.r;
        const int pad = l.conv.pad;
        const std::ptrdiff_t oh = static_cast<std::ptrdiff_t>(cur.h) +
                                  2 * pad - static_cast<std::ptrdiff_t>(r) +
                                  1;
        const std::ptrdiff_t ow = static_cast<std::ptrdiff_t>(cur.w) +
                                  2 * pad - static_cast<std::ptrdiff_t>(r) +
                                  1;
        if (oh <= 0 || ow <= 0) {
          throw std::invalid_argument(
              "build_memory_plan: conv output would be empty");
        }
        out = {1, l.conv.k, static_cast<std::size_t>(oh),
               static_cast<std::size_t>(ow)};
        const auto record_wino = [&](std::size_t mw, bool is_int8) {
          const std::size_t tiles = ((out.h + mw - 1) / mw) *
                                    ((out.w + mw - 1) / mw);
          wino_steps.push_back(WinoStepRecord{.step = li,
                                              .buffer = 0,  // patched below
                                              .channels = cur.c,
                                              .n_tile = mw + r - 1,
                                              .m = mw,
                                              .tiles = tiles,
                                              .is_int8 = is_int8});
        };
        if (const int m = winograd_m(step.algo); m > 0) {
          ByteCarver measure;
          (void)carve_winograd_scratch(
              measure, cur.c, static_cast<std::size_t>(m) + r - 1,
              static_cast<std::size_t>(m));
          scratch_bytes = measure.used();
          record_wino(static_cast<std::size_t>(m), /*is_int8=*/false);
        } else if (step.algo == ConvAlgo::kIm2col) {
          const Layout panel = Layout::im2col_panel(
              {1, cur.c, cur.h, cur.w}, r, pad, pad, /*stride=*/1);
          ByteCarver measure;
          (void)measure.take<float>(panel.volume());
          scratch_bytes = measure.used();
        } else if (step.algo == ConvAlgo::kInt8Im2col) {
          ByteCarver measure;
          (void)carve_quant_im2col_scratch(
              measure, cur.c * r * r,
              static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow),
              l.conv.k);
          scratch_bytes = measure.used();
        } else if (const int qm = int8_winograd_m(step.algo); qm > 0) {
          ByteCarver measure;
          (void)carve_quant_winograd_scratch(
              measure, cur.c, static_cast<std::size_t>(qm) + r - 1,
              static_cast<std::size_t>(qm));
          scratch_bytes = measure.used();
          record_wino(static_cast<std::size_t>(qm), /*is_int8=*/true);
        }
        // Spatial/FFT conv steps keep their allocating kernels (the plan
        // executor materialises an NCHW tensor for them); no planned
        // scratch.
        break;
      }
      case LayerKind::kMaxPool: {
        if (cur.h < 2 || cur.w < 2) {
          throw std::invalid_argument(
              "build_memory_plan: maxpool input too small");
        }
        out = {1, cur.c, cur.h / 2, cur.w / 2};
        ByteCarver measure;
        (void)carve_pool_scratch(measure, cur_layout,
                                 step_output_layout(step, out));
        scratch_bytes = measure.used();
        break;
      }
      case LayerKind::kFullyConnected: {
        out = {1, l.fc_out, 1, 1};
        break;
      }
    }
    const Layout ol = step_output_layout(step, out);
    if (li == last && ol.kind != LayoutKind::kNCHW) {
      throw std::invalid_argument(
          "build_memory_plan: the final step's output must be NCHW");
    }
    if (li != last) {
      mp.step_activation.push_back(
          static_cast<std::ptrdiff_t>(mp.buffers.size()));
      mp.buffers.push_back(PlannedBuffer{
          .step_first = li,
          .step_last = li + 1,
          .per_image_bytes = ol.volume() * sizeof(float),
          .fixed_bytes = 0});
    } else {
      // The last activation is the caller's output buffer, not slab space.
      mp.step_activation.push_back(-1);
    }
    if (scratch_bytes > 0) {
      if (!wino_steps.empty() && wino_steps.back().step == li) {
        wino_steps.back().buffer = mp.buffers.size();
      }
      mp.step_scratch.push_back(
          static_cast<std::ptrdiff_t>(mp.buffers.size()));
      mp.buffers.push_back(PlannedBuffer{.step_first = li,
                                         .step_last = li,
                                         .per_image_bytes = 0,
                                         .fixed_bytes = scratch_bytes});
    } else {
      mp.step_scratch.push_back(-1);
    }
    mp.act_layout.push_back(ol);
    cur = out;
    cur_layout = ol;
  }

  // Fused block sizing pass: grow each Winograd step's scratch to the
  // largest block the cache budget allows WITHOUT raising the slab peak at
  // 1 or 8 images over the per-tile plan — the fused pipeline's locality
  // win must not cost a byte of planned peak (the bench gate pins it).
  // First-fit interval packing is not monotone in a buffer's size, so each
  // candidate is verified by re-resolving the whole plan; the binary
  // search just orders the probes.
  if (fuse_blocks && !wino_steps.empty()) {
    const std::size_t peak1 = mp.peak_bytes(1);
    const std::size_t peak8 = mp.peak_bytes(8);
    for (const WinoStepRecord& ws : wino_steps) {
      const std::size_t cache_cap = winograd::fused_block_columns(
          ws.channels, ws.n_tile, winograd::kFusedCacheBudgetBytes);
      // Column supply: the executor walks chunk_images * tiles columns per
      // call; chunks max out at 8 images, so a bigger block is pure waste.
      const std::size_t cap = std::min(cache_cap, ws.tiles * 8);
      // Blocks narrower than the coordinate GEMM's register tile run all
      // columns through the scalar tail and lose to the per-tile walk.
      if (cap < winograd::kFusedMinBlockColumns) continue;
      PlannedBuffer& buf = mp.buffers[ws.buffer];
      const std::size_t unfused_bytes = buf.fixed_bytes;
      const auto fits = [&](std::size_t block) {
        buf.fixed_bytes = measure_wino_scratch(ws, block);
        return mp.peak_bytes(1) <= peak1 && mp.peak_bytes(8) <= peak8;
      };
      std::size_t best = 1;
      std::size_t lo = winograd::kFusedMinBlockColumns, hi = cap;
      while (lo <= hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (fits(mid)) {
          best = mid;
          lo = mid + 1;
        } else {
          hi = mid - 1;
        }
      }
      if (best >= 2 && fits(best)) {
        mp.step_block_columns[ws.step] = best;
      } else {
        buf.fixed_bytes = unfused_bytes;
      }
    }
  }
  return mp;
}

MemoryPlan build_memory_plan(const ExecutionPlan& plan, bool fuse_blocks) {
  if (plan.layers.empty()) {
    throw std::invalid_argument("build_memory_plan: empty layer stack");
  }
  const LayerSpec& first = plan.layers.front();
  switch (first.kind) {
    case LayerKind::kConv:
      return build_memory_plan(
          plan, Shape4{1, first.conv.c, first.conv.h, first.conv.w},
          fuse_blocks);
    case LayerKind::kFullyConnected:
      // FC consumes the flattened volume; plan as a flat channel vector
      // (forward() rebuilds locally for other factorisations of fc_in).
      return build_memory_plan(plan, Shape4{1, first.fc_in, 1, 1},
                               fuse_blocks);
    case LayerKind::kMaxPool:
      break;
  }
  throw std::invalid_argument(
      "build_memory_plan: input shape not derivable from a pool-first "
      "stack");
}

void MemoryPlan::resolve(std::size_t images, Resolved& out) const {
  const std::size_t count = buffers.size();
  out.offsets.resize(count);
  out.sizes.resize(count);
  out.live.clear();
  out.peak_bytes = 0;
  // Buffers are registered in nondecreasing step_first order, so a single
  // forward scan with expiry is the classic linear-scan interval
  // allocation: everything whose last step precedes this buffer's first
  // step is dead and its range is reusable.
  for (std::uint32_t b = 0; b < count; ++b) {
    const PlannedBuffer& pb = buffers[b];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < out.live.size(); ++i) {
      if (buffers[out.live[i]].step_last >= pb.step_first) {
        out.live[keep++] = out.live[i];
      }
    }
    out.live.resize(keep);
    const std::size_t size =
        align_up(pb.per_image_bytes * images + pb.fixed_bytes);
    // First fit: walk the live list (sorted by offset) for the lowest gap
    // that holds `size` bytes.
    std::size_t offset = 0;
    std::size_t insert_at = out.live.size();
    for (std::size_t i = 0; i < out.live.size(); ++i) {
      const std::size_t live_off = out.offsets[out.live[i]];
      if (offset + size <= live_off) {
        insert_at = i;
        break;
      }
      offset = std::max(offset, live_off + out.sizes[out.live[i]]);
    }
    out.offsets[b] = offset;
    out.sizes[b] = size;
    out.live.insert(out.live.begin() + static_cast<std::ptrdiff_t>(insert_at),
                    b);
    out.peak_bytes = std::max(out.peak_bytes, offset + size);
  }
}

MemoryPlan::Resolved MemoryPlan::resolve(std::size_t images) const {
  Resolved out;
  resolve(images, out);
  return out;
}

std::size_t MemoryPlan::peak_bytes(std::size_t images) const {
  Resolved out;
  resolve(images, out);
  return out.peak_bytes;
}

void Workspace::prepare(const MemoryPlan& plan, std::size_t images) {
  if (prepared_ && plan_id_ == plan.plan_id && images_ == images) return;
  plan.resolve(images, resolved_);
  if (resolved_.peak_bytes > 0) {
    // Over-allocate by one alignment unit so base_ can be aligned manually
    // (operator new gives no 64-byte guarantee). Growth is monotonic: a
    // smaller follow-up plan reuses the big slab.
    const std::size_t need = resolved_.peak_bytes + kSlabAlign - 1;
    if (slab_.size() < need) slab_.resize(need);
    const auto addr = reinterpret_cast<std::uintptr_t>(slab_.data());
    base_ = slab_.data() + ((kSlabAlign - addr % kSlabAlign) % kSlabAlign);
  } else {
    base_ = nullptr;
  }
  plan_id_ = plan.plan_id;
  images_ = images;
  prepared_ = true;
}

}  // namespace wino::nn

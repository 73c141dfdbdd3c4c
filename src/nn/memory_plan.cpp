#include "nn/memory_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "nn/plan.hpp"

namespace wino::nn {

using tensor::Layout;
using tensor::Shape4;

namespace {

std::size_t align_up(std::size_t n) {
  return (n + kSlabAlign - 1) / kSlabAlign * kSlabAlign;
}

std::uint64_t next_plan_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

winograd::WinogradScratch carve_winograd_scratch(ByteCarver& carver,
                                                 std::size_t channels,
                                                 std::size_t n_tile,
                                                 std::size_t m,
                                                 std::size_t block_columns) {
  if (block_columns != 1) {
    throw std::invalid_argument(
        "carve_*_winograd_scratch: block_columns must be 1 (the Winograd "
        "walk has no blocked scratch)");
  }
  const std::size_t nsq = n_tile * n_tile;
  winograd::WinogradScratch s;
  s.d = carver.take<float>(nsq);
  s.u_all = carver.take<float>(channels * nsq);
  s.acc_m = carver.take<float>(nsq);
  s.acc_y = carver.take<float>(m * m);
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
  s.walk = carve_winograd_scratch(carver, channels, n_tile, m, block_columns);
  s.sv = carver.take<float>(nsq);
  s.uq_all = carver.take<std::int8_t>(channels * nsq);
  s.acc = carver.take<std::int32_t>(nsq);
  return s;
}

PoolScratch carve_pool_scratch(ByteCarver&, const Layout&, const Layout&) {
  return {};
}

MemoryPlan build_memory_plan(const ExecutionPlan& plan, Shape4 input) {
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

  Shape4 cur = input;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const LayerSpec& l = layers[li];
    const ConvAlgo algo = plan.steps[li].algo;
    Shape4 out{};
    std::size_t scratch_bytes = 0;
    // The live input reaches every kernel through this walk, so a shape
    // the stack cannot take fails here, on the caller thread, naming the
    // layer — not inside a kernel on a pool worker.
    const auto mismatch = [li](const std::string& what) {
      return std::invalid_argument("build_memory_plan: layer " +
                                   std::to_string(li) + " " + what);
    };
    switch (l.kind) {
      case LayerKind::kConv: {
        if (cur.c != l.conv.c) {
          throw mismatch("expects " + std::to_string(l.conv.c) +
                         " input channels, got " + std::to_string(cur.c));
        }
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
        if (const int m = winograd_m(algo); m > 0) {
          ByteCarver measure;
          (void)carve_winograd_scratch(
              measure, cur.c, static_cast<std::size_t>(m) + r - 1,
              static_cast<std::size_t>(m));
          scratch_bytes = measure.used();
        } else if (algo == ConvAlgo::kIm2col) {
          const Layout panel = Layout::im2col_panel(
              {1, cur.c, cur.h, cur.w}, r, pad, pad, /*stride=*/1);
          ByteCarver measure;
          (void)measure.take<float>(panel.volume());
          scratch_bytes = measure.used();
        } else if (algo == ConvAlgo::kInt8Im2col) {
          ByteCarver measure;
          (void)carve_quant_im2col_scratch(
              measure, cur.c * r * r,
              static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow),
              l.conv.k);
          scratch_bytes = measure.used();
        } else if (const int qm = int8_winograd_m(algo); qm > 0) {
          ByteCarver measure;
          (void)carve_quant_winograd_scratch(
              measure, cur.c, static_cast<std::size_t>(qm) + r - 1,
              static_cast<std::size_t>(qm));
          scratch_bytes = measure.used();
        }
        break;
      }
      case LayerKind::kMaxPool: {
        if (cur.h < 2 || cur.w < 2) {
          throw std::invalid_argument(
              "build_memory_plan: maxpool input too small");
        }
        out = {1, cur.c, cur.h / 2, cur.w / 2};
        break;
      }
      case LayerKind::kFullyConnected: {
        // Any factorisation of fc_in is legal: FC reads the flat volume.
        if (cur.volume() != l.fc_in) {
          throw mismatch("expects an input volume of " +
                         std::to_string(l.fc_in) + ", got " +
                         std::to_string(cur.volume()));
        }
        out = {1, l.fc_out, 1, 1};
        break;
      }
    }
    if (li != last) {
      mp.step_activation.push_back(
          static_cast<std::ptrdiff_t>(mp.buffers.size()));
      mp.buffers.push_back(PlannedBuffer{
          .step_first = li,
          .step_last = li + 1,
          .per_image_bytes = out.volume() * sizeof(float),
          .fixed_bytes = 0});
    } else {
      // The last activation is the caller's output buffer, not slab space.
      mp.step_activation.push_back(-1);
    }
    if (scratch_bytes > 0) {
      mp.step_scratch.push_back(
          static_cast<std::ptrdiff_t>(mp.buffers.size()));
      mp.buffers.push_back(PlannedBuffer{.step_first = li,
                                         .step_last = li,
                                         .per_image_bytes = 0,
                                         .fixed_bytes = scratch_bytes});
    } else {
      mp.step_scratch.push_back(-1);
    }
    mp.act_layout.push_back(Layout::nchw(out));
    cur = out;
  }

  return mp;
}

MemoryPlan build_memory_plan(const ExecutionPlan& plan) {
  if (plan.layers.empty()) {
    throw std::invalid_argument("build_memory_plan: empty layer stack");
  }
  const LayerSpec& first = plan.layers.front();
  switch (first.kind) {
    case LayerKind::kConv:
      return build_memory_plan(
          plan, Shape4{1, first.conv.c, first.conv.h, first.conv.w});
    case LayerKind::kFullyConnected:
      // FC consumes the flattened volume; plan as a flat channel vector
      // (forward() rebuilds locally for other factorisations of fc_in).
      return build_memory_plan(plan, Shape4{1, first.fc_in, 1, 1});
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

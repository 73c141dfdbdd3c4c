// Tests for the arena memory planner (nn/memory_plan.hpp): the ByteCarver
// measure/carve contract, linear-scan slab assignment (alignment, lifetime
// overlap-freedom, peak == high-water mark, genuine reuse on a deep
// stack), the workspace slab's monotonic growth, the runtime fallback for
// stacks the plan-time walk cannot shape, and the acceptance-critical
// property that a warm forward(plan) performs zero heap allocations while
// staying bit-identical across calls.
#include "nn/memory_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor.hpp"

// --------------------------------------------------------------------------
// Counting allocator: global operator new/delete replacements (must live at
// global scope), malloc-backed so they compose with the sanitizer jobs'
// interceptors. Counting is gated so only the windows a test opens are
// measured; every thread's allocations count (the forward pass fans out
// over the pool, and a worker allocating in the hot loop is exactly the
// regression this pins).
// --------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_malloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace wino::nn {
namespace {

using common::Rng;
using tensor::Layout;
using tensor::Tensor4f;

TEST(ByteCarver, MeasureAndCarveShareOneLayout) {
  ByteCarver measure;
  const std::span<float> mf = measure.take<float>(10);
  EXPECT_EQ(mf.data(), nullptr);  // measure mode: null spans, sizes only
  EXPECT_EQ(mf.size(), 10u);
  (void)measure.take<std::size_t>(3);
  const std::size_t need = measure.used();
  EXPECT_EQ(need % kSlabAlign, 0u);
  EXPECT_EQ(need, 2 * kSlabAlign);  // 40 B + 24 B, each aligned up

  std::vector<std::byte> slab(need);
  ByteCarver carve(std::span<std::byte>(slab.data(), slab.size()));
  const std::span<float> cf = carve.take<float>(10);
  ASSERT_NE(cf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::byte*>(cf.data()), slab.data());
  const std::span<std::size_t> cs = carve.take<std::size_t>(3);
  EXPECT_EQ(reinterpret_cast<std::byte*>(cs.data()),
            slab.data() + kSlabAlign);
  EXPECT_EQ(carve.used(), need);
  // The carver refuses to hand out bytes past its range.
  EXPECT_THROW((void)carve.take<float>(1), std::logic_error);
}

TEST(MemoryPlanTest, OffsetsAlignedLifetimesDisjointPeakIsHighWater) {
  const auto layers = vgg16_d_scaled(14, 16);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd4);
  const MemoryPlan& mp = plan.memory;
  ASSERT_FALSE(mp.empty());
  ASSERT_EQ(mp.act_layout.size(), layers.size());
  ASSERT_EQ(mp.step_activation.back(), -1);  // last step writes caller's out

  for (const std::size_t images : {std::size_t{1}, std::size_t{3}}) {
    const MemoryPlan::Resolved r = mp.resolve(images);
    ASSERT_EQ(r.offsets.size(), mp.buffers.size());
    std::size_t high_water = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < mp.buffers.size(); ++i) {
      EXPECT_EQ(r.offsets[i] % kSlabAlign, 0u);
      EXPECT_EQ(r.sizes[i] % kSlabAlign, 0u);
      const PlannedBuffer& b = mp.buffers[i];
      EXPECT_EQ(r.sizes[i],
                (b.per_image_bytes * images + b.fixed_bytes + kSlabAlign - 1) /
                    kSlabAlign * kSlabAlign);
      high_water = std::max(high_water, r.offsets[i] + r.sizes[i]);
      total += r.sizes[i];
      // Buffers whose lifetimes overlap must occupy disjoint byte ranges.
      for (std::size_t j = 0; j < i; ++j) {
        const PlannedBuffer& a = mp.buffers[j];
        const bool overlap = a.step_first <= b.step_last &&
                             b.step_first <= a.step_last;
        if (!overlap) continue;
        const bool disjoint =
            r.offsets[i] + r.sizes[i] <= r.offsets[j] ||
            r.offsets[j] + r.sizes[j] <= r.offsets[i];
        EXPECT_TRUE(disjoint) << "buffers " << j << " and " << i;
      }
    }
    EXPECT_EQ(r.peak_bytes, high_water);
    EXPECT_EQ(mp.peak_bytes(images), r.peak_bytes);
    // A 14-layer stack must reuse expired ranges, not stack every buffer.
    EXPECT_LT(r.peak_bytes, total);
  }
}

// The slab high-water mark of the uniform Winograd plans, pinned exactly:
// every byte is a deterministic function of the model geometry and the
// scratch composition, so any change is a planner or carver change, not
// noise. (vgg16_d_scaled(14, 8) at W4 is bench/ablation_per_layer_m's
// --quick model; its BENCH_plan gate keeps only a loose 18432-byte
// ceiling with a 10% allowance.)
TEST(MemoryPlanTest, UniformWinogradSlabPeaksArePinned) {
  struct Pin {
    std::size_t scale;
    ConvAlgo algo;
    std::size_t peak1;
    std::size_t peak8;
  };
  const Pin pins[] = {
      {14, ConvAlgo::kWinograd2, 17088, 131776},
      {14, ConvAlgo::kWinograd4, 17984, 132672},
      {7, ConvAlgo::kWinograd2, 66240, 524992},
      {7, ConvAlgo::kWinograd4, 67136, 525888},
      {28, ConvAlgo::kWinograd2, 4800, 33472},
      {28, ConvAlgo::kWinograd4, 10176, 34368},
  };
  for (const Pin& p : pins) {
    const ExecutionPlan plan =
        uniform_plan(vgg16_d_scaled(p.scale, 8), p.algo);
    EXPECT_EQ(plan.memory.peak_bytes(1), p.peak1)
        << "scale=" << p.scale << " " << to_string(p.algo);
    EXPECT_EQ(plan.memory.peak_bytes(8), p.peak8)
        << "scale=" << p.scale << " " << to_string(p.algo);
  }
}

// Satellite pin: the im2col lowering panel is planned per-layer fixed
// scratch — one slab range per layer, its size independent of how many
// images the chunk walks through the stack (the old code resized a
// heap-owned panel once per image).
TEST(MemoryPlanTest, Im2colPanelIsFixedPerLayerScratch) {
  const auto layers = vgg16_d_scaled(14, 16);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kIm2col);
  const MemoryPlan& mp = plan.memory;
  ASSERT_FALSE(mp.empty());
  ASSERT_GE(mp.step_scratch.size(), 1u);
  ASSERT_GE(mp.step_scratch[0], 0);  // first layer is a conv: has a panel
  const auto id = static_cast<std::size_t>(mp.step_scratch[0]);
  const PlannedBuffer& panel = mp.buffers[id];
  EXPECT_EQ(panel.per_image_bytes, 0u);
  const auto& c = layers.front().conv;
  const Layout pl = Layout::im2col_panel({1, c.c, c.h, c.w}, c.r, c.pad,
                                         c.pad, /*stride=*/1);
  EXPECT_EQ(panel.fixed_bytes,
            (pl.volume() * sizeof(float) + kSlabAlign - 1) / kSlabAlign *
                kSlabAlign);
  // Image-count invariance of the resolved range (capacity never changes
  // across the images of a chunk).
  EXPECT_EQ(mp.resolve(1).sizes[id], mp.resolve(8).sizes[id]);
}

TEST(MemoryPlanTest, PoolFirstStackHasNoPlanTimeShape) {
  LayerSpec pool;
  pool.kind = LayerKind::kMaxPool;
  const ExecutionPlan plan = uniform_plan({pool}, ConvAlgo::kIm2col);
  // No derivable input shape: the plan carries no memory plan and the
  // builder refuses outright...
  EXPECT_TRUE(plan.memory.empty());
  EXPECT_THROW((void)build_memory_plan(plan), std::invalid_argument);
  // ...but forward() rebuilds from the live input and still serves.
  Rng rng(11);
  Tensor4f in(2, 3, 6, 6);
  rng.fill_uniform(in.flat());
  const Tensor4f got = forward(plan, WeightBank{}, in);
  const Tensor4f want = maxpool2x2(in);
  ASSERT_TRUE(got.shape() == want.shape());
  EXPECT_EQ(std::memcmp(got.flat().data(), want.flat().data(),
                        got.size() * sizeof(float)),
            0);
}

TEST(WorkspaceTest, SlabGrowsMonotonicallyAndBoundsViews) {
  const auto layers = vgg16_d_scaled(14, 16);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd4);
  ASSERT_FALSE(plan.memory.empty());
  Workspace ws;
  ws.prepare(plan.memory, 4);
  EXPECT_GE(ws.slab_bytes(), plan.memory.peak_bytes(4));
  const std::size_t big = ws.slab_bytes();

  const MemoryPlan::Resolved r = plan.memory.resolve(4);
  ASSERT_FALSE(r.sizes.empty());
  const std::span<float> view =
      ws.span_of<float>(0, r.sizes[0] / sizeof(float));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.data()) % kSlabAlign, 0u);
  EXPECT_THROW(
      (void)ws.span_of<float>(0, r.sizes[0] / sizeof(float) + 1),
      std::logic_error);

  // A smaller follow-up preparation keeps the big slab (no shrink churn).
  ws.prepare(plan.memory, 1);
  EXPECT_EQ(ws.slab_bytes(), big);
}

TEST(WorkspaceExecution, CallerThreadSlabCoversPlannedPeak) {
  const auto layers = vgg16_d_scaled(14, 16);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd4);
  ASSERT_FALSE(plan.memory.empty());
  const auto weights = random_weights(layers, 21);
  Rng rng(22);
  Tensor4f in(1, 3, 16, 16);
  rng.fill_uniform(in.flat());
  (void)forward(plan, weights, in);  // single image runs on this thread
  EXPECT_GE(thread_workspace_bytes(), plan.memory.peak_bytes(1));
}

// The acceptance-critical pin: after warmup (slabs sized, filter
// transforms cached, GEMM packing buffers grown), a batched forward(plan)
// performs ZERO heap allocations on any thread — and stays bit-identical
// call over call. The plan mixes Winograd with an im2col layer so both
// slab-backed conv paths are inside the counted window.
TEST(WorkspaceExecution, WarmForwardPerformsZeroHeapAllocations) {
  runtime::ThreadPool::set_global_threads(2);
  const auto layers = vgg16_d_scaled(14, 16);
  ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd4);
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    if (plan.layers[li].kind == LayerKind::kConv) {
      plan.steps[li].algo = ConvAlgo::kIm2col;  // first conv: panel path
      break;
    }
  }
  replan_layouts(plan);
  ASSERT_FALSE(plan.memory.empty());
  const auto weights = random_weights(layers, 31);
  Rng rng(32);
  Tensor4f in(5, 3, 16, 16);
  rng.fill_uniform(in.flat());

  Tensor4f out;
  forward(plan, weights, in, out);  // cold: allocates out, slabs, caches
  forward(plan, weights, in, out);  // warm every pool participant
  std::vector<float> want(out.flat().begin(), out.flat().end());

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  for (int call = 0; call < 3; ++call) forward(plan, weights, in, out);
  g_count_allocations.store(false);

  EXPECT_EQ(g_allocation_count.load(), 0u);
  EXPECT_EQ(std::memcmp(out.flat().data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  runtime::ThreadPool::set_global_threads(4);
}

}  // namespace
}  // namespace wino::nn

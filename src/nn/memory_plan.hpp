// Plan-time memory planning: one slab per forward pass.
//
// The execution planner (nn/plan.hpp) decides *what* each layer runs; this
// header decides *where its bytes live*. A MemoryPlan walks the plan's
// layer sequence once, records every buffer the executor will need — each
// NCHW activation handed from one layer to the next, plus per-layer
// scratch (Winograd tile workspaces, im2col panels, int8 operand buffers)
// — with its lifetime interval over the step index, and assigns
// overlap-free offsets into a single slab by classic linear-scan interval
// reuse: a buffer whose last reader has passed frees its range for the
// next buffer at the same offset.
//
// Sizes are split into a per-image part (activations scale with the
// sub-batch the executor marches through the stack) and a fixed part
// (per-layer scratch is image-independent), so one MemoryPlan resolves to
// concrete offsets for any chunk size without replanning. peak_bytes is the
// slab high-water mark — the planned per-worker memory cost of a forward
// pass, which serve::InferenceServer uses to size one workspace per worker
// at model registration instead of discovering the cost at first request.
//
// Memory planning never changes arithmetic: the executor runs the same
// kernels on the same values in the same order, only out of slab-backed
// spans instead of freshly allocated Tensor4f buffers (the determinism
// contract in docs/ARCHITECTURE.md is unaffected; pinned by
// tests/nn_memory_test.cpp and the bit-identity sweeps in
// tests/nn_plan_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "quant/int8.hpp"
#include "tensor/layout.hpp"
#include "winograd/kernels.hpp"

namespace wino::nn {

struct ExecutionPlan;

/// Slab alignment of every planned buffer (cache-line sized; also covers
/// the strictest alignment of the element types carved out of it).
inline constexpr std::size_t kSlabAlign = 64;

/// Sequential carver over a byte range, or — default-constructed — a pure
/// measuring pass: take<T>(count) advances an aligned cursor either way,
/// so the builder (measuring scratch sizes at plan time) and the executor
/// (carving the same scratch out of the workspace at run time) share one
/// definition of each layer's scratch composition and cannot drift.
class ByteCarver {
 public:
  ByteCarver() = default;  ///< measure mode: spans come back null
  explicit ByteCarver(std::span<std::byte> bytes)
      : base_(bytes.data()), capacity_(bytes.size()), carving_(true) {}

  template <typename T>
  std::span<T> take(std::size_t count) {
    static_assert(alignof(T) <= kSlabAlign);
    used_ = align_up(used_);
    const std::size_t bytes = count * sizeof(T);
    T* ptr = nullptr;
    if (carving_) {
      if (used_ + bytes > capacity_) {
        throw std::logic_error("ByteCarver: scratch overflow");
      }
      ptr = reinterpret_cast<T*>(base_ + used_);
    }
    used_ += bytes;
    return {ptr, count};
  }

  /// Bytes consumed so far, rounded up to the slab alignment.
  [[nodiscard]] std::size_t used() const { return align_up(used_); }

 private:
  [[nodiscard]] static std::size_t align_up(std::size_t n) {
    return (n + kSlabAlign - 1) / kSlabAlign * kSlabAlign;
  }

  std::byte* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  bool carving_ = false;
};

/// One buffer the executor needs, with its lifetime over step indices
/// (inclusive on both ends) and its size model: activations carry
/// per_image_bytes (they scale with the chunk), scratch carries fixed
/// bytes (it does not).
struct PlannedBuffer {
  std::size_t step_first = 0;
  std::size_t step_last = 0;
  std::size_t per_image_bytes = 0;
  std::size_t fixed_bytes = 0;
};

/// The resolved slab assignment of an ExecutionPlan: buffer list in
/// creation (step_first) order, per-step indices into it, and the NCHW
/// Layout of every step's output activation at shape.n == 1.
struct MemoryPlan {
  std::vector<PlannedBuffer> buffers;
  /// Per step: buffers index of the output activation, or -1 for the
  /// final step (the executor writes the caller's output buffer directly).
  std::vector<std::ptrdiff_t> step_activation;
  /// Per step: buffers index of the layer's scratch, or -1 when none.
  std::vector<std::ptrdiff_t> step_scratch;
  /// Per step: always 1. Kept only for bench/e2e/replay.cpp, which reads
  /// it and hands it to the carve_*_winograd_scratch calls; both go away
  /// with that file (ROADMAP item 1).
  std::vector<std::size_t> step_block_columns;
  /// Per step: Layout of the output activation with shape.n == 1. Always
  /// kNCHW; the executor reads each step's output shape from it.
  std::vector<tensor::Layout> act_layout;
  /// Per-image input shape the walk assumed (n == 1). forward() rebuilds
  /// the plan locally when the live input disagrees (fc-first models
  /// accept any factorisation of fc_in; pool-first stacks have no
  /// plan-time shape at all).
  tensor::Shape4 input_shape{};
  /// Process-unique id so per-thread workspaces can cache their last
  /// resolution; rebuilt plans get fresh ids.
  std::uint64_t plan_id = 0;

  [[nodiscard]] bool empty() const { return act_layout.empty(); }

  /// Concrete offsets for one chunk size. Vectors are reused across calls
  /// (capacity is plan-determined), so re-resolving an already-resolved
  /// plan at a different image count performs no heap allocation.
  struct Resolved {
    std::vector<std::size_t> offsets;  ///< per buffer, kSlabAlign-aligned
    std::vector<std::size_t> sizes;    ///< per buffer, kSlabAlign multiple
    std::size_t peak_bytes = 0;        ///< slab high-water mark

    // Linear-scan state (live buffers sorted by offset), kept here so a
    // warm re-resolve allocates nothing.
    std::vector<std::uint32_t> live;
  };

  void resolve(std::size_t images, Resolved& out) const;
  [[nodiscard]] Resolved resolve(std::size_t images) const;

  /// Slab bytes a workspace needs for a chunk of `images`.
  [[nodiscard]] std::size_t peak_bytes(std::size_t images) const;
};

/// Build the memory plan for an ExecutionPlan, deriving the per-image
/// input shape from the first layer (conv: its spec's c/h/w; FC: fc_in as
/// a flat channel vector). Throws std::invalid_argument when the shape is
/// not derivable (pool-first stacks) or a layer's output would be empty.
[[nodiscard]] MemoryPlan build_memory_plan(const ExecutionPlan& plan);

/// As above with an explicit per-image input shape (n is forced to 1) —
/// the runtime fallback for inputs the plan-time walk could not assume.
[[nodiscard]] MemoryPlan build_memory_plan(const ExecutionPlan& plan,
                                           tensor::Shape4 input);

/// Carve (or measure) the scratch of one Winograd conv layer: the data
/// tile, transform bank and accumulator tiles of
/// winograd::conv2d_winograd_layout_into. `n_tile` is the transformer's
/// m + r - 1 edge. `block_columns` must be 1 (std::invalid_argument
/// otherwise); it goes away with MemoryPlan::step_block_columns.
[[nodiscard]] winograd::WinogradScratch carve_winograd_scratch(
    ByteCarver& carver, std::size_t channels, std::size_t n_tile,
    std::size_t m, std::size_t block_columns = 1);

/// Carve (or measure) the scratch of one int8 im2col conv layer: the fp32
/// patch panel, its quantized K-contiguous transpose and the int32 GEMM
/// accumulator of quant::conv2d_im2col_int8_into.
/// \param inner  reduction depth C*r*r.
/// \param cols   output pixels outH*outW.
/// \param kcount output channels K.
[[nodiscard]] quant::QuantIm2colScratch carve_quant_im2col_scratch(
    ByteCarver& carver, std::size_t inner, std::size_t cols,
    std::size_t kcount);

/// Carve (or measure) the scratch of one int8 Winograd conv layer: the
/// gathered/transformed/quantized tiles and accumulators of
/// quant::conv2d_winograd_int8_into. `n_tile` is the transformer's
/// m + r - 1 edge. `block_columns` as in carve_winograd_scratch.
[[nodiscard]] quant::QuantWinogradScratch carve_quant_winograd_scratch(
    ByteCarver& carver, std::size_t channels, std::size_t n_tile,
    std::size_t m, std::size_t block_columns = 1);

/// Column maps of maxpool2x2_packed_into. Pooling reads and writes NCHW,
/// so there are none: carve_pool_scratch takes no bytes and returns empty
/// spans. Both stay only because bench/e2e/replay.cpp calls them, and they
/// leave together with that file (ROADMAP item 1).
struct PoolScratch {
  std::span<std::size_t> in_col;
  std::span<std::size_t> out_col;
};
[[nodiscard]] PoolScratch carve_pool_scratch(ByteCarver& carver,
                                             const tensor::Layout& il,
                                             const tensor::Layout& ol);

/// A per-thread execution arena: one aligned slab plus the offset table of
/// the plan it was last prepared for. prepare() is a no-op when the
/// (plan, images) pair is unchanged; otherwise it re-resolves (allocation-
/// free once warm) and grows the slab monotonically if the new peak
/// exceeds it. Not thread-safe — each worker owns its own instance.
class Workspace {
 public:
  void prepare(const MemoryPlan& plan, std::size_t images);

  /// Byte range of buffer `id` in the prepared slab.
  [[nodiscard]] std::span<std::byte> buffer_bytes(std::size_t id) {
    return {base_ + resolved_.offsets[id], resolved_.sizes[id]};
  }

  /// Typed view over buffer `id`; count * sizeof(T) must fit its range.
  template <typename T>
  [[nodiscard]] std::span<T> span_of(std::size_t id, std::size_t count) {
    static_assert(alignof(T) <= kSlabAlign);
    if (count * sizeof(T) > resolved_.sizes[id]) {
      throw std::logic_error("Workspace: buffer smaller than requested view");
    }
    return {reinterpret_cast<T*>(base_ + resolved_.offsets[id]), count};
  }

  /// Bytes of slab currently owned (>= the last prepared peak).
  [[nodiscard]] std::size_t slab_bytes() const { return slab_.size(); }

 private:
  std::vector<std::byte> slab_;
  std::byte* base_ = nullptr;
  MemoryPlan::Resolved resolved_;
  std::uint64_t plan_id_ = 0;
  std::size_t images_ = 0;
  bool prepared_ = false;
};

}  // namespace wino::nn

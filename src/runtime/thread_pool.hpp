// Deterministic multi-threading substrate for the hot numeric paths.
//
// The pool is intentionally work-stealing-free: parallel_for splits an index
// range into at most thread-count contiguous chunks with statically computed
// boundaries, and every chunk runs the same sequential code it would run
// single-threaded. Parallelism is only ever applied across *independent
// outputs* (batch images, output channels, tiles), never across reduction
// dimensions, so results are bit-identical for any thread count — a property
// the runtime determinism tests pin down.
//
// Dispatch pays only for the workers a job uses. Each worker waits on its
// own wake slot (a C++20 std::atomic<uint32_t>); a job of `chunks` chunks
// bumps and notifies the slots of workers 0..chunks-2 alone, and the
// caller waits for exactly those workers to check in. A worker with no
// chunk is never woken. Waiting is spin-then-park on both sides: after
// each job a worker polls its slot, and the caller polls the pending
// count, for a fixed 20 us read off the steady clock before parking in
// atomic::wait. Jobs that follow within the bound — a batch-1 forward or
// planning pass issues dozens — then cost a cache-line handoff instead of
// a futex wake and sleep per worker. The bound is a time, not a count of
// pause instructions, because pause latency varies about 10x across CPUs.
// In bench/e2e's cold serve set-ups, 90% of the gaps between one worker's
// jobs were under 14-17 us and 85-90% of jobs, which the caller waits
// out, took under 20 us. Its price is CPU: after every job the workers it
// used spin for up to 20 us before they sleep (three workers on a
// 4-thread pool), CPU the serving threads then lack. 20 us was the
// shortest bound that kept serve-tiny's faster cold set-up (at 10 us
// the gain shrank, 35 us gained no more, 50 us lifted serve-mixed p99
// latency). A pool with more threads than hardware threads never spins:
// there a spinner holds a core that a worker with an unfinished chunk is
// waiting for, and a 7-thread pool on 4 cores dispatched several times
// slower with the spin than without. docs/ARCHITECTURE.md has the
// measurements.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace wino::runtime {

class ThreadPool {
 public:
  /// Largest thread count a pool accepts; more is a caller error.
  static constexpr std::size_t kMaxThreads = 1024;

  /// threads == 0 picks std::thread::hardware_concurrency() (at most
  /// kMaxThreads). The calling thread always participates, so `threads`
  /// is the total worker count (a pool of 1 runs everything inline and
  /// spawns nothing). Throws std::invalid_argument above kMaxThreads,
  /// before any thread starts.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads applied to a parallel_for (workers + caller).
  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

  /// Run body(begin, end) over a static partition of [0, count) into at
  /// most threads() contiguous chunks. Blocks until every chunk finished.
  /// A nested call from inside a body runs inline (no re-entry deadlock),
  /// and concurrent calls from distinct application threads run one whole
  /// job at a time, in arrival order, rather than interleaving.
  /// The first exception thrown by any chunk is rethrown to the caller.
  ///
  /// The body is dispatched as a raw (context, function-pointer) pair, not
  /// a std::function — submitting a job performs no heap allocation, a
  /// requirement of the zero-allocation forward pass (the batched executor
  /// submits one job per forward call; pinned by tests/nn_memory_test.cpp).
  template <typename F>
  void parallel_for(std::size_t count, const F& body) {
    parallel_for_raw(
        count, const_cast<void*>(static_cast<const void*>(&body)),
        [](void* ctx, std::size_t begin, std::size_t end) {
          (*static_cast<const F*>(ctx))(begin, end);
        });
  }

  /// Type-erased core of parallel_for: fn(ctx, begin, end) per chunk.
  void parallel_for_raw(std::size_t count, void* ctx,
                        void (*fn)(void*, std::size_t, std::size_t));

  /// Chunk boundary helper: [chunk_begin(i), chunk_begin(i+1)) is chunk i of
  /// `count` items split into `chunks` near-equal contiguous ranges.
  [[nodiscard]] static std::size_t chunk_begin(std::size_t index,
                                               std::size_t count,
                                               std::size_t chunks) {
    return index * count / chunks;
  }

  /// Process-wide pool used by the free parallel_for. Created lazily with
  /// set_global_threads()'s last value, else WINO_THREADS, else hardware
  /// concurrency. A WINO_THREADS that parse_thread_count rejects is
  /// reported once on stderr and ignored.
  static ThreadPool& global();

  /// Resize the global pool (tests and benches switch 1 <-> N threads).
  /// Must not race in-flight parallel work on the global pool: the old
  /// pool is destroyed, so call it only from a quiescent control thread.
  /// Throws std::invalid_argument for 0 or above kMaxThreads, leaving the
  /// current pool in place.
  static void set_global_threads(std::size_t threads);

 private:
  struct State;
  void worker_loop(std::size_t worker_index);
  void stop_workers();

  std::unique_ptr<State> state_;
  std::vector<std::jthread> workers_;
};

/// The thread count a WINO_THREADS value names: a plain decimal integer in
/// [1, ThreadPool::kMaxThreads]. Anything else — empty, a sign, trailing
/// characters, zero, out of range — is nullopt.
[[nodiscard]] std::optional<std::size_t> parse_thread_count(const char* text);

/// True while the calling thread runs a parallel_for chunk or holds an
/// InlineScope, i.e. when every parallel_for it makes runs inline.
[[nodiscard]] bool in_parallel_region();

/// Marks the calling thread as inside a parallel region for the guard's
/// lifetime, so every parallel_for it makes runs inline on it, the way a
/// pool chunk runs a nested call. No worker wakes and no job slot is taken.
/// The planner times candidates of a batch > 1 plan under one:
/// forward(plan) runs such a batch's layers inside its by-image fan-out,
/// where each layer's own parallel_for is inline.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool was_inline_;
};

/// parallel_for on the global pool.
template <typename F>
void parallel_for(std::size_t count, const F& body) {
  ThreadPool::global().parallel_for(count, body);
}

/// Convenience: body receives one index at a time (still chunked under the
/// hood, so per-chunk scratch reuse is the ThreadPool overload's job).
template <typename F>
void parallel_for_each(std::size_t count, const F& body) {
  ThreadPool::global().parallel_for(
      count, [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      });
}

}  // namespace wino::runtime

#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace wino::runtime {

namespace {
// Set while a thread executes a parallel_for body; nested calls run inline.
// Pool workers hold it for life: they only ever run chunks.
thread_local bool t_in_parallel_region = false;

/// How long a waiter polls before it parks (see the header comment).
constexpr std::chrono::microseconds kSpinBound{20};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// A 32-bit word one thread waits on: spin for a bounded time, then park
/// in atomic::wait. `parked` lets a waker skip the notify (a futex call)
/// while the waiter is still spinning. Own cache line: a spinner polls it.
struct alignas(64) WakeWord {
  std::atomic<std::uint32_t> value{0};
  std::atomic<bool> parked{false};

  /// Returns the first value that satisfies done(). Spins up to `spin`.
  /// Parking stores `parked` and re-reads `value` sequentially consistent,
  /// and wake() mirrors it, so either the waiter sees the new value or the
  /// waker sees `parked` and notifies.
  template <typename Done>
  std::uint32_t await(std::chrono::microseconds spin, Done done) {
    std::uint32_t v = value.load(std::memory_order_acquire);
    if (done(v)) return v;
    if (spin.count() > 0) {
      const auto deadline = std::chrono::steady_clock::now() + spin;
      do {
        for (int i = 0; i < 16; ++i) {
          cpu_relax();
          v = value.load(std::memory_order_acquire);
          if (done(v)) return v;
        }
      } while (std::chrono::steady_clock::now() < deadline);
    }
    parked.store(true);
    while (!done(v = value.load())) value.wait(v);
    parked.store(false, std::memory_order_relaxed);
    return v;
  }

  /// Call after a sequentially consistent change of `value`.
  void wake() {
    if (parked.load()) value.notify_one();
  }
};
}  // namespace

bool in_parallel_region() { return t_in_parallel_region; }

InlineScope::InlineScope() : was_inline_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

InlineScope::~InlineScope() { t_in_parallel_region = was_inline_; }

struct ThreadPool::State {
  explicit State(std::size_t workers)
      : slots(std::make_unique<WakeWord[]>(workers)),
        spin(workers + 1 <= std::thread::hardware_concurrency()
                 ? kSpinBound
                 : std::chrono::microseconds{0}) {}

  // Serialises whole parallel_for jobs in arrival order (a ticket lock):
  // concurrent callers from distinct application threads queue up rather
  // than corrupting the job slot, and a caller that loops on parallel_for
  // (a serving model) cannot re-take the slot ahead of a waiting one (a
  // registration building its filter banks). Never taken by pool workers
  // (nested calls run inline), so it cannot self-deadlock.
  std::mutex job_mutex;
  std::condition_variable job_turn;
  std::uint64_t next_ticket = 0;
  std::uint64_t now_serving = 0;

  // Job description for the current parallel_for. Written by the caller
  // before it bumps the used workers' slots, read by those workers after
  // they see the bump; `pending` hands it back.
  void* ctx = nullptr;
  void (*fn)(void*, std::size_t, std::size_t) = nullptr;
  std::size_t count = 0;
  std::size_t chunks = 0;

  std::unique_ptr<WakeWord[]> slots;  ///< one per worker; bumped per job
  WakeWord pending;                   ///< worker chunks not yet finished
  std::atomic<bool> stopping{false};
  std::chrono::microseconds spin;  ///< 0 when oversubscribed

  std::mutex error_mutex;  ///< taken only when a chunk throws
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool: more than " +
                                std::to_string(kMaxThreads) + " threads");
  }
  if (threads == 0) {
    threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                      kMaxThreads);
  }
  state_ = std::make_unique<State>(threads - 1);
  workers_.reserve(threads - 1);
  try {
    for (std::size_t i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() {
  state_->stopping.store(true);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    state_->slots[i].value.fetch_add(1);
    state_->slots[i].wake();
  }
  workers_.clear();  // joins
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  State& st = *state_;
  WakeWord& slot = st.slots[worker_index];
  t_in_parallel_region = true;
  std::uint32_t seen = 0;
  for (;;) {
    seen = slot.await(st.spin, [seen](std::uint32_t v) { return v != seen; });
    if (st.stopping.load()) return;
    // Worker i owns chunk i + 1 (the caller runs chunk 0); only workers
    // with a chunk are woken.
    const std::size_t chunk = worker_index + 1;
    const std::size_t begin = chunk_begin(chunk, st.count, st.chunks);
    const std::size_t end = chunk_begin(chunk + 1, st.count, st.chunks);
    try {
      st.fn(st.ctx, begin, end);
    } catch (...) {
      std::lock_guard lock(st.error_mutex);
      if (!st.error) st.error = std::current_exception();
    }
    if (st.pending.value.fetch_sub(1) == 1) st.pending.wake();
  }
}

void ThreadPool::parallel_for_raw(std::size_t count, void* ctx,
                                  void (*fn)(void*, std::size_t,
                                             std::size_t)) {
  if (count == 0) return;
  const std::size_t chunks = std::min(count, threads());
  if (chunks <= 1 || t_in_parallel_region) {
    fn(ctx, 0, count);
    return;
  }

  // Hold the job slot for the whole job; the destructor passes it to the
  // next ticket on every exit path, the rethrow included.
  struct JobTurn {
    State& st;
    explicit JobTurn(State& s) : st(s) {
      std::unique_lock lock(st.job_mutex);
      const std::uint64_t ticket = st.next_ticket++;
      st.job_turn.wait(lock, [&] { return st.now_serving == ticket; });
    }
    ~JobTurn() {
      {
        std::lock_guard lock(st.job_mutex);
        ++st.now_serving;
      }
      st.job_turn.notify_all();
    }
  } turn(*state_);
  State& st = *state_;
  st.ctx = ctx;
  st.fn = fn;
  st.count = count;
  st.chunks = chunks;
  st.pending.value.store(static_cast<std::uint32_t>(chunks - 1));
  for (std::size_t w = 0; w + 1 < chunks; ++w) {
    st.slots[w].value.fetch_add(1);
    st.slots[w].wake();
  }

  // The caller is thread 0 and runs the first chunk.
  std::exception_ptr error;
  t_in_parallel_region = true;
  try {
    fn(ctx, 0, chunk_begin(1, count, chunks));
  } catch (...) {
    error = std::current_exception();
  }
  t_in_parallel_region = false;

  st.pending.await(st.spin, [](std::uint32_t v) { return v == 0; });
  if (st.error) error = std::exchange(st.error, nullptr);
  if (error) std::rethrow_exception(error);
}

std::optional<std::size_t> parse_thread_count(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  std::size_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(*p - '0');
    if (value > ThreadPool::kMaxThreads) return std::nullopt;
  }
  if (value == 0) return std::nullopt;
  return value;
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

std::size_t default_global_threads() {
  if (const char* env = std::getenv("WINO_THREADS")) {
    if (const auto threads = parse_thread_count(env)) return *threads;
    std::fprintf(stderr,
                 "wino: ignoring WINO_THREADS=\"%s\": expected an integer "
                 "in [1, %zu]\n",
                 env, ThreadPool::kMaxThreads);
  }
  return 0;  // hardware concurrency
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(default_global_threads());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  if (threads == 0 || threads > kMaxThreads) {
    throw std::invalid_argument("set_global_threads: need 1.." +
                                std::to_string(kMaxThreads) + " threads");
  }
  std::lock_guard lock(g_global_mutex);
  if (g_global_pool && g_global_pool->threads() == threads) return;
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace wino::runtime

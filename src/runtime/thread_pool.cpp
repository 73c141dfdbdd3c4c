#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace wino::runtime {

namespace {
// Set while a thread executes a parallel_for body; nested calls run inline.
thread_local bool t_in_parallel_region = false;
}  // namespace

bool in_parallel_region() { return t_in_parallel_region; }

InlineScope::InlineScope() : was_inline_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

InlineScope::~InlineScope() { t_in_parallel_region = was_inline_; }

struct ThreadPool::State {
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
  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;

  // Job description for the current parallel_for, guarded by mutex.
  void* ctx = nullptr;
  void (*fn)(void*, std::size_t, std::size_t) = nullptr;
  std::size_t count = 0;
  std::size_t chunks = 0;
  std::uint64_t epoch = 0;
  std::size_t pending = 0;  ///< worker chunks not yet finished
  std::exception_ptr error;
  bool stopping = false;
};

ThreadPool::ThreadPool(std::size_t threads) : state_(new State) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(state_->mutex);
    state_->stopping = true;
  }
  state_->work_ready.notify_all();
  workers_.clear();  // joins
  delete state_;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  State& st = *state_;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    void* ctx = nullptr;
    void (*fn)(void*, std::size_t, std::size_t) = nullptr;
    std::size_t count = 0;
    std::size_t chunks = 0;
    {
      std::unique_lock lock(st.mutex);
      st.work_ready.wait(lock, [&] {
        return st.stopping || st.epoch != seen_epoch;
      });
      if (st.stopping) return;
      seen_epoch = st.epoch;
      ctx = st.ctx;
      fn = st.fn;
      count = st.count;
      chunks = st.chunks;
    }
    // Worker i owns chunk i + 1 (the caller runs chunk 0); workers past the
    // chunk count have nothing to do this round but still must check in.
    const std::size_t chunk = worker_index + 1;
    std::exception_ptr error;
    if (chunk < chunks) {
      const std::size_t begin = chunk_begin(chunk, count, chunks);
      const std::size_t end = chunk_begin(chunk + 1, count, chunks);
      t_in_parallel_region = true;
      try {
        fn(ctx, begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      t_in_parallel_region = false;
    }
    {
      std::lock_guard lock(st.mutex);
      if (error && !st.error) st.error = error;
      if (--st.pending == 0) st.work_done.notify_all();
    }
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
  {
    std::lock_guard lock(state_->mutex);
    state_->ctx = ctx;
    state_->fn = fn;
    state_->count = count;
    state_->chunks = chunks;
    state_->pending = workers_.size();
    state_->error = nullptr;
    ++state_->epoch;
  }
  state_->work_ready.notify_all();

  // The caller is thread 0 and runs the first chunk.
  std::exception_ptr error;
  t_in_parallel_region = true;
  try {
    fn(ctx, 0, chunk_begin(1, count, chunks));
  } catch (...) {
    error = std::current_exception();
  }
  t_in_parallel_region = false;

  std::unique_lock lock(state_->mutex);
  state_->work_done.wait(lock, [&] { return state_->pending == 0; });
  state_->ctx = nullptr;
  state_->fn = nullptr;
  if (!state_->error && error) state_->error = error;
  if (state_->error) {
    std::exception_ptr rethrow = state_->error;
    state_->error = nullptr;
    lock.unlock();
    std::rethrow_exception(rethrow);
  }
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

std::size_t default_global_threads() {
  if (const char* env = std::getenv("WINO_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
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
  if (threads == 0) {
    throw std::invalid_argument("set_global_threads: need >= 1 thread");
  }
  std::lock_guard lock(g_global_mutex);
  if (g_global_pool && g_global_pool->threads() == threads) return;
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace wino::runtime

// Unit tests for the deterministic runtime (ThreadPool + parallel_for) and
// end-to-end determinism of the threaded hot paths: any thread count must
// produce bit-identical results to the single-threaded run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "conv/fft.hpp"
#include "conv/im2col.hpp"
#include "conv/spatial.hpp"
#include "hw/engine_config.hpp"
#include "hw/winograd_engine.hpp"
#include "nn/forward.hpp"
#include "runtime/thread_pool.hpp"

namespace wino::runtime {
namespace {

using tensor::Tensor4f;

// Restores the global pool so test order cannot leak thread counts.
class RuntimeTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::set_global_threads(4); }
};

TEST_F(RuntimeTest, ChunksCoverRangeExactlyOnce) {
  for (const std::size_t count : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 8u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      const std::size_t effective = std::min<std::size_t>(count, chunks);
      for (std::size_t i = 0; i < effective; ++i) {
        const std::size_t b = ThreadPool::chunk_begin(i, count, effective);
        const std::size_t e = ThreadPool::chunk_begin(i + 1, count, effective);
        EXPECT_EQ(b, prev_end);
        EXPECT_LE(e, count);
        covered += e - b;
        prev_end = e;
      }
      if (effective > 0) EXPECT_EQ(covered, count);
    }
  }
}

TEST_F(RuntimeTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(RuntimeTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(RuntimeTest, OversubscribedPoolStillCoversSmallRange) {
  // More threads than work: only `count` chunks are issued, each size 1.
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(end - begin, 1u);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(RuntimeTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> hits(10, 0);
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST_F(RuntimeTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8 * 8);
  pool.parallel_for(8, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      pool.parallel_for(8, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i) hits[o * 8 + i].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Under an InlineScope every parallel_for runs as one chunk on the calling
// thread; the scope restores fan-out when it ends, even when nested.
TEST_F(RuntimeTest, InlineScopeRunsParallelForOnTheCallingThread) {
  ThreadPool pool(4);
  const auto chunks_on_caller = [&] {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    bool all_on_caller = true;
    const auto caller = std::this_thread::get_id();
    pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
      std::lock_guard lock(mu);
      chunks.emplace_back(begin, end);
      all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    });
    return std::pair{chunks.size(), all_on_caller};
  };
  {
    const InlineScope outer;
    {
      const InlineScope inner;
      EXPECT_EQ(chunks_on_caller(), std::pair(std::size_t{1}, true));
    }
    EXPECT_EQ(chunks_on_caller(), std::pair(std::size_t{1}, true));
  }
  EXPECT_EQ(chunks_on_caller().first, 4u);
}

TEST_F(RuntimeTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) {
                            throw std::runtime_error("chunk failure");
                          }
                        }),
      std::runtime_error);
  // The pool must stay usable after an exception round.
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 10);
}

// Jobs from distinct application threads are admitted in arrival order.
// A looping caller (a serving model) holds the pool while a second caller
// (a registration) queues behind it, then submits again at once: the
// queued job must run first. A plain mutex hands the slot back to the
// looper, which is still running when it unlocks, again and again.
TEST_F(RuntimeTest, ConcurrentCallersAreAdmittedInArrivalOrder) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<bool> looper_in_job{false};
    std::atomic<bool> waiter_calling{false};
    std::mutex order_mutex;
    std::string order;
    const auto record = [&](char who) {
      std::lock_guard lock(order_mutex);
      order += who;
    };
    std::thread looper([&] {
      pool.parallel_for(2, [&](std::size_t begin, std::size_t) {
        if (begin != 0) return;
        looper_in_job.store(true);
        while (!waiter_calling.load()) std::this_thread::yield();
        // Time for the waiter to queue behind this job.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
      pool.parallel_for(2, [&](std::size_t begin, std::size_t) {
        if (begin == 0) record('L');
      });
    });
    while (!looper_in_job.load()) std::this_thread::yield();
    waiter_calling.store(true);
    pool.parallel_for(2, [&](std::size_t begin, std::size_t) {
      if (begin == 0) record('W');
    });
    looper.join();
    EXPECT_EQ(order, "WL") << "round " << round;
  }
}

TEST_F(RuntimeTest, SetGlobalThreadsRejectsZero) {
  EXPECT_THROW(ThreadPool::set_global_threads(0), std::invalid_argument);
}

TEST_F(RuntimeTest, GlobalParallelForEachSums) {
  ThreadPool::set_global_threads(3);
  std::vector<std::atomic<int>> hits(100);
  parallel_for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------------------
// Determinism of the threaded hot paths: 1 thread vs N threads must be
// bit-identical (the runtime only parallelises independent outputs).
// ---------------------------------------------------------------------------

template <typename Fn>
void expect_thread_invariant(Fn&& fn) {
  ThreadPool::set_global_threads(1);
  const Tensor4f ref = fn();
  for (const std::size_t t : {2u, 4u, 7u}) {
    ThreadPool::set_global_threads(t);
    const Tensor4f got = fn();
    ASSERT_EQ(ref.shape(), got.shape());
    EXPECT_EQ(tensor::max_abs_diff(ref, got), 0.0F)
        << "non-deterministic at " << t << " threads";
  }
}

TEST_F(RuntimeTest, ConvBackendsAreThreadCountInvariant) {
  common::Rng rng(41);
  Tensor4f in(2, 3, 12, 12);
  Tensor4f k(5, 3, 3, 3);
  rng.fill_uniform(in.flat());
  rng.fill_normal(k.flat(), 0.0F, 0.5F);
  const conv::SpatialConvOptions opt{.pad = 1, .stride = 1};
  expect_thread_invariant([&] { return conv::conv2d_spatial(in, k, opt); });
  expect_thread_invariant([&] { return conv::conv2d_im2col(in, k, opt); });
  expect_thread_invariant([&] { return conv::conv2d_fft(in, k, opt); });
}

TEST_F(RuntimeTest, HwEngineIsThreadCountInvariant) {
  common::Rng rng(42);
  Tensor4f in(1, 4, 14, 14);
  Tensor4f k(6, 4, 3, 3);
  rng.fill_uniform(in.flat());
  rng.fill_normal(k.flat(), 0.0F, 0.5F);
  hw::EngineConfig cfg;
  cfg.m = 2;
  cfg.r = 3;
  cfg.parallel_pes = 4;
  const hw::WinogradEngine engine(cfg);
  expect_thread_invariant(
      [&] { return engine.run_layer(in, k, 1).output; });
}

TEST_F(RuntimeTest, ForwardIsThreadCountInvariant) {
  const auto layers = nn::vgg16_d_scaled(28, 16);  // 8x8 input, tiny
  const auto weights = nn::random_weights(layers, 43);
  common::Rng rng(44);
  Tensor4f batch(5, 3, 8, 8);
  rng.fill_uniform(batch.flat());
  for (const auto algo : {nn::ConvAlgo::kIm2col, nn::ConvAlgo::kWinograd2}) {
    expect_thread_invariant(
        [&] { return nn::forward(layers, weights, batch, algo); });
  }
}

TEST_F(RuntimeTest, BatchForwardMatchesPerImageForward) {
  // The batch-parallel split must agree with slicing the batch by hand.
  const auto layers = nn::vgg16_d_scaled(28, 16);
  const auto weights = nn::random_weights(layers, 45);
  common::Rng rng(46);
  Tensor4f batch(3, 3, 8, 8);
  rng.fill_uniform(batch.flat());
  const Tensor4f all =
      nn::forward(layers, weights, batch, nn::ConvAlgo::kIm2col);
  const std::size_t vol = 3 * 8 * 8;
  for (std::size_t img = 0; img < 3; ++img) {
    Tensor4f single(1, 3, 8, 8);
    const auto src = batch.flat().subspan(img * vol, vol);
    std::copy(src.begin(), src.end(), single.flat().begin());
    const Tensor4f one =
        nn::forward(layers, weights, single, nn::ConvAlgo::kIm2col);
    const auto os = all.shape();
    const std::size_t ovol = os.c * os.h * os.w;
    const auto got = all.flat().subspan(img * ovol, ovol);
    const auto want = one.flat();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]);
    }
  }
}

}  // namespace
}  // namespace wino::runtime

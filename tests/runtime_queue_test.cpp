// Property/stress coverage for runtime::BoundedQueue — the MPMC hand-off
// primitive every serving thread crosses — and its deterministic-clock
// wait path (pop_until + ManualClock + kick). The randomized MPMC tests
// reconcile totals (every pushed value pops exactly once, nothing
// invented, nothing lost) rather than asserting interleavings, so they
// hold under any scheduler — and give TSan real concurrency to chew on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/bounded_queue.hpp"
#include "runtime/clock.hpp"

namespace {

using wino::runtime::BoundedQueue;
using wino::runtime::ClockSource;
using wino::runtime::ManualClock;

// ---------------------------------------------------------------------------
// Randomized MPMC with totals reconciliation
// ---------------------------------------------------------------------------

/// N producers push disjoint value ranges, M consumers drain until the
/// close() signal; union of consumed values must be exactly the union of
/// produced ones. Capacity far below the item count forces constant
/// blocking on both condvars.
void mpmc_reconciles(std::size_t producers, std::size_t consumers,
                     std::size_t per_producer, std::size_t capacity) {
  BoundedQueue<std::uint64_t> q(capacity);
  std::vector<std::vector<std::uint64_t>> consumed(consumers);

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      while (auto v = q.pop()) consumed[c].push_back(*v);
    });
  }
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        ASSERT_TRUE(q.push(p * per_producer + i));
      }
    });
  }
  // Join producers (they are the last `producers` threads), then close so
  // consumers drain the tail and exit.
  for (std::size_t t = consumers; t < threads.size(); ++t) threads[t].join();
  q.close();
  for (std::size_t t = 0; t < consumers; ++t) threads[t].join();

  std::vector<std::uint64_t> all;
  for (const auto& v : consumed) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), producers * per_producer);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i);  // every value exactly once, none invented
  }
}

TEST(BoundedQueueStressTest, MpmcTotalsReconcile) {
  mpmc_reconciles(/*producers=*/4, /*consumers=*/4, /*per_producer=*/500,
                  /*capacity=*/8);
}

TEST(BoundedQueueStressTest, MpmcTotalsReconcileCapacityOne) {
  // Capacity 1 maximises condvar churn: every push waits for a pop and
  // vice versa, the tightest interleaving the queue supports.
  mpmc_reconciles(/*producers=*/3, /*consumers=*/3, /*per_producer=*/200,
                  /*capacity=*/1);
}

TEST(BoundedQueueStressTest, SingleProducerOrderPreservedAcrossBlocking) {
  // FIFO is global: with one producer and one consumer across a tiny
  // capacity, the consumed sequence must equal the produced sequence.
  BoundedQueue<int> q(2);
  constexpr int kItems = 1000;
  std::vector<int> seen;
  std::thread consumer([&] {
    while (auto v = q.pop()) seen.push_back(*v);
  });
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.push(i));
  q.close();
  consumer.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(seen[i], i);
}

// ---------------------------------------------------------------------------
// close() while blocked
// ---------------------------------------------------------------------------

TEST(BoundedQueueStressTest, CloseWakesBlockedProducersAndConsumers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(0));  // full: further pushes block

  constexpr std::size_t kBlocked = 4;
  std::atomic<int> push_failures{0};
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < kBlocked; ++i) {
    producers.emplace_back([&] {
      if (!q.push(1)) ++push_failures;  // blocked full -> woken by close
    });
  }
  // A consumer parked on a second, empty queue: only close() wakes it.
  BoundedQueue<int> empty(1);
  std::atomic<bool> consumer_got_item{false};
  std::thread parked([&] {
    if (empty.pop()) consumer_got_item = true;
  });
  // Close q before its consumer starts, so no pop can free a slot that a
  // blocked producer would then win.
  q.close();
  for (auto& t : producers) t.join();
  empty.close();
  parked.join();
  // The consumer drains the one pre-close item, then observes
  // drained-empty instead of hanging.
  std::atomic<int> pop_values{0};
  std::thread consumer([&] {
    while (auto v = q.pop()) ++pop_values;
  });
  consumer.join();

  // Every blocked producer was woken and reported failure (close() rejects
  // pushes, even those already parked); the consumer drained exactly the
  // one pre-close item (capacity was 1, all post-close pushes failed).
  EXPECT_EQ(push_failures.load(), static_cast<int>(kBlocked));
  EXPECT_EQ(pop_values.load(), 1);
  EXPECT_FALSE(consumer_got_item.load());
}

// ---------------------------------------------------------------------------
// pop_until against the two clock kinds
// ---------------------------------------------------------------------------

TEST(BoundedQueuePopUntilTest, SteadyClockDeadlineExpires) {
  BoundedQueue<int> q(2);
  const auto& clock = wino::runtime::steady_clock_source();
  const auto got =
      q.pop_until(clock, clock.now() + std::chrono::milliseconds(5));
  EXPECT_FALSE(got.has_value());
  EXPECT_FALSE(q.closed());
}

TEST(BoundedQueuePopUntilTest, ReturnsQueuedItemImmediately) {
  BoundedQueue<int> q(2);
  ManualClock clock;
  ASSERT_TRUE(q.push(42));
  // Deadline already reached — the queued item still wins over timeout.
  const auto got = q.pop_until(clock, clock.now());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TEST(BoundedQueuePopUntilTest, ManualClockAdvanceWakesWaiter) {
  BoundedQueue<int> q(2);
  ManualClock clock;
  const auto deadline = clock.now() + std::chrono::milliseconds(10);
  const auto token = clock.add_wake_hook([&q] { q.kick(); });

  std::promise<bool> timed_out;
  std::thread waiter([&] {
    // Blocks untimed (manual clock): only the kick from advance() can
    // deliver the deadline.
    timed_out.set_value(!q.pop_until(clock, deadline).has_value());
  });
  auto fut = timed_out.get_future();
  // An advance short of the deadline must NOT release the waiter.
  clock.advance(std::chrono::milliseconds(9));
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  // Reaching the deadline exactly must.
  clock.advance(std::chrono::milliseconds(1));
  EXPECT_TRUE(fut.get());
  waiter.join();
  clock.remove_wake_hook(token);
}

TEST(BoundedQueuePopUntilTest, PushBeatsManualDeadline) {
  BoundedQueue<int> q(2);
  ManualClock clock;
  const auto token = clock.add_wake_hook([&q] { q.kick(); });
  std::promise<std::optional<int>> result;
  std::thread waiter([&] {
    result.set_value(
        q.pop_until(clock, clock.now() + std::chrono::hours(1)));
  });
  ASSERT_TRUE(q.push(7));  // wakes the waiter without any time movement
  const auto got = result.get_future().get();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  waiter.join();
  clock.remove_wake_hook(token);
}

TEST(BoundedQueuePopUntilTest, ManualAdvanceRaceNeverLosesWakeup) {
  // Hammer the advance-vs-wait race: a waiter enters pop_until with a
  // deadline one tick ahead while another thread concurrently advances
  // past it. The kick() handshake (lock, unlock, notify after the time
  // moved) must guarantee the waiter never parks forever.
  for (int round = 0; round < 200; ++round) {
    BoundedQueue<int> q(1);
    ManualClock clock;
    const auto token = clock.add_wake_hook([&q] { q.kick(); });
    const auto deadline = clock.now() + std::chrono::microseconds(1);
    std::thread advancer(
        [&] { clock.advance(std::chrono::microseconds(2)); });
    const auto got = q.pop_until(clock, deadline);
    EXPECT_FALSE(got.has_value());
    advancer.join();
    clock.remove_wake_hook(token);
  }
}

// ---------------------------------------------------------------------------
// kick() and wake-hook registry semantics
// ---------------------------------------------------------------------------

TEST(BoundedQueuePopUntilTest, KickIsContentNeutral) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  q.kick();
  EXPECT_EQ(q.size(), 1u);  // spurious wake changes nothing
  EXPECT_EQ(q.pop().value(), 1);
}

TEST(ClockSourceTest, RemovedHookNeverFiresAgain) {
  ManualClock clock;
  std::atomic<int> fired{0};
  const auto token = clock.add_wake_hook([&] { ++fired; });
  clock.advance(std::chrono::seconds(1));
  EXPECT_EQ(fired.load(), 1);
  clock.remove_wake_hook(token);
  clock.advance(std::chrono::seconds(1));
  EXPECT_EQ(fired.load(), 1);  // the teardown guarantee servers rely on
}

TEST(ClockSourceTest, ManualClockNeverMovesBackwards) {
  ManualClock clock;
  const auto t0 = clock.now();
  clock.advance(std::chrono::seconds(-5));
  EXPECT_EQ(clock.now(), t0);
  clock.set_time(t0 - std::chrono::seconds(1));
  EXPECT_EQ(clock.now(), t0);
  clock.set_time(t0 + std::chrono::seconds(3));
  EXPECT_EQ(clock.now(), t0 + std::chrono::seconds(3));
}

TEST(ClockSourceTest, SteadySourceTracksRealTime) {
  const auto& clock = wino::runtime::steady_clock_source();
  EXPECT_FALSE(clock.manual());
  const auto a = clock.now();
  const auto b = clock.now();
  EXPECT_LE(a, b);  // monotone, and usable interchangeably with
                    // std::chrono::steady_clock time points
}

}  // namespace

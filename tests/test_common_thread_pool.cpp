// Tests for common/thread_pool: every index runs exactly once whatever
// the shape of the loop, home blocks are stolen when a lane straggles,
// failures surface exactly once, and the spin-then-park handshake neither
// deadlocks nor delays shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "kibamrm/common/thread_pool.hpp"

namespace kibamrm::common {
namespace {

using std::chrono::steady_clock;

// Generous enough for a loaded or sanitizer-instrumented host; a healthy
// pool meets every condition below in microseconds to milliseconds.
constexpr std::chrono::seconds kPatience{20};

/// Yields until pred() holds; false if kPatience runs out first.
template <typename Pred>
bool wait_until(const Pred& pred) {
  const auto deadline = steady_clock::now() + kPatience;
  while (!pred()) {
    if (steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A lane count that lets every lane own a hardware thread (so lanes
/// spin between jobs), but at least 2 so the pool has workers at all.
std::size_t spinning_lanes() {
  return std::max<std::size_t>(
      2, std::min<std::size_t>(4, ThreadPool::hardware_thread_count()));
}

void expect_each_index_once(ThreadPool& pool, std::size_t count) {
  std::vector<std::atomic<int>> hits(count);
  pool.parallel_for(count, [&](std::size_t index, std::size_t lane) {
    ASSERT_LT(lane, pool.thread_count());
    hits[index].fetch_add(1);
  });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
  }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  expect_each_index_once(pool, 257);
}

TEST(ThreadPool, CoversCountsBelowAndBetweenLaneMultiples) {
  // Fewer indices than lanes leaves some home blocks empty; a count that
  // is no lane multiple makes the blocks uneven.  Neither may lose or
  // repeat an index.
  for (const std::size_t lanes : {3u, 4u, 5u}) {
    ThreadPool pool(lanes);
    for (const std::size_t count : {2u, 3u, 4u, 5u, 7u, 9u, 17u, 63u}) {
      expect_each_index_once(pool, count);
    }
  }
}

TEST(ThreadPool, OversubscribedPoolParksInsteadOfSpinning) {
  // More lanes than hardware threads: the park-only path must be just as
  // correct across many dispatches.
  ThreadPool pool(ThreadPool::hardware_thread_count() + 3);
  for (int round = 0; round < 200; ++round) expect_each_index_once(pool, 29);
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  // The spmv loop dispatches tens of thousands of tiny jobs back to back,
  // each published while the lanes still spin on the last one; the pool
  // must neither deadlock nor lose work across them.
  ThreadPool pool(spinning_lanes());
  std::atomic<std::size_t> total{0};
  constexpr std::size_t kRounds = 10000;
  constexpr std::size_t kShards = 16;
  for (std::size_t round = 0; round < kRounds; ++round) {
    pool.parallel_for(kShards, [&](std::size_t, std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), kRounds * kShards);
}

TEST(ThreadPool, AutoDetectsAtLeastOneLane) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<int> runs{0};
  pool.parallel_for(5, [&](std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs.load(), 5);
}

TEST(ThreadPool, OneLaneRunsInlineOnTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t runs = 0;  // no atomic needed: nothing else runs tasks
  pool.parallel_for(9, [&](std::size_t index, std::size_t lane) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(index, runs);  // ascending, one at a time
    ++runs;
  });
  EXPECT_EQ(runs, 9u);
}

TEST(ThreadPool, StragglingHomeBlockIsStolen) {
  // 4 lanes, 16 indices: home block 0 is [0, 4).  Index 0 holds its lane
  // until the rest of that block has run, which only stealing lanes can
  // do; every index must still run exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 16;
  std::vector<std::atomic<int>> hits(kCount);
  std::vector<std::atomic<std::size_t>> lane_of(kCount);
  std::atomic<bool> rest_ran{false};
  pool.parallel_for(kCount, [&](std::size_t index, std::size_t lane) {
    lane_of[index].store(lane);
    if (index == 0) {
      rest_ran.store(wait_until([&] {
        return hits[1].load() + hits[2].load() + hits[3].load() == 3;
      }));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    hits[index].fetch_add(1);
  });
  ASSERT_TRUE(rest_ran.load());
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NE(lane_of[i].load(), lane_of[0].load()) << "index " << i;
  }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  for (const std::size_t lanes : {1u, 3u}) {
    ThreadPool pool(lanes);
    EXPECT_THROW(
        pool.parallel_for(16,
                          [&](std::size_t index, std::size_t) {
                            if (index == 11) {
                              throw std::runtime_error("boom");
                            }
                          }),
        std::runtime_error);
    // And the pool still works afterwards.
    std::atomic<int> runs{0};
    pool.parallel_for(4, [&](std::size_t, std::size_t) { ++runs; });
    EXPECT_EQ(runs.load(), 4);
  }
}

TEST(ThreadPool, RethrowsFromAStolenIndexAndRecovers) {
  // Index 0 holds its lane until index 1 -- the next index of the same
  // home block -- has been attempted, so index 1 runs on a stealing lane
  // and throws there.
  ThreadPool pool(4);
  std::atomic<bool> attempted{false};
  std::atomic<std::size_t> lane_of_0{0};
  std::atomic<std::size_t> lane_of_1{0};
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&](std::size_t index, std::size_t lane) {
                          if (index == 0) {
                            lane_of_0.store(lane);
                            EXPECT_TRUE(wait_until(
                                [&] { return attempted.load(); }));
                          } else if (index == 1) {
                            lane_of_1.store(lane);
                            attempted.store(true);
                            throw std::runtime_error("stolen boom");
                          }
                        }),
      std::runtime_error);
  EXPECT_NE(lane_of_0.load(), lane_of_1.load());
  for (int round = 0; round < 10; ++round) expect_each_index_once(pool, 16);
}

TEST(ThreadPool, CooperatingTasksAllRunAtOnce) {
  // parallel_for(lanes) whose tasks wait on each other, like the ooc
  // engine's producer and compute roles: each lane takes its own home
  // index first, so all of them are in flight together.
  for (const std::size_t lanes : {spinning_lanes(), std::size_t{8}}) {
    ThreadPool pool(lanes);
    for (int round = 0; round < 20; ++round) {
      std::atomic<std::size_t> arrived{0};
      std::atomic<int> timeouts{0};
      pool.parallel_for(lanes, [&](std::size_t index, std::size_t lane) {
        EXPECT_EQ(index, lane);
        arrived.fetch_add(1);
        if (!wait_until([&] { return arrived.load() == lanes; })) {
          timeouts.fetch_add(1);
        }
      });
      EXPECT_EQ(timeouts.load(), 0);
    }
  }
}

TEST(ThreadPool, DestructsPromptlyWhileLanesSpin) {
  auto pool = std::make_unique<ThreadPool>(spinning_lanes());
  std::atomic<int> runs{0};
  for (int round = 0; round < 3; ++round) {
    pool->parallel_for(8, [&](std::size_t, std::size_t) { ++runs; });
  }
  const auto start = steady_clock::now();
  pool.reset();  // the workers are spinning on the next job right now
  EXPECT_LT(steady_clock::now() - start, std::chrono::milliseconds(500));
  EXPECT_EQ(runs.load(), 24);
}

}  // namespace
}  // namespace kibamrm::common

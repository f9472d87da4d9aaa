// Property tests for the deterministic thread-pool primitives: for every
// thread count in {1, 2, 7, hardware_concurrency}, parallel_for must match
// the serial loop element-for-element and parallel_reduce must be
// BIT-identical to its own result at every other thread count (the ordered
// fixed-shape tree makes even non-associative float folds reproducible).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"

namespace atlas::util {
namespace {

/// RAII guard: every test leaves the global pool back at its default.
class ThreadsGuard {
 public:
  ~ThreadsGuard() { set_global_threads(0); }
};

std::vector<int> thread_counts() {
  return {1, 2, 7, hardware_concurrency()};
}

TEST(ParallelForTest, EmptyAndSingleElementRanges) {
  ThreadsGuard guard;
  for (const int t : thread_counts()) {
    set_global_threads(t);
    int calls = 0;
    parallel_for(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::vector<int> hits(1, 0);
    parallel_for(1, 4, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(hits[0], 1);
  }
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  ThreadsGuard guard;
  Rng rng(101);
  for (const int t : thread_counts()) {
    set_global_threads(t);
    for (int round = 0; round < 8; ++round) {
      const std::size_t n = rng.next_below(2000);
      const std::size_t grain = 1 + rng.next_below(300);
      std::vector<int> hits(n, 0);
      parallel_for(n, grain, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "n=" << n << " grain=" << grain
                              << " threads=" << t << " i=" << i;
      }
    }
  }
}

TEST(ParallelForChunksTest, ChunksCoverRangeDisjointly) {
  ThreadsGuard guard;
  for (const int t : thread_counts()) {
    set_global_threads(t);
    const std::size_t n = 1000;
    std::vector<int> hits(n, 0);
    parallel_for_chunks(n, 64, [&](std::size_t begin, std::size_t end) {
      ASSERT_LT(begin, end);
      ASSERT_LE(end, n);
      ASSERT_LE(end - begin, 64u);
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
  }
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  ThreadsGuard guard;
  const double out = parallel_reduce(
      0, 8, -123.5,
      [](std::size_t, std::size_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(out, -123.5);
}

TEST(ParallelReduceTest, SingleElementMatchesSerialFold) {
  ThreadsGuard guard;
  for (const int t : thread_counts()) {
    set_global_threads(t);
    const long long out = parallel_reduce(
        1, 100, 0LL,
        [](std::size_t begin, std::size_t end) {
          long long s = 0;
          for (std::size_t i = begin; i < end; ++i) s += static_cast<long long>(i) + 7;
          return s;
        },
        [](long long a, long long b) { return a + b; });
    EXPECT_EQ(out, 7);
  }
}

TEST(ParallelReduceTest, FloatSumBitIdenticalAcrossThreadCounts) {
  ThreadsGuard guard;
  Rng rng(7);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 1 + rng.next_below(5000);
    const std::size_t grain = 1 + rng.next_below(700);
    // Wildly varied magnitudes make float addition maximally non-associative.
    std::vector<double> data(n);
    for (double& v : data) {
      v = (rng.next_double() - 0.5) * std::pow(10.0, rng.next_below(12));
    }
    auto run = [&] {
      return parallel_reduce(
          n, grain, 0.0,
          [&](std::size_t begin, std::size_t end) {
            double s = 0.0;
            for (std::size_t i = begin; i < end; ++i) s += data[i];
            return s;
          },
          [](double a, double b) { return a + b; });
    };
    set_global_threads(1);
    const double serial = run();
    for (const int t : thread_counts()) {
      set_global_threads(t);
      const double parallel = run();
      // Bit-level comparison: NaN-safe and stricter than operator==.
      EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof serial), 0)
          << "n=" << n << " grain=" << grain << " threads=" << t;
    }
  }
}

TEST(ParallelReduceTest, OrderedTreePreservesSequenceOrder) {
  ThreadsGuard guard;
  // String concatenation is associative but not commutative: any reduction
  // that reorders chunks produces a different string.
  const std::size_t n = 137;
  std::string expected;
  for (std::size_t i = 0; i < n; ++i) expected += std::to_string(i) + ",";
  for (const int t : thread_counts()) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{5},
                                    std::size_t{64}, std::size_t{1000}}) {
      set_global_threads(t);
      const std::string out = parallel_reduce(
          n, grain, std::string(),
          [](std::size_t begin, std::size_t end) {
            std::string s;
            for (std::size_t i = begin; i < end; ++i) s += std::to_string(i) + ",";
            return s;
          },
          [](std::string a, std::string b) { return std::move(a) + b; });
      EXPECT_EQ(out, expected) << "threads=" << t << " grain=" << grain;
    }
  }
}

TEST(ParallelTest, NestedParallelRunsInline) {
  ThreadsGuard guard;
  set_global_threads(4);
  std::vector<int> hits(64 * 64, 0);
  parallel_for(64, 4, [&](std::size_t outer) {
    EXPECT_TRUE(in_parallel_region());
    parallel_for(64, 4, [&](std::size_t inner) { ++hits[outer * 64 + inner]; });
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ParallelTest, ConcurrentBatchInlineFallbackIsAParallelRegion) {
  // While one external run() holds the pool, a second external run() runs
  // its tasks inline on its own thread. Those tasks are inside a parallel
  // region like any other (nested parallel constructs must run inline, not
  // post to the pool).
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    pool.run(2, [&](std::size_t) {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (started.load() == 0) std::this_thread::yield();

  std::vector<int> inside(3, -1);
  pool.run(inside.size(), [&](std::size_t i) {
    inside[i] = in_parallel_region() ? 1 : 0;
  });
  EXPECT_FALSE(in_parallel_region());
  release.store(true);
  holder.join();
  EXPECT_EQ(inside, std::vector<int>(3, 1));
}

TEST(ParallelTest, ExceptionsPropagateToCaller) {
  ThreadsGuard guard;
  for (const int t : {1, 4}) {
    set_global_threads(t);
    EXPECT_THROW(
        parallel_for(256, 8,
                     [](std::size_t i) {
                       if (i == 97) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
    // Pool still usable afterwards.
    std::vector<int> hits(10, 0);
    parallel_for(10, 1, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
  }
}

TEST(ParallelTest, GlobalThreadConfig) {
  ThreadsGuard guard;
  set_global_threads(3);
  EXPECT_EQ(global_threads(), 3);
  EXPECT_EQ(ThreadPool::global().num_threads(), 3);
  set_global_threads(0);
  EXPECT_EQ(global_threads(), hardware_concurrency());
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelTest, ChunkCountLayout) {
  EXPECT_EQ(chunk_count(0, 8), 0u);
  EXPECT_EQ(chunk_count(1, 8), 1u);
  EXPECT_EQ(chunk_count(8, 8), 1u);
  EXPECT_EQ(chunk_count(9, 8), 2u);
  EXPECT_EQ(chunk_count(10, 0), 10u);  // grain clamps to 1
}

TEST(ParallelTest, ManyMoreChunksThanThreadsStillExact) {
  ThreadsGuard guard;
  set_global_threads(7);  // oversubscribed on small machines — still exact
  const std::size_t n = 10007;
  std::vector<std::uint8_t> hits(n, 0);
  parallel_for(n, 1, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), std::size_t{0}), n);
}

}  // namespace
}  // namespace atlas::util

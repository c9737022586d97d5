// thread_pool_test.cpp — unit tests for the worker pool beneath the
// parallel sweep engine.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace nbx {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(8), 8u);
  EXPECT_GE(resolve_threads(0), 1u);  // hardware concurrency, at least 1
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 7, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, PerIndexResultSlotsSeeNoRaces) {
  ThreadPool pool(4);
  const std::size_t n = 5000;
  std::vector<std::uint64_t> out(n, 0);
  pool.parallel_for(n, 0, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, 100, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
  // Chunk larger than n, n smaller than thread count.
  pool.parallel_for(3, 1000, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  // The pool's epoch protocol must survive back-to-back parallel_fors
  // without deadlock or lost work.
  ThreadPool pool(3);
  std::uint64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> out(64, 0);
    pool.parallel_for(64, 5, [&](std::size_t i) { out[i] = i + 1; });
    total += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  }
  EXPECT_EQ(total, 50u * (64u * 65u / 2u));
}

TEST(ThreadPool, CallerExceptionLeavesThePoolReady) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> entered{0};
  std::atomic<int> inside{0};
  // The caller throws once both workers are inside an index, where each
  // stays for 250 ms. parallel_for must rethrow only after they are out,
  // and must hand out no index after the throw.
  EXPECT_THROW(pool.parallel_for(100000, 1,
                                 [&](std::size_t) {
                                   if (std::this_thread::get_id() == caller) {
                                     while (entered < 2) {
                                       std::this_thread::yield();
                                     }
                                     throw std::runtime_error("body");
                                   }
                                   if (entered.fetch_add(1) >= 2) {
                                     return;
                                   }
                                   inside.fetch_add(1);
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(250));
                                   inside.fetch_sub(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(entered.load(), 2);
  // The pool is ready for the next job: every index exactly once.
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(hits.size(), 3,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Counts the threads that ever ran a job body: each thread bumps it once,
// the first time it runs one.
std::atomic<int> g_threads_seen{0};
void note_thread() {
  thread_local const bool seen = (g_threads_seen.fetch_add(1), true);
  (void)seen;
}

/// One job on `pool` in which each of its `threads` threads runs exactly
/// one index: every index waits until all of them have started.
template <typename Pool>
void one_index_per_thread(Pool& pool, unsigned threads) {
  std::latch all_in(threads);
  pool.parallel_for(threads, 1, [&](std::size_t) {
    note_thread();
    all_in.arrive_and_wait();
  });
}

TEST(SharedPool, ReusesItsWorkersAcrossJobs) {
  SharedPool shared(3);
  g_threads_seen = 0;
  std::thread([&] {
    for (int job = 0; job < 5; ++job) {
      one_index_per_thread(shared, 3);
    }
  }).join();
  // The calling thread plus the pool's two workers, started once.
  EXPECT_EQ(g_threads_seen.load(), 3);

  // A ThreadPool per job starts new workers every time.
  g_threads_seen = 0;
  std::thread([&] {
    for (int job = 0; job < 5; ++job) {
      ThreadPool pool(3);
      one_index_per_thread(pool, 3);
    }
  }).join();
  EXPECT_EQ(g_threads_seen.load(), 1 + 5 * 2);
}

TEST(SharedPool, BusyPoolRunsTheJobOnATemporaryOne) {
  SharedPool shared(2);
  std::vector<std::atomic<int>> outer(4);
  std::vector<std::atomic<int>> inner(4 * 50);
  // Jobs nested inside a job find the kept pool busy.
  shared.parallel_for(outer.size(), 1, [&](std::size_t i) {
    outer[i].fetch_add(1);
    shared.parallel_for(50, 7, [&](std::size_t j) {
      inner[i * 50 + j].fetch_add(1);
    });
  });
  for (const auto& h : outer) {
    EXPECT_EQ(h.load(), 1);
  }
  for (const auto& h : inner) {
    EXPECT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace nbx

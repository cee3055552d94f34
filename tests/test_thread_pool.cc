/**
 * @file
 * ThreadPool exception contract: a throwing task must never
 * std::terminate the process. Every index is still attempted, the
 * lowest-indexed exception is rethrown on the calling thread
 * (deterministically, at any thread count), and the pool remains fully
 * usable afterwards. Also the job hand-off: a worker that wakes after
 * the caller has run every index skips the closed job, and the default
 * pool size follows the affinity mask.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hh"

namespace ptolemy
{
namespace
{

TEST(ThreadPoolExceptions, ThrowingTaskRethrowsLowestIndexAtAnyThreadCount)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        constexpr std::size_t kN = 64;
        std::vector<std::atomic<int>> ran(kN);
        for (auto &r : ran)
            r.store(0);

        // Several indices throw; the lowest (index 5) must win
        // regardless of which worker reaches which index first.
        try {
            pool.parallelFor(kN, [&](std::size_t i) {
                ran[i].fetch_add(1);
                if (i == 5 || i == 23 || i == 41)
                    throw std::runtime_error("task " + std::to_string(i));
            });
            FAIL() << "expected rethrow (threads=" << threads << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 5") << "threads=" << threads;
        }

        // Deterministic executed set: every index was still attempted,
        // exactly once.
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(ran[i].load(), 1)
                << "threads=" << threads << " index " << i;

        // The pool must be fully usable after a rethrow.
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(100, [&](std::size_t i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u) << "threads=" << threads;
    }
}

TEST(ThreadPoolExceptions, SingleThrowingIndexIsIsolated)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::atomic<int> completed{0};
        EXPECT_THROW(pool.parallelForWithTid(
                         8,
                         [&](std::size_t i, unsigned) {
                             if (i == 3)
                                 throw std::logic_error("boom");
                             completed.fetch_add(1);
                         }),
                     std::logic_error)
            << "threads=" << threads;
        EXPECT_EQ(completed.load(), 7) << "threads=" << threads;
    }
}

TEST(ThreadPoolExceptions, NestedInlineSectionPropagatesToOuterIndex)
{
    ThreadPool pool(2);
    // The outer loop's index 1 runs a nested section whose inner index
    // throws; the nested inline loop rethrows into the outer task,
    // which must surface it as outer index 1's exception.
    try {
        pool.parallelFor(4, [&](std::size_t outer) {
            pool.parallelFor(4, [&](std::size_t inner) {
                if (outer == 1 && inner == 2)
                    throw std::runtime_error("outer 1 inner 2");
            });
        });
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "outer 1 inner 2");
    }
}

TEST(ThreadPool, BackToBackShortLoopsRunEveryIndexOnceInDistinctSlots)
{
    // Loops this short usually finish on the caller before a worker
    // wakes, so workers keep waking into closed jobs while the next
    // one opens. No index may run twice or be lost, and bodies running
    // at the same time must hold distinct slot ids.
    for (unsigned threads : {2u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> ran(4), busy(threads);
        for (auto &b : busy)
            b.store(0);
        for (int k = 0; k < 4000; ++k) {
            const std::size_t n = 2 + k % 3;
            for (auto &r : ran)
                r.store(0);
            pool.parallelForWithTid(n, [&](std::size_t i, unsigned tid) {
                ASSERT_LT(tid, threads);
                EXPECT_EQ(busy[tid].exchange(1), 0) << "slot " << tid;
                ran[i].fetch_add(1);
                busy[tid].store(0);
            });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(ran[i].load(), 1) << "loop " << k << " index " << i;
        }
    }
}

#ifdef __linux__
TEST(ThreadPool, DefaultSizeFollowsTheAffinityMask)
{
    // Under a one-CPU mask (a container cpuset, taskset -c 0) the
    // default pool must not count the machine's other CPUs.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned cpus = availableCpus();
    const unsigned size = ThreadPool(0).size();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(cpus, 1u);
    EXPECT_EQ(size, 1u);
    EXPECT_EQ(availableCpus(), static_cast<unsigned>(CPU_COUNT(&saved)));
}
#endif

} // namespace
} // namespace ptolemy

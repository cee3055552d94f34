/**
 * @file
 * RequestQueue tests: FIFO order, work-conserving batch collection
 * (takes what is queued, never waits for a batch to fill), admission
 * control, close-and-drain semantics and ring wrap-around. All
 * single-threaded except the close-wakes-consumer test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/request_queue.hh"

namespace ptolemy::serve
{
namespace
{

TEST(ServeQueue, CollectsInFifoOrder)
{
    std::vector<ServeRequest> reqs(5);
    RequestQueue q(8);
    for (auto &r : reqs)
        ASSERT_TRUE(q.tryPush(&r));
    std::vector<ServeRequest *> out;
    ASSERT_EQ(q.collectBatch(out, 16), reqs.size());
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(out[i], &reqs[i]) << "position " << i;
    EXPECT_EQ(q.size(), 0u);
}

TEST(ServeQueue, CollectTakesWhatIsQueuedWithoutWaiting)
{
    // No second producer: were collectBatch to wait for a full batch,
    // the second call would never return 4.
    std::vector<ServeRequest> reqs(20);
    RequestQueue q(32);
    for (auto &r : reqs)
        ASSERT_TRUE(q.tryPush(&r));
    std::vector<ServeRequest *> out;
    EXPECT_EQ(q.collectBatch(out, 16), 16u);
    EXPECT_EQ(q.size(), 4u);
    out.clear();
    EXPECT_EQ(q.collectBatch(out, 16), 4u);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.front(), &reqs[16]);
    EXPECT_EQ(out.back(), &reqs[19]);
    EXPECT_EQ(q.size(), 0u);
}

TEST(ServeQueue, TryPushRefusedWhenFullAndAfterClose)
{
    std::vector<ServeRequest> reqs(5);
    RequestQueue q(3);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(q.tryPush(&reqs[i]));
    EXPECT_FALSE(q.tryPush(&reqs[3])) << "admitted past queue depth";
    EXPECT_EQ(q.size(), 3u);

    std::vector<ServeRequest *> out;
    ASSERT_EQ(q.collectBatch(out, 1), 1u);
    EXPECT_TRUE(q.tryPush(&reqs[3])) << "freed slot not reusable";

    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.tryPush(&reqs[4])) << "admitted after close";
    EXPECT_EQ(q.size(), 3u);
}

TEST(ServeQueue, CloseDrainsAdmittedRequestsThenReturnsZero)
{
    std::vector<ServeRequest> reqs(3);
    RequestQueue q(4);
    for (auto &r : reqs)
        ASSERT_TRUE(q.tryPush(&r));
    q.close();
    q.close(); // idempotent

    std::vector<ServeRequest *> out;
    EXPECT_EQ(q.collectBatch(out, 2), 2u);
    EXPECT_EQ(q.collectBatch(out, 2), 1u);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(out[i], &reqs[i]);
    EXPECT_EQ(q.collectBatch(out, 2), 0u);
    EXPECT_EQ(q.collectBatch(out, 2), 0u);
    EXPECT_EQ(out.size(), reqs.size());
}

TEST(ServeQueue, CloseWakesConsumerBlockedOnEmptyQueue)
{
    RequestQueue q(4);
    std::atomic<bool> returned{false};
    std::size_t got = 99;
    std::thread consumer([&] {
        std::vector<ServeRequest *> out;
        got = q.collectBatch(out, 16);
        returned.store(true, std::memory_order_release);
    });
    // Nothing is queued and the queue is open, so the consumer must
    // still be blocked however long it has been running.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load(std::memory_order_acquire));
    q.close();
    consumer.join();
    EXPECT_TRUE(returned.load(std::memory_order_acquire));
    EXPECT_EQ(got, 0u);
}

TEST(ServeQueue, RingWrapsAroundKeepingFifoOrder)
{
    // Depth 5, batches of 1..5 cycling: the ring's head lands on every
    // slot many times over more than 3x depth push/pop cycles.
    constexpr std::size_t kDepth = 5;
    std::vector<ServeRequest> reqs(kDepth * 8);
    RequestQueue q(kDepth);
    std::vector<ServeRequest *> out;
    std::size_t pushed = 0, popped = 0;
    for (std::size_t cycle = 0; cycle < 4 * kDepth; ++cycle) {
        const std::size_t n = 1 + cycle % kDepth;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_TRUE(q.tryPush(&reqs[pushed++ % reqs.size()]));
        EXPECT_EQ(q.size(), n);
        out.clear();
        // Take the cycle's pushes in two collects to split the ring
        // positions differently from the pushes.
        const std::size_t first = (n + 1) / 2;
        ASSERT_EQ(q.collectBatch(out, first), first);
        if (n > first)
            ASSERT_EQ(q.collectBatch(out, kDepth), n - first);
        ASSERT_EQ(out.size(), n);
        for (ServeRequest *r : out)
            EXPECT_EQ(r, &reqs[popped++ % reqs.size()])
                << "cycle " << cycle;
        EXPECT_EQ(q.size(), 0u);
    }
    EXPECT_EQ(pushed, popped);
    EXPECT_GT(pushed, 3 * kDepth);
}

} // namespace
} // namespace ptolemy::serve

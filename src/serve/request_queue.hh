/**
 * @file
 * Bounded MPSC request queue with admission control and
 * work-conserving batch collection.
 *
 * Producers (any number of client threads) call tryPush(), which NEVER
 * blocks: when the queue is at capacity the push is refused and the
 * caller sheds the request (RequestStatus::kShed) instead of stalling.
 * The single consumer (the server's dispatcher thread) calls
 * collectBatch(), which blocks only while the queue is empty: it takes
 * whatever is already queued, up to the batch cap, and returns without
 * waiting for more. Requests that arrive while a batch computes form
 * the next batch, so batches fill under saturation and a lone request
 * on an idle tier runs at once. No request is ever held back, so none
 * can expire waiting for company.
 *
 * The ring storage is allocated once at construction; push/pop never
 * allocate.
 */

#ifndef PTOLEMY_SERVE_REQUEST_QUEUE_HH
#define PTOLEMY_SERVE_REQUEST_QUEUE_HH

#include <condition_variable>
#include <mutex>
#include <vector>

#include "serve/serve_types.hh"

namespace ptolemy::serve
{

/**
 * Fixed-capacity multi-producer single-consumer queue of borrowed
 * ServeRequest pointers (the caller owns the requests; the queue only
 * routes addresses).
 */
class RequestQueue
{
  public:
    /** @param depth admission limit (must be >= 1). */
    explicit RequestQueue(std::size_t depth);

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    /**
     * Admit @p r, or refuse without blocking. @return false when the
     * queue is full (admission control: the caller must shed) or
     * closed; true when the request was enqueued.
     */
    bool tryPush(ServeRequest *r);

    /**
     * Collect the next batch into @p out (appended; caller clears), in
     * FIFO order. Blocks until at least one request is queued or the
     * queue is closed AND drained (in which case it returns 0 — the
     * consumer should exit). Then takes the requests already queued,
     * up to @p max_batch (at least one), and returns at once: it never
     * waits for a batch to fill. @return the number of requests
     * collected.
     */
    std::size_t collectBatch(std::vector<ServeRequest *> &out,
                             std::size_t max_batch);

    /**
     * Close the queue: subsequent tryPush calls fail; collectBatch
     * keeps returning already-admitted requests until drained, then
     * returns 0. Idempotent.
     */
    void close();

    /** Instantaneous depth (racy by nature; for stats/backpressure). */
    std::size_t size() const;

    bool closed() const;

  private:
    /** Pop one request; mu must be held and count > 0. */
    ServeRequest *popLocked();

    mutable std::mutex mu;
    std::condition_variable cv;
    std::vector<ServeRequest *> ring; ///< fixed capacity, never resized
    std::size_t head = 0;             ///< index of the oldest entry
    std::size_t count = 0;            ///< entries currently queued
    bool isClosed = false;
};

} // namespace ptolemy::serve

#endif // PTOLEMY_SERVE_REQUEST_QUEUE_HH

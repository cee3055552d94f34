/**
 * @file
 * Minimal persistent thread pool for data-parallel loops.
 *
 * One process-wide pool (globalPool()) is shared by every parallel
 * section in the library: batched forward passes, tile-parallel SGEMM,
 * batched path extraction and the data-parallel trainer's per-batch
 * sample fan-out all share the same workers, so the process never
 * oversubscribes the machine. Sections that need deterministic
 * accumulation (the trainer's gradient lanes) key their accumulators
 * to loop indices, never to the executing slot — parallelForWithTid's
 * slot ids are a scratch-indexing facility, not a stable partition. parallelFor hands out
 * indices through an atomic counter so uneven per-item costs
 * self-balance, and the calling thread participates. The caller waits
 * only for the workers that joined its loop: once every index is
 * claimed the job closes, and a worker that wakes later skips it. On a
 * single core the pool degenerates to a plain serial loop with no
 * threads.
 *
 * Nested parallel sections are safe by construction: a parallelFor
 * issued from inside a pool worker, or while another parallelFor is
 * already in flight on the same pool, runs inline on the calling
 * thread. This is what lets the tile-parallel SGEMM live inside
 * Network::forwardBatch's sample-parallel loop without deadlocking on
 * the pool's single job slot.
 *
 * A throwing loop body no longer std::terminates the process: every
 * index is still attempted, the exception from the lowest task index
 * is captured, and exactly that one is rethrown on the calling thread
 * once the loop has drained — deterministic at any thread count (see
 * parallelForWithTid). This is what lets a serving tier above the pool
 * turn a poisoned request into a typed per-request error instead of a
 * process crash.
 */

#ifndef PTOLEMY_UTIL_THREAD_POOL_HH
#define PTOLEMY_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace ptolemy
{

/**
 * CPUs this thread may run on: the size of its affinity mask where the
 * platform reports one (a container cpuset or `taskset` restricts it),
 * std::thread::hardware_concurrency() otherwise — which counts every
 * CPU of the machine and so oversubscribes a restricted process.
 */
inline unsigned
availableCpus()
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
#endif
    return std::thread::hardware_concurrency();
}

namespace detail
{
/** True on threads that are pool workers (any pool). */
inline bool &
onPoolWorkerFlag()
{
    thread_local bool flag = false;
    return flag;
}

/** Slot id the current thread runs loop bodies under (0 on non-workers). */
inline unsigned &
currentTidRef()
{
    thread_local unsigned tid = 0;
    return tid;
}
} // namespace detail

/**
 * Fixed-size pool executing index-parallel loops.
 */
class ThreadPool
{
  public:
    /** @param n_threads total worker count; 0 = availableCpus(). */
    explicit ThreadPool(unsigned n_threads = 0)
    {
        unsigned n = n_threads ? n_threads : availableCpus();
        if (n == 0)
            n = 1;
        for (unsigned i = 0; i + 1 < n; ++i)
            workers.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stopping = true;
            ++generation;
        }
        cv.notify_all();
        for (auto &t : workers)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads participating in a loop (workers + caller). */
    unsigned size() const
    {
        return static_cast<unsigned>(workers.size()) + 1;
    }

    /**
     * Run fn(0..n) across the pool; returns when every index finished.
     * @p fn must be safe to call concurrently for distinct indices.
     * Runs inline when issued from a pool worker or while the pool is
     * already mid-loop (nested parallel sections never deadlock or
     * stack threads). Type erasure is a function-pointer trampoline
     * over the caller's stack frame — never a std::function — so even
     * capture-heavy loop bodies dispatch without heap allocation.
     */
    template <typename Fn>
    void
    parallelFor(std::size_t n, const Fn &fn)
    {
        parallelForWithTid(n,
                           [&fn](std::size_t i, unsigned) { fn(i); });
    }

    /**
     * Like parallelFor, but @p fn additionally receives the slot id of
     * the executing thread, a value in [0, size()). Within one call,
     * concurrently-executing invocations of @p fn always carry
     * distinct slot ids (slot 0 is the calling thread), so scratch
     * indexed by slot and owned by that call — one workspace per slot
     * — is race-free. Slot ids are NOT distinct across simultaneous
     * calls from different external threads (the loser of the busy
     * check runs inline under its own slot, typically 0): scratch
     * shared between concurrent calls must be synchronized by the
     * caller like any other shared state.
     *
     * Exception contract: a throwing task never terminates the
     * process. Every index is still attempted (workers keep draining
     * the index counter; cancelling mid-loop would make the executed
     * set scheduling-dependent), the exception thrown by the LOWEST
     * task index is captured, and that one exception is rethrown on
     * the calling thread after the loop completes — deterministically,
     * at any thread count, including the serial/nested inline paths.
     * Exceptions from higher-indexed tasks are discarded. The pool
     * stays fully usable after a rethrow.
     */
    template <typename Fn>
    void
    parallelForWithTid(std::size_t n, const Fn &fn)
    {
        if (n == 0)
            return;
        const bool nested = detail::onPoolWorkerFlag();
        if (workers.empty() || n == 1 || nested ||
            inFlight.exchange(true, std::memory_order_acquire)) {
            // Serial / nested / pool-busy: run inline on this thread,
            // under the slot id this thread already owns (its worker
            // slot inside a nested section, 0 otherwise), so nested
            // sections never alias another thread's slot scratch.
            // Mirrors the pooled exception contract: run every index,
            // rethrow the lowest-indexed exception at the end.
            const unsigned tid = detail::currentTidRef();
            std::exception_ptr ex;
            for (std::size_t i = 0; i < n; ++i) {
                try {
                    fn(i, tid);
                } catch (...) {
                    if (!ex) // ascending i: first caught = lowest index
                        ex = std::current_exception();
                }
            }
            if (ex)
                std::rethrow_exception(ex);
            return;
        }
        {
            std::lock_guard<std::mutex> lk(mu);
            jobFn = &trampoline<Fn>;
            jobCtx = const_cast<void *>(static_cast<const void *>(&fn));
            jobSize = n;
            nextIndex.store(0, std::memory_order_relaxed);
            firstEx = nullptr;
            firstExIdx = 0;
            active = 0;
            ++generation;
        }
        cv.notify_all();
        runIndices(&trampoline<Fn>, jobCtx, n, 0);
        std::exception_ptr ex;
        {
            // Every index is claimed. Close the job so a worker that
            // has not woken yet skips it, and wait only for the
            // workers that joined: a worker the OS has not scheduled
            // yet never holds the caller up.
            std::unique_lock<std::mutex> lk(mu);
            jobFn = nullptr;
            doneCv.wait(lk, [this] { return active == 0; });
            ex = firstEx;
            firstEx = nullptr;
        }
        inFlight.store(false, std::memory_order_release);
        if (ex)
            std::rethrow_exception(ex);
    }

  private:
    using JobFn = void (*)(void *ctx, std::size_t i, unsigned tid);

    template <typename Fn>
    static void
    trampoline(void *ctx, std::size_t i, unsigned tid)
    {
        (*static_cast<const Fn *>(ctx))(i, tid);
    }

    /** Record a task exception; the lowest task index wins so the
     *  winner is independent of worker scheduling. */
    void
    recordException(std::size_t i)
    {
        std::lock_guard<std::mutex> lk(mu);
        if (!firstEx || i < firstExIdx) {
            firstEx = std::current_exception();
            firstExIdx = i;
        }
    }

    void
    runIndices(JobFn fn, void *ctx, std::size_t n, unsigned tid)
    {
        for (;;) {
            const std::size_t i =
                nextIndex.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                fn(ctx, i, tid);
            } catch (...) {
                recordException(i);
            }
        }
    }

    void
    workerLoop()
    {
        detail::onPoolWorkerFlag() = true;
        const unsigned tid = workerTid.fetch_add(1) + 1; // slot 0 = caller
        detail::currentTidRef() = tid;
        std::uint64_t seen = 0;
        for (;;) {
            JobFn fn;
            void *ctx;
            std::size_t n;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk,
                        [&] { return stopping || generation != seen; });
                seen = generation;
                if (stopping)
                    return;
                fn = jobFn;
                ctx = jobCtx;
                n = jobSize;
                if (!fn)
                    continue; // closed: the caller ran every index
                ++active;
            }
            runIndices(fn, ctx, n, tid);
            {
                std::lock_guard<std::mutex> lk(mu);
                if (--active == 0)
                    doneCv.notify_one();
            }
        }
    }

    std::vector<std::thread> workers;
    std::mutex mu;
    std::condition_variable cv, doneCv;
    JobFn jobFn = nullptr;
    void *jobCtx = nullptr;
    std::size_t jobSize = 0;
    std::atomic<std::size_t> nextIndex{0};
    std::atomic<unsigned> workerTid{0};
    std::atomic<bool> inFlight{false};
    std::exception_ptr firstEx;  ///< lowest-index task exception (under mu)
    std::size_t firstExIdx = 0;
    unsigned active = 0; ///< workers that joined the open job (under mu)
    std::uint64_t generation = 0;
    bool stopping = false;
};

/**
 * The process-wide pool every library-internal parallel section uses.
 * Sized from PTOLEMY_NUM_THREADS when set (1 forces fully serial
 * execution), availableCpus() otherwise. This is the one place the
 * library reads that variable, once, on first use; workers idle on a
 * condition variable between loops.
 */
inline ThreadPool &
globalPool()
{
    static ThreadPool pool([] {
        if (const char *s = std::getenv("PTOLEMY_NUM_THREADS")) {
            const long n = std::strtol(s, nullptr, 10);
            if (n > 0)
                return static_cast<unsigned>(n);
        }
        return 0u; // availableCpus()
    }());
    return pool;
}

} // namespace ptolemy

#endif // PTOLEMY_UTIL_THREAD_POOL_HH

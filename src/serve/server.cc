#include "serve/server.hh"

#include <exception>
#include <span>

#include "telemetry/hub.hh"

namespace ptolemy::serve
{

DetectorServer::DetectorServer(const core::DetectorModel &model,
                               ServeConfig cfg_,
                               core::ServeFaultPlan *faults_)
    : cfg(cfg_), faults(faults_), queue(cfg_.queueDepth),
      curModel(std::shared_ptr<const core::DetectorModel>(), &model)
{
    if (cfg.maxBatch == 0)
        cfg.maxBatch = 1;
    batch.reserve(cfg.maxBatch);
    live.reserve(cfg.maxBatch);
    xs.reserve(cfg.maxBatch);
    outs.resize(cfg.maxBatch);
    dispatcher = std::thread([this] { dispatchLoop(); });
}

DetectorServer::~DetectorServer()
{
    stop();
}

RequestStatus
DetectorServer::submit(ServeRequest &r)
{
    r.submittedAt = Clock::now();
    if (cfg.defaultDeadlineMicros != 0 &&
        r.deadline == Clock::time_point::max())
        r.deadline = r.submittedAt +
                     std::chrono::microseconds(cfg.defaultDeadlineMicros);
    r.seq = seqCounter.fetch_add(1, std::memory_order_relaxed);
    counters.submitted.fetch_add(1, std::memory_order_relaxed);

    // Mark queued BEFORE the push: once the pointer is in the queue the
    // dispatcher may resolve it at any moment, and a late kQueued store
    // would stomp the terminal status.
    r.status.store(RequestStatus::kQueued, std::memory_order_release);
    if (!queue.tryPush(&r)) {
        resolve(r, RequestStatus::kShed); // admission control: never block
        return RequestStatus::kShed;
    }
    return RequestStatus::kQueued;
}

RequestStatus
DetectorServer::wait(ServeRequest &r)
{
    std::unique_lock<std::mutex> lk(doneMu);
    doneCv.wait(lk, [&] {
        return isResolved(r.status.load(std::memory_order_acquire));
    });
    return r.status.load(std::memory_order_acquire);
}

void
DetectorServer::resolve(ServeRequest &r, RequestStatus s)
{
    switch (s) {
    case RequestStatus::kOk:
        counters.ok.fetch_add(1, std::memory_order_relaxed);
        break;
    case RequestStatus::kShed:
        counters.shed.fetch_add(1, std::memory_order_relaxed);
        break;
    case RequestStatus::kDeadlineExceeded:
        counters.deadlineExceeded.fetch_add(1, std::memory_order_relaxed);
        break;
    default:
        counters.errors.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    r.completedAt = Clock::now();
    r.status.store(s, std::memory_order_release);
    // Empty critical section: a waiter that read the old status is
    // either already sleeping (the notify wakes it) or still holds
    // doneMu (we block here until it sleeps). Either way no lost wake.
    { std::lock_guard<std::mutex> lk(doneMu); }
    doneCv.notify_all();
}

std::shared_ptr<const core::DetectorModel>
DetectorServer::pinModel() const
{
    std::lock_guard<std::mutex> lk(modelMu);
    return curModel;
}

bool
DetectorServer::swapModel(const std::string &path)
{
    std::shared_ptr<const core::DetectorModel> cur = pinModel();
    try {
        // Build the replacement off to the side: the dispatcher keeps
        // serving the published model the whole time.
        auto fresh = std::make_shared<core::DetectorModel>(
            cur->network(), cur->config(), cur->numClasses());
        if (faults)
            faults->onSwapLoad();
        fresh->load(path); // throws ModelLoadError on any corruption
        {
            std::lock_guard<std::mutex> lk(modelMu);
            curModel = std::move(fresh);
        }
        counters.swaps.fetch_add(1, std::memory_order_relaxed);
        return true;
    } catch (const core::ModelLoadError &) {
        counters.failedSwaps.fetch_add(1, std::memory_order_relaxed);
        return false; // old model keeps serving
    }
}

void
DetectorServer::stop()
{
    queue.close();
    if (dispatcher.joinable())
        dispatcher.join();
}

void
DetectorServer::dispatchLoop()
{
    pinned = pinModel();
    session = std::make_unique<core::DetectorSession>(*pinned);
    session->attachTelemetry(cfg.telemetry);
    for (;;) {
        batch.clear();
        if (queue.collectBatch(batch, cfg.maxBatch) == 0)
            return; // closed and drained
        executeBatch(batch);
    }
}

void
DetectorServer::executeBatch(std::vector<ServeRequest *> &formed)
{
    counters.batches.fetch_add(1, std::memory_order_relaxed);
    if (faults)
        faults->onBatchFormed(++batchSeq); // may stall (injected delay)

    // Pin the latest published model: a swap lands between batches,
    // never inside one.
    {
        std::shared_ptr<const core::DetectorModel> now = pinModel();
        if (now != pinned) {
            pinned = std::move(now);
            session = std::make_unique<core::DetectorSession>(*pinned);
            // The hub outlives any one model: windows, reference and
            // drift state carry across the swap.
            session->attachTelemetry(cfg.telemetry);
        }
    }

    // Triage: expire, poison and shape-check BEFORE the fused batch, so
    // one bad request can't take its batchmates down with it.
    const Clock::time_point now = Clock::now();
    const nn::Shape &in_shape = pinned->network().inputShape();
    live.clear();
    xs.clear();
    for (ServeRequest *r : formed) {
        r->dispatchedAt = now;
        if (r->deadline < now) {
            resolve(*r, RequestStatus::kDeadlineExceeded);
            continue;
        }
        if (faults && faults->poisoned(r->seq)) {
            try {
                faults->throwPoison(r->seq);
            } catch (const std::exception &) {
                r->error = "poisoned request";
                resolve(*r, RequestStatus::kError);
            }
            continue;
        }
        // detectBatch would throw for the whole batch; fail just this.
        if (r->x == nullptr || r->x->shape() != in_shape) {
            r->error = "input shape mismatch";
            resolve(*r, RequestStatus::kError);
            continue;
        }
        live.push_back(r);
        xs.push_back(r->x);
    }
    if (live.empty())
        return;

    // One fused detectBatch for the survivors. A throw from inside the
    // fan-out (the pool rethrows the lowest-index task exception here)
    // fails the whole batch to kError — the server itself survives.
    bool ok = true;
    try {
        session->detectBatch(
            std::span<const nn::Tensor *const>(xs.data(), xs.size()),
            std::span<core::Decision>(outs.data(), live.size()),
            cfg.pool);
    } catch (const std::exception &) {
        ok = false;
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (ok) {
            live[i]->decision = outs[i]; // capacity-reusing copy
            resolve(*live[i], RequestStatus::kOk);
        } else {
            live[i]->error = "batch execution failed";
            resolve(*live[i], RequestStatus::kError);
        }
    }
    // Seal on the dispatcher between batches: ingest is quiescent here
    // (the fused batch above has fully joined), which is exactly the
    // hub's seal-side contract.
    if (cfg.telemetry != nullptr)
        cfg.telemetry->maybeSeal();
}

} // namespace ptolemy::serve

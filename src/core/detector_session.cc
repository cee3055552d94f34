#include "detector_session.hh"

#include <cassert>
#include <stdexcept>

#include "telemetry/hub.hh"
#include "util/thread_pool.hh"

namespace ptolemy::core
{

DetectorSession::DetectorSession(const DetectorModel &model)
    : mdl(&model), slots(1)
{
}

void
DetectorSession::detectInto(const nn::Tensor &x, Decision &d, Slot &s)
{
    // The fused per-sample pipeline: inference, extraction, canary
    // comparison and forest scoring back-to-back against one slot's
    // scratch, so the recorded activations are still cache-hot when
    // the extractor ranks them. Bit-identical to the historical
    // sequential pipeline: same float ops, same order.
    mdl->network().inferInto(x, s.rec);
    d.predictedClass = s.rec.predictedClass();
    mdl->extractor().extractInto(s.rec, s.ws, s.path);
    path::computeSimilarityInto(
        s.path, mdl->classPaths().classPath(d.predictedClass),
        mdl->extractor().layout(), d.features);
    d.features.toVectorInto(s.feat);
    d.score = mdl->forest().predictProb(s.feat);
    // A poisoned (non-finite) score is flagged, fail-safe. Telemetry
    // below routes it to its typed poison counter (never a bin), so
    // sketches and quantiles stay uncorrupted and the drift detector
    // reports the poisoning as its own event class.
    d.adversarial = mdl->isAdversarial(d.score);
    if (hub != nullptr) {
        // Shard index = this slot's index, so concurrent loop bodies
        // (distinct slots by the pool's contract) write disjoint
        // shards. Integer counters only: Decisions and all sealed
        // aggregates stay bit-identical at any thread count.
        hub->ingest(static_cast<unsigned>(&s - slots.data()), d.score,
                    d.predictedClass, d.adversarial,
                    1.0 - d.features.overall, &s.path);
    }
}

void
DetectorSession::requireInputShape(const nn::Tensor *x) const
{
    // The conv and fc kernels trust the layer's declared shapes, so a
    // mis-shaped input would read past its tensor: refuse it up front.
    if (x == nullptr || x->shape() != mdl->network().inputShape())
        throw std::invalid_argument("DetectorSession: null input or input "
                                    "shape differs from the network's");
}

Decision
DetectorSession::detect(const nn::Tensor &x)
{
    requireInputShape(&x);
    Decision d;
    detectInto(x, d, slots[0]);
    return d;
}

void
DetectorSession::detectBatch(std::span<const nn::Tensor *const> xs,
                             std::span<Decision> out, ThreadPool *pool)
{
    // Documented contract (see header): the spans must pair up
    // one-to-one. A length mismatch is a caller bug — debug-assert so
    // it trips loudly in instrumented builds, and throw a typed error
    // in release builds rather than writing out of bounds.
    assert(xs.size() == out.size() &&
           "detectBatch: requests/decisions span lengths differ");
    if (xs.size() != out.size())
        throw std::invalid_argument(
            "DetectorSession::detectBatch: xs.size() != out.size()");
    for (const nn::Tensor *x : xs)
        requireInputShape(x);
    // Empty batch: explicit no-op — no pool touch, no slot growth.
    if (xs.empty())
        return;
    if (!pool)
        pool = &globalPool();
    // Grow (never shrink) the slot table to the pool width so warmed
    // buffers survive pool changes.
    if (slots.size() < pool->size())
        slots.resize(pool->size());
    pool->parallelForWithTid(xs.size(), [&](std::size_t i, unsigned tid) {
        detectInto(*xs[i], out[i], slot(tid));
    });
}

void
DetectorSession::detectBatch(const std::vector<nn::Tensor> &xs,
                             std::vector<Decision> &out, ThreadPool *pool)
{
    thread_local std::vector<const nn::Tensor *> ptrs;
    ptrs.clear();
    for (const auto &x : xs)
        ptrs.push_back(&x);
    out.resize(xs.size());
    detectBatch(std::span<const nn::Tensor *const>(ptrs.data(),
                                                   ptrs.size()),
                std::span<Decision>(out.data(), out.size()), pool);
}

std::vector<double>
DetectorSession::featuresFor(const nn::Network::Record &rec,
                             path::ExtractionTrace *trace)
{
    Slot &s = slots[0];
    mdl->extractor().extractInto(rec, s.ws, s.path, trace);
    const auto &pc = mdl->classPaths().classPath(rec.predictedClass());
    return path::computeSimilarity(s.path, pc, mdl->extractor().layout())
        .toVector();
}

double
DetectorSession::score(const nn::Network::Record &rec)
{
    return mdl->forest().predictProb(featuresFor(rec));
}

} // namespace ptolemy::core

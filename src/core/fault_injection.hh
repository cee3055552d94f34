/**
 * @file
 * Fault injection: transient hardware faults (paper Sec. VIII) and
 * serving-layer fault plans.
 *
 * The paper notes that "Ptolemy could also be used for detecting the
 * execution errors of DNN accelerators caused by transient hardware
 * errors". A single-event upset flipping a bit in a feature map changes
 * the downstream activation path the same way an adversarial input does,
 * so the same canary-path comparison flags it.
 *
 * This module implements the experiment: replay a forward pass with one
 * injected bit flip in a chosen intermediate tensor and run a fault
 * campaign measuring how many mispredicting faulty executions the
 * detector rejects.
 *
 * It also hosts ServeFaultPlan, the deterministic failure campaign the
 * serving tier (serve::DetectorServer) runs against itself: stalled
 * batches, poisoned requests that throw during request execution, and
 * swap-during-load faults. The serving robustness contract under any
 * such plan is that every submitted request still resolves to exactly
 * one typed status — never a crash, deadlock or lost request.
 */

#ifndef PTOLEMY_CORE_FAULT_INJECTION_HH
#define PTOLEMY_CORE_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/detector.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"

namespace ptolemy::core
{

/** One transient fault: flip @p bit of element @p element of the output
 *  of graph node @p nodeId. */
struct FaultSpec
{
    int nodeId = 0;
    std::size_t element = 0;
    int bit = 23; ///< bit of the IEEE-754 float representation
};

/**
 * Forward pass with a single-event upset injected: identical to an
 * inference pass except the fault is applied to the chosen node's
 * output before its consumers read it. Read-only on the network (the
 * campaign runs against the detector's shared const view).
 */
nn::Network::Record forwardWithFault(const nn::Network &net,
                                     const nn::Tensor &x,
                                     const FaultSpec &fault);

/** Fault-campaign outcome. */
struct FaultCampaignResult
{
    std::size_t injections = 0;      ///< faults injected
    std::size_t mispredictions = 0;  ///< faults that flipped the class
    std::size_t detected = 0;        ///< mispredictions the detector flagged
    std::size_t falseAlarms = 0;     ///< benign-outcome faults flagged

    /** Detection rate over class-flipping faults. */
    double
    detectionRate() const
    {
        return mispredictions == 0
            ? 0.0
            : static_cast<double>(detected) / mispredictions;
    }
};

/**
 * Inject @p num_injections random high-order bit flips into random
 * feature-map elements during inferences over @p inputs, and score each
 * faulty execution through @p sess. The session's model must already be
 * fitted (class paths + classifier); faults whose execution mispredicts
 * count as "detected" when DetectorModel::isAdversarial flags the
 * score — the same cut the session serves with, non-finite included.
 */
FaultCampaignResult runFaultCampaign(DetectorSession &sess,
                                     const nn::Dataset &inputs,
                                     int num_injections,
                                     std::uint64_t seed = 0xFA017);

/** Façade wrapper over the session overload. */
FaultCampaignResult runFaultCampaign(Detector &det,
                                     const nn::Dataset &inputs,
                                     int num_injections,
                                     std::uint64_t seed = 0xFA017);

/**
 * Typed error a poisoned request throws while the server executes it.
 * The serving tier must resolve exactly that request to
 * RequestStatus::kError and keep every other request in the batch —
 * and the server itself — fully healthy.
 */
class PoisonedRequestError : public std::runtime_error
{
  public:
    explicit PoisonedRequestError(std::uint64_t request_seq)
        : std::runtime_error("poisoned request #" +
                             std::to_string(request_seq))
    {
    }
};

/**
 * Deterministic serving-layer fault plan, keyed on the server's batch
 * and request ordinals so a campaign is reproducible independent of
 * timing. All hooks are called by serve::DetectorServer; a null plan
 * (the default) injects nothing. Counters are atomics so submitter
 * threads and the dispatch thread may share one plan.
 *
 * Fault classes:
 *  - Stalled batches: every delayEveryNthBatch-th batch sleeps
 *    batchDelayMicros between dequeue and execution, so queued
 *    requests pile up (exercises admission-control shedding) and
 *    deadlines expire at batch-formation time.
 *  - Poisoned requests: every poisonEveryNthRequest-th submitted
 *    request throws PoisonedRequestError when the server starts
 *    executing it (the same propagation path as a throw from inside
 *    the fused inference batch, which the thread pool rethrows on the
 *    dispatching thread; see ThreadPool's exception contract).
 *  - Swap-during-load: the next failNextSwaps model swaps fail
 *    mid-load; the server must keep serving the old model.
 */
struct ServeFaultPlan
{
    std::size_t delayEveryNthBatch = 0;   ///< 0 = off
    std::uint32_t batchDelayMicros = 0;   ///< stall length
    std::size_t poisonEveryNthRequest = 0; ///< 0 = off
    std::atomic<std::size_t> failNextSwaps{0}; ///< swap-during-load arm

    // Injection counters (for campaign accounting in tests/benches).
    std::atomic<std::size_t> delaysInjected{0};
    std::atomic<std::size_t> poisonsInjected{0};
    std::atomic<std::size_t> swapFaultsInjected{0};

    /** Dispatcher hook, called once per formed batch (1-based batch
     *  ordinal): sleeps when the batch is selected for a stall. */
    void onBatchFormed(std::uint64_t batch_seq);

    /** True when the submit-ordinal keyed request is poisoned. */
    bool
    poisoned(std::uint64_t request_seq) const
    {
        return poisonEveryNthRequest != 0 &&
               (request_seq + 1) % poisonEveryNthRequest == 0;
    }

    /** Throws PoisonedRequestError for the selected request (the
     *  server calls this as it starts executing the request). */
    void throwPoison(std::uint64_t request_seq);

    /** Swap hook: consumes one armed swap fault and throws, or
     *  returns silently when none is armed. */
    void onSwapLoad();
};

} // namespace ptolemy::core

#endif // PTOLEMY_CORE_FAULT_INJECTION_HH

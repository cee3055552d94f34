#include "fault_injection.hh"

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/rng.hh"

namespace ptolemy::core
{

nn::Network::Record
forwardWithFault(const nn::Network &net, const nn::Tensor &x,
                 const FaultSpec &fault)
{
    nn::Network::Record rec;
    rec.input = x;
    rec.outputs.reserve(net.numNodes());
    for (int id = 0; id < net.numNodes(); ++id) {
        const auto &node = net.node(id);
        std::vector<const nn::Tensor *> ins;
        ins.reserve(node.inputs.size());
        for (int in_id : node.inputs)
            ins.push_back(in_id < 0 ? &rec.input : &rec.outputs[in_id]);
        rec.outputs.emplace_back();
        net.layerAt(id).forwardInto(ins, rec.outputs.back(), false);

        if (id == fault.nodeId && !rec.outputs[id].empty()) {
            // Single-event upset: flip one bit of the stored value.
            auto &t = rec.outputs[id];
            const std::size_t e = fault.element % t.size();
            std::uint32_t raw;
            std::memcpy(&raw, &t[e], sizeof(raw));
            raw ^= (1u << (fault.bit & 31));
            float flipped;
            std::memcpy(&flipped, &raw, sizeof(flipped));
            // A flipped exponent can produce inf/NaN; a real accelerator
            // would saturate its fixed-point value instead.
            if (!std::isfinite(flipped))
                flipped = flipped > 0 ? 1e6f : -1e6f;
            t[e] = flipped;
        }
    }
    return rec;
}

FaultCampaignResult
runFaultCampaign(DetectorSession &sess, const nn::Dataset &inputs,
                 int num_injections, std::uint64_t seed)
{
    Rng rng(seed);
    FaultCampaignResult result;
    const nn::Network &net = sess.model().network(); // const online view
    nn::Network::Record predScratch;

    for (int i = 0; i < num_injections; ++i) {
        const auto &sample = inputs[rng.below(inputs.size())];
        const std::size_t clean_pred =
            net.inferPredict(sample.input, predScratch);

        FaultSpec fault;
        fault.nodeId = static_cast<int>(rng.below(net.numNodes() - 1));
        fault.element = rng.below(
            std::max<std::size_t>(1, net.nodeOutputShape(fault.nodeId)
                                         .numel()));
        // Exponent bits: large magnitude changes, the damaging SEU class
        // (low-order mantissa flips are almost always masked).
        fault.bit = 24 + static_cast<int>(rng.below(7));

        auto rec = forwardWithFault(net, sample.input, fault);
        ++result.injections;
        const bool mispredicts = rec.predictedClass() != clean_pred;
        const bool flagged = sess.model().isAdversarial(sess.score(rec));
        if (mispredicts) {
            ++result.mispredictions;
            if (flagged)
                ++result.detected;
        } else if (flagged) {
            ++result.falseAlarms;
        }
    }
    return result;
}

FaultCampaignResult
runFaultCampaign(Detector &det, const nn::Dataset &inputs,
                 int num_injections, std::uint64_t seed)
{
    return runFaultCampaign(det.session(), inputs, num_injections, seed);
}

void
ServeFaultPlan::onBatchFormed(std::uint64_t batch_seq)
{
    if (delayEveryNthBatch == 0 || batch_seq % delayEveryNthBatch != 0)
        return;
    delaysInjected.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(batchDelayMicros));
}

void
ServeFaultPlan::throwPoison(std::uint64_t request_seq)
{
    poisonsInjected.fetch_add(1, std::memory_order_relaxed);
    throw PoisonedRequestError(request_seq);
}

void
ServeFaultPlan::onSwapLoad()
{
    // Consume one armed fault atomically (several threads may swap).
    std::size_t armed = failNextSwaps.load(std::memory_order_relaxed);
    while (armed > 0) {
        if (failNextSwaps.compare_exchange_weak(
                armed, armed - 1, std::memory_order_relaxed)) {
            swapFaultsInjected.fetch_add(1, std::memory_order_relaxed);
            throw ModelLoadError("injected swap-during-load fault");
        }
    }
}

} // namespace ptolemy::core

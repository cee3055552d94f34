#include "trainer.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace ptolemy::nn
{

std::vector<EpochStats>
Trainer::train(Network &net, const Dataset &data)
{
    std::vector<EpochStats> history;
    trainInto(net, data, history);
    return history;
}

void
Trainer::trainInto(Network &net, const Dataset &data,
                   std::vector<EpochStats> &history)
{
    history.clear();
    if (data.empty())
        return; // nothing to fit; also keeps the shuffle below(0)-free

    ThreadPool &pool = config.pool ? *config.pool : globalPool();
    const auto &params = net.flatParams();

    velocity.resize(params.size());
    for (std::size_t pi = 0; pi < params.size(); ++pi)
        velocity[pi].assign(params[pi].value->size(), 0.0f);

    const std::size_t batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(config.batchSize));
    // Lane count depends only on the batch size — never on the pool —
    // so the gradient reduction order is thread-count invariant.
    const std::size_t nlanes = std::min(batch, kMaxGradLanes);
    const std::size_t state_sz = net.trainStateSize();
    const std::size_t per_lane = (batch + nlanes - 1) / nlanes;

    slots.resize(pool.size());
    lanes.resize(nlanes);
    for (auto &ln : lanes) {
        net.allocParamGrads(ln.paramGrads);
        ln.trainState.assign(state_sz * per_lane, 0.0f);
    }

    Rng rng(config.shuffleSeed);
    order.resize(data.size());
    std::iota(order.begin(), order.end(), 0);

    double lr = config.learningRate;

    auto apply_step = [&](std::size_t batch_n) {
        if (batch_n == 0)
            return;
        const double scale = 1.0 / static_cast<double>(batch_n);
        for (std::size_t pi = 0; pi < params.size(); ++pi) {
            auto &val = *params[pi].value;
            auto &grd = *params[pi].grad;
            auto &vel = velocity[pi];
            for (std::size_t i = 0; i < val.size(); ++i) {
                const double g = grd[i] * scale +
                                 config.weightDecay * val[i];
                vel[i] = static_cast<float>(config.momentum * vel[i] -
                                            lr * g);
                val[i] += vel[i];
            }
        }
        // The pool has joined: repack once per step, before the next
        // batch's forwards read the panels.
        net.weightsChanged();
        net.zeroGrads();
    };

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        // Fisher-Yates with our deterministic RNG (the i > 1 bound keeps
        // every Rng::below argument positive, even for 1-sample data).
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);

        double loss_sum = 0.0;
        std::size_t correct = 0;
        net.zeroGrads();

        for (std::size_t k0 = 0; k0 < order.size(); k0 += batch) {
            const std::size_t bn = std::min(batch, order.size() - k0);

            // Fan the batch out: lane l walks samples l, l+nlanes, ...
            // in order, on whichever pool slot picked it up. Records,
            // arenas and loss scratch are per-slot (pure scratch);
            // gradient and stat accumulators are per-lane
            // (deterministic).
            pool.parallelForWithTid(nlanes, [&](std::size_t lane,
                                                unsigned tid) {
                // A nested/inline run may carry a foreign slot id;
                // clamping is safe there because inline sections are
                // single-threaded by construction.
                Slot &sc = slots[tid < slots.size() ? tid : 0];
                Lane &ln = lanes[lane];
                ln.lossSum = 0.0;
                ln.correct = 0;
                for (auto &g : ln.paramGrads)
                    std::fill(g.begin(), g.end(), 0.0f);
                for (std::size_t j = lane; j < bn; j += nlanes) {
                    const Sample &s = data[order[k0 + j]];
                    net.forwardInto(s.input, sc.rec, /*train=*/true,
                                    sc.arena);
                    if (sc.rec.predictedClass() == s.label)
                        ++ln.correct;
                    softmaxCrossEntropyInto(sc.rec.logits(), s.label,
                                            sc.lg);
                    ln.lossSum += sc.lg.loss;
                    net.backwardParams(sc.rec, sc.lg.grad, sc.arena,
                                       ln.paramGrads);
                    if (state_sz > 0)
                        net.collectTrainState(
                            sc.rec,
                            ln.trainState.data() + (j / nlanes) * state_sz);
                }
            });

            // Deterministic reductions: lanes in lane order.
            for (const Lane &ln : lanes) {
                loss_sum += ln.lossSum;
                correct += ln.correct;
            }
            for (const Lane &ln : lanes)
                for (std::size_t pi = 0; pi < params.size(); ++pi) {
                    auto &dst = *params[pi].grad;
                    const auto &src = ln.paramGrads[pi];
                    for (std::size_t i = 0; i < dst.size(); ++i)
                        dst[i] += src[i];
                }
            // Deferred layer-state updates fold in sample order, which
            // reproduces the serial EMA-update sequence exactly.
            if (state_sz > 0)
                for (std::size_t j = 0; j < bn; ++j)
                    net.applyTrainState(lanes[j % nlanes].trainState.data() +
                                        (j / nlanes) * state_sz);
            apply_step(bn);
        }

        EpochStats st{loss_sum / data.size(),
                      static_cast<double>(correct) / data.size()};
        history.push_back(st);
        if (config.verbose) {
            std::printf("[train %s] epoch %d loss=%.4f acc=%.3f lr=%.4f\n",
                        net.name().c_str(), epoch, st.avgLoss,
                        st.trainAccuracy, lr);
        }
        if (config.lrDecayEvery > 0 && (epoch + 1) % config.lrDecayEvery == 0)
            lr *= config.lrDecay;
    }
}

double
Trainer::evaluate(Network &net, const Dataset &data)
{
    if (data.empty())
        return 0.0;
    std::size_t correct = 0;
    Network::Record rec;
    for (const auto &s : data) {
        net.forwardInto(s.input, rec, /*train=*/false);
        if (rec.predictedClass() == s.label)
            ++correct;
    }
    return static_cast<double>(correct) / data.size();
}

} // namespace ptolemy::nn

#include "init.hh"

#include <cmath>
#include <vector>

#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/network.hh"
#include "util/rng.hh"

namespace ptolemy::nn
{

void
heInit(Network &net, std::uint64_t seed)
{
    Rng rng(seed);
    for (int id = 0; id < net.numNodes(); ++id) {
        Layer &layer = net.layerAt(id);
        if (layer.kind() == LayerKind::Conv) {
            auto &conv = static_cast<Conv2d &>(layer);
            const double fan_in = static_cast<double>(conv.inChannels()) *
                                  conv.kernel() * conv.kernel();
            const double std_dev = std::sqrt(2.0 / fan_in);
            std::vector<float> w(conv.weights().size());
            for (float &v : w)
                v = static_cast<float>(rng.gaussian(0.0, std_dev));
            conv.setWeights(w);
        } else if (layer.kind() == LayerKind::Linear) {
            auto &lin = static_cast<Linear &>(layer);
            const double std_dev = std::sqrt(2.0 / lin.inFeatures());
            for (float &w : lin.weights())
                w = static_cast<float>(rng.gaussian(0.0, std_dev));
        }
    }
}

} // namespace ptolemy::nn

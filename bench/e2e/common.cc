#include "common.hh"

#include <cstring>

#include "util/stats.hh"

namespace e2e
{

void
RunResult::add(const std::string &name, const char *unit, double v)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.samples.push_back(v);
            return;
        }
    }
    metrics.push_back({name, unit, {v}});
}

bool
sameDecision(const ptolemy::core::Decision &a,
             const ptolemy::core::Decision &b)
{
    auto bits = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    if (a.predictedClass != b.predictedClass || !bits(a.score, b.score) ||
        !bits(a.features.overall, b.features.overall) ||
        a.features.perLayer.size() != b.features.perLayer.size())
        return false;
    for (std::size_t i = 0; i < a.features.perLayer.size(); ++i)
        if (!bits(a.features.perLayer[i], b.features.perLayer[i]))
            return false;
    return true;
}

double
aucOf(const std::vector<ptolemy::core::Decision> &ds,
      const std::vector<int> &labels)
{
    std::vector<double> scores;
    for (const auto &d : ds)
        scores.push_back(d.score);
    return ptolemy::aucScore(scores, labels);
}

} // namespace e2e

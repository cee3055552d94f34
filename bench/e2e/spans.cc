#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace e2e
{

SpanBuffer::SpanBuffer(std::vector<std::string> names_, std::size_t capacity)
    : names(std::move(names_)), spans(capacity), t0(Clock::now())
{
}

std::int64_t
SpanBuffer::claim(std::size_t n)
{
    if (used + n > spans.size())
        return -1;
    const std::size_t first = used;
    used += n;
    return static_cast<std::int64_t>(first);
}

std::vector<SpanTotals>
SpanBuffer::totals() const
{
    // Covered[p] = length of the union of p's children, clipped to p.
    std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> kids;
    for (std::size_t i = 0; i < used; ++i)
        if (spans[i].parent >= 0)
            kids.emplace_back(spans[i].parent, spans[i].start, spans[i].end);
    std::sort(kids.begin(), kids.end());
    std::vector<std::int64_t> covered(used, 0);
    for (std::size_t k = 0; k < kids.size();) {
        const auto p = std::get<0>(kids[k]);
        const Span &ps = spans[static_cast<std::size_t>(p)];
        std::int64_t cur_lo = 0, cur_hi = -1, sum = 0;
        for (; k < kids.size() && std::get<0>(kids[k]) == p; ++k) {
            const auto lo = std::max(std::get<1>(kids[k]), ps.start);
            const auto hi = std::min(std::get<2>(kids[k]), ps.end);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                sum += std::max<std::int64_t>(0, cur_hi - cur_lo);
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        sum += std::max<std::int64_t>(0, cur_hi - cur_lo);
        covered[static_cast<std::size_t>(p)] = sum;
    }

    std::vector<SpanTotals> out(names.size());
    for (std::size_t n = 0; n < names.size(); ++n)
        out[n].name = names[n];
    for (std::size_t i = 0; i < used; ++i) {
        const Span &s = spans[i];
        SpanTotals &t = out[s.name];
        const double dur = static_cast<double>(s.end - s.start);
        t.totalUs += dur * 1e-3;
        t.selfUs += (dur - static_cast<double>(covered[i])) * 1e-3;
    }
    return out;
}

bool
SpanBuffer::writeChromeTrace(const std::string &path, bool async,
                             std::size_t max_spans) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    const std::size_t n = std::min(used, max_spans);
    bool first = true;
    auto sep = [&] {
        if (!first)
            std::fputs(",\n", f);
        first = false;
    };
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans[i];
        const char *name = names[s.name].c_str();
        const double ts = static_cast<double>(s.start) * 1e-3;
        const double te = static_cast<double>(s.end) * 1e-3;
        if (async) {
            sep();
            std::fprintf(f,
                         "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                         "\"id\":%lld,\"ts\":%.3f,\"pid\":1,\"tid\":0}",
                         name, static_cast<long long>(s.request), ts);
            sep();
            std::fprintf(f,
                         "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                         "\"id\":%lld,\"ts\":%.3f,\"pid\":1,\"tid\":0}",
                         name, static_cast<long long>(s.request), te);
        } else {
            sep();
            std::fprintf(f,
                         "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                         "\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                         "\"args\":{\"request\":%lld,\"parent\":%lld}}",
                         name, ts, te - ts, s.tid,
                         static_cast<long long>(s.request),
                         static_cast<long long>(s.parent));
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace e2e

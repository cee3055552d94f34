/**
 * @file
 * In-memory span buffer for the traced run: spans are written into a
 * buffer sized before the traced leg starts, so recording allocates
 * nothing, and are turned into per-layer self times and a Chrome trace
 * file only after measuring stops.
 */

#ifndef PTOLEMY_BENCH_E2E_SPANS_HH
#define PTOLEMY_BENCH_E2E_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"

namespace e2e
{

/** One timed interval at a layer boundary. */
struct Span
{
    std::uint32_t name = 0;   ///< index into SpanBuffer::names
    std::uint32_t tid = 0;    ///< pool slot (detect) or 0 (serve)
    std::int64_t start = 0;   ///< ns since the buffer's origin
    std::int64_t end = 0;
    std::int64_t parent = -1; ///< index of the enclosing span, or -1
    std::int64_t request = -1; ///< request id shared by a request's spans
};

/** Aggregate of every span with one name. */
struct SpanTotals
{
    std::string name;
    double totalUs = 0.0; ///< sum of durations
    double selfUs = 0.0;  ///< minus the part child spans cover
};

class SpanBuffer
{
  public:
    /** @param names span names; Span::name indexes this list.
     *  @param capacity spans the buffer holds. */
    SpanBuffer(std::vector<std::string> names, std::size_t capacity);

    /** @p t as ns since the buffer was built. */
    std::int64_t ns(Clock::time_point t) const { return nanosBetween(t0, t); }

    /** Claim @p n consecutive spans; returns the first index, or -1
     *  when the buffer cannot hold them. Single-threaded: the claiming
     *  thread hands disjoint indices to any workers. */
    std::int64_t claim(std::size_t n);

    Span &at(std::int64_t i) { return spans[static_cast<std::size_t>(i)]; }

    /** Per-name totals and self times over the recorded spans. */
    std::vector<SpanTotals> totals() const;

    /**
     * Write the first @p max_spans spans as Chrome trace JSON. With
     * @p async, spans are nestable async events keyed by their request
     * id (serve requests overlap on one thread); otherwise they are
     * complete events on their pool slot's track. @return success.
     */
    bool writeChromeTrace(const std::string &path, bool async,
                          std::size_t max_spans) const;

  private:
    std::vector<std::string> names;
    std::vector<Span> spans;
    std::size_t used = 0;
    Clock::time_point t0;
};

} // namespace e2e

#endif // PTOLEMY_BENCH_E2E_SPANS_HH

#include <span>

#include "core/detector_session.hh"
#include "path/class_path.hh"
#include "path/extractor.hh"
#include "spans.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace e2e
{

using namespace ptolemy;

namespace
{

constexpr std::size_t kChunk = 64;
/** Latency limit of one 64-request chunk for goodput_rps. */
constexpr double kChunkLimitMs = 100.0;
constexpr double kWarmSeconds = 0.5;

/** Cycles the request pool in fixed-size chunks. */
class ChunkCursor
{
  public:
    ChunkCursor(const std::vector<nn::Tensor> &inputs, std::size_t chunk)
        : n(inputs.size()), len(chunk)
    {
        for (std::size_t k = 0; k < n + chunk; ++k)
            ptrs.push_back(&inputs[k % n]);
    }

    /** Pool index of the next chunk's first request. */
    std::size_t offset() const { return pos; }

    std::span<const nn::Tensor *const>
    next()
    {
        const std::span<const nn::Tensor *const> s(ptrs.data() + pos, len);
        pos = (pos + len) % n;
        return s;
    }

  private:
    std::size_t n, len, pos = 0;
    std::vector<const nn::Tensor *> ptrs;
};

std::size_t
mismatches(const std::vector<core::Decision> &got, std::size_t offset,
           const std::vector<core::Decision> &ref)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        bad += !sameDecision(got[i], ref[(offset + i) % ref.size()]);
    return bad;
}

enum ReplaySpan : std::uint32_t
{
    kBatch,
    kDetect,
    kForward,
    kExtract,
    kSimilarity,
    kForest,
};

/** Spans one replayed request records: detect and its four stages. */
constexpr std::size_t kSpansPerRequest = 5;

/** Per-pool-slot scratch and counters of the traced replay. */
struct ReplaySlot
{
    nn::Network::Record rec;
    path::ExtractionWorkspace ws;
    BitVector path;
    std::vector<double> feat;
    path::ExtractionTrace trace;
    std::size_t psums = 0, scanPasses = 0, heapPops = 0, bits = 0;
};

} // namespace

double
replayStages(const World &w, const std::vector<core::Decision> &ref,
             std::size_t chunk, double seconds, std::size_t max_requests,
             const std::string &trace_file, RunResult &out)
{
    SpanBuffer spans({"batch", "detect", "forward", "extract", "similarity",
                      "forest"},
                     (max_requests / chunk + 1) *
                         (1 + chunk * kSpansPerRequest));
    const core::DetectorModel &m = *w.model;
    ThreadPool &pool = globalPool();
    std::vector<ReplaySlot> slots(pool.size());
    std::vector<core::Decision> got(chunk);
    ChunkCursor cur(w.inputs, chunk);

    auto set = [&spans](std::int64_t at, std::uint32_t name, unsigned tid,
                        Clock::time_point a, Clock::time_point b,
                        std::int64_t parent, std::int64_t req) {
        Span &s = spans.at(at);
        s.name = name;
        s.tid = tid;
        s.start = spans.ns(a);
        s.end = spans.ns(b);
        s.parent = parent;
        s.request = req;
    };

    // One chunk of DetectorSession::detectInto, stage by stage. With
    // base < 0 nothing is recorded (warm-up).
    auto runChunk = [&](std::int64_t base, std::int64_t first_req) {
        const auto xs = cur.next();
        pool.parallelForWithTid(chunk, [&](std::size_t i, unsigned tid) {
            ReplaySlot &s = slots[tid];
            core::Decision &d = got[i];
            const auto t0 = Clock::now();
            m.network().inferInto(*xs[i], s.rec);
            const auto t1 = Clock::now();
            d.predictedClass = s.rec.predictedClass();
            m.extractor().extractInto(s.rec, s.ws, s.path, &s.trace);
            const auto t2 = Clock::now();
            path::computeSimilarityInto(
                s.path, m.classPaths().classPath(d.predictedClass),
                m.extractor().layout(), d.features);
            d.features.toVectorInto(s.feat);
            const auto t3 = Clock::now();
            d.score = m.forest().predictProb(s.feat);
            const auto t4 = Clock::now();
            if (base < 0)
                return;
            s.psums += s.trace.sum([](const auto &l) {
                return l.psumsConsidered;
            });
            s.scanPasses += s.trace.sum([](const auto &l) {
                return l.selectScanPasses;
            });
            s.heapPops += s.trace.sum([](const auto &l) {
                return l.heapPops;
            });
            s.bits += s.trace.pathBits;
            const std::int64_t req = first_req + static_cast<std::int64_t>(i);
            const std::int64_t at =
                base + 1 + static_cast<std::int64_t>(i * kSpansPerRequest);
            set(at, kDetect, tid, t0, t4, base, req);
            set(at + 1, kForward, tid, t0, t1, at, req);
            set(at + 2, kExtract, tid, t1, t2, at, req);
            set(at + 3, kSimilarity, tid, t2, t3, at, req);
            set(at + 4, kForest, tid, t3, t4, at, req);
        });
    };

    runChunk(-1, 0); // warm the slot scratch
    std::size_t n = 0, chunks = 0, bad = 0;
    const auto start = Clock::now();
    while (secondsBetween(start, Clock::now()) < seconds) {
        const std::int64_t base = spans.claim(1 + chunk * kSpansPerRequest);
        if (base < 0)
            break;
        const std::size_t offset = cur.offset();
        const auto b0 = Clock::now();
        runChunk(base, static_cast<std::int64_t>(n));
        set(base, kBatch, 0, b0, Clock::now(), -1,
            static_cast<std::int64_t>(chunks));
        bad += mismatches(got, offset, ref);
        n += chunk;
        ++chunks;
    }
    const double elapsed = secondsBetween(start, Clock::now());

    out.attempted += n;
    out.failed += bad;
    if (bad)
        out.fail("traced replay differs from detectBatch on " +
                 std::to_string(bad) + " of " + std::to_string(n) +
                 " requests");
    if (n == 0) {
        out.fail("traced replay ran no requests");
        return 0.0;
    }

    const auto tot = spans.totals();
    const double dn = static_cast<double>(n);
    std::size_t psums = 0, scans = 0, pops = 0, bits = 0;
    for (const auto &s : slots) {
        psums += s.psums;
        scans += s.scanPasses;
        pops += s.heapPops;
        bits += s.bits;
    }
    const double macs = static_cast<double>(path::networkMacs(m.network()));
    const double fwd_us = tot[kForward].totalUs / dn;
    out.add("nn.forward_us", "us", fwd_us);
    out.add("nn.macs", "count", macs);
    out.add("nn.gmacs_per_s", "GMAC/s", macs / fwd_us * 1e-3);
    out.add("path.extract_us", "us", tot[kExtract].totalUs / dn);
    out.add("path.psums", "count", static_cast<double>(psums) / dn);
    out.add("path.scan_passes", "count", static_cast<double>(scans) / dn);
    out.add("path.heap_pops", "count", static_cast<double>(pops) / dn);
    out.add("path.bits", "count", static_cast<double>(bits) / dn);
    out.add("path.similarity_us", "us", tot[kSimilarity].totalUs / dn);
    out.add("classify.forest_us", "us", tot[kForest].totalUs / dn);
    out.add("core.batch_us", "us",
            tot[kBatch].totalUs / static_cast<double>(chunks));
    out.add("core.pool_busy_frac", "frac",
            tot[kDetect].totalUs /
                (tot[kBatch].totalUs * static_cast<double>(pool.size())));
    for (const auto &t : tot)
        out.add("self." + t.name + "_us", "us", t.selfUs / dn);
    if (!trace_file.empty() &&
        !spans.writeChromeTrace(trace_file, false, 200000))
        out.fail("cannot write " + trace_file);
    return dn / elapsed;
}

void
runDetect(const World &w, const std::vector<core::Decision> &ref,
          const Options &opt, RunResult &out)
{
    core::DetectorSession sess(*w.model);
    std::vector<core::Decision> got(kChunk);
    const std::span<core::Decision> gspan(got.data(), got.size());
    ChunkCursor cur(w.inputs, kChunk);

    std::size_t warm_chunks = 0;
    const auto warm0 = Clock::now();
    while (warm_chunks < 3 ||
           secondsBetween(warm0, Clock::now()) < kWarmSeconds) {
        sess.detectBatch(cur.next(), gspan);
        ++warm_chunks;
    }

    // One measured leg: closed-loop chunks for @p secs. Every chunk's
    // Decisions are checked against the sequential reference.
    std::vector<double> lat_ms;
    lat_ms.reserve(1 << 16);
    auto leg = [&](double secs) {
        lat_ms.clear();
        std::size_t n = 0, bad = 0, on_time = 0;
        const std::size_t allocs0 = allocCount();
        const auto start = Clock::now();
        while (secondsBetween(start, Clock::now()) < secs) {
            const std::size_t offset = cur.offset();
            const auto t0 = Clock::now();
            sess.detectBatch(cur.next(), gspan);
            const double ms = secondsBetween(t0, Clock::now()) * 1e3;
            lat_ms.push_back(ms);
            on_time += ms <= kChunkLimitMs ? kChunk : 0;
            bad += mismatches(got, offset, ref);
            n += kChunk;
        }
        const double elapsed = secondsBetween(start, Clock::now());
        const std::size_t allocs = allocCount() - allocs0;
        out.attempted += n;
        out.failed += bad;
        if (bad)
            out.fail("detectBatch differs from detect() on " +
                     std::to_string(bad) + " measured requests");
        const double rps = static_cast<double>(n - bad) / elapsed;
        out.add("core.allocs_per_batch", "count",
                static_cast<double>(allocs) /
                    static_cast<double>(lat_ms.size()));
        out.add("detect_rps", "1/s", rps);
        out.add("goodput_rps", "1/s", static_cast<double>(on_time) / elapsed);
        out.add("p50_ms", "ms", percentile(lat_ms, 50));
        out.add("p99_ms", "ms", percentile(lat_ms, 99));
        return rps;
    };

    if (!opt.trace) {
        for (int r = 0; r < opt.reps; ++r)
            leg(opt.seconds / opt.reps);
        return;
    }

    // Room for the traced half at 1.5x the untraced rate.
    const double untraced = leg(opt.seconds / 2);
    const double traced = replayStages(
        w, ref, kChunk, opt.seconds / 2,
        static_cast<std::size_t>(untraced * opt.seconds / 2 * 1.5),
        opt.traceFile, out);
    out.add("trace.untraced_rps", "1/s", untraced);
    out.add("trace.traced_rps", "1/s", traced);
    out.add("trace.overhead_frac", "frac", 1.0 - traced / untraced);
}

} // namespace e2e

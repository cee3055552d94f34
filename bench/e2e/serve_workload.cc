#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "serve/server.hh"
#include "spans.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "workloads.hh"

namespace e2e
{

using namespace ptolemy;
using serve::RequestStatus;

namespace
{

/** A served request must complete within this of its due time to
 *  count toward goodput_rps. Under overload the full queue (256) holds
 *  every request for about 256 / capacity, 7 ms on a quiet host; the
 *  limit sits well above that, so that goodput follows capacity
 *  rather than falling off a cliff whenever the host slows by 30%. */
constexpr double kLimitMs = 25.0;
constexpr double kWarmSeconds = 0.5;
/** Request slots cycled by the generator; far more than the default
 *  queue depth plus a batch, so re-arming a slot never waits. */
constexpr std::size_t kSlab = 4096;
/** Requests a traced leg turns into spans, and the traced replay's
 *  request cap; bounds the span buffers' memory. */
constexpr std::size_t kMaxTracedRequests = 40000;

/** What the generator learned about one request. All times are ns
 *  since the leg's origin. */
struct ReqLog
{
    std::int64_t due = 0;       ///< scheduled send time
    std::int64_t sendStart = 0; ///< submit() called
    std::int64_t sendEnd = 0;   ///< submit() returned
    std::int64_t submitted = 0; ///< ServeRequest::submittedAt
    std::int64_t completed = 0; ///< ServeRequest::completedAt
    std::int64_t harvested = 0; ///< generator saw the terminal status
    std::uint32_t input = 0;
    std::uint32_t depth = 0;    ///< queue depth before submit (traced)
    RequestStatus status = RequestStatus::kPending;
    bool wrong = false;         ///< kOk but Decision differs from detect()
};

/** Poisson arrival offsets (ns) covering @p secs at @p rate. */
std::vector<std::int64_t>
poissonSchedule(double rate, double secs, Rng &rng)
{
    std::vector<std::int64_t> off;
    off.reserve(static_cast<std::size_t>(rate * secs * 1.1) + 16);
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= secs)
            return off;
        off.push_back(static_cast<std::int64_t>(t * 1e9));
    }
}

/**
 * One open-loop leg: the calling thread sleeps until each request is
 * due, sends it (overdue ones back to back) and, while it waits, harvests
 * finished requests in send order, as a client that polls for its
 * replies would; a slab slot is re-armed only once harvested. Fills
 * logs[k] for request k; @p logs is sized by the caller so the leg
 * itself allocates nothing.
 */
void
runLeg(serve::DetectorServer &server, const World &w,
       const std::vector<core::Decision> &ref,
       const std::vector<std::int64_t> &schedule, std::size_t first_input,
       bool sample_depth, std::vector<serve::ServeRequest> &slab,
       std::vector<ReqLog> &logs)
{
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    auto ns = [t0](Clock::time_point t) { return nanosBetween(t0, t); };

    std::size_t next = 0; // oldest request not yet harvested
    auto resolved = [&](std::size_t j) {
        return serve::isResolved(
            slab[j % slab.size()].status.load(std::memory_order_acquire));
    };
    auto harvest = [&] {
        serve::ServeRequest &r = slab[next % slab.size()];
        RequestStatus s = r.status.load(std::memory_order_acquire);
        if (!serve::isResolved(s))
            s = server.wait(r);
        ReqLog &l = logs[next++];
        l.status = s;
        l.submitted = ns(r.submittedAt);
        l.completed = ns(r.completedAt);
        l.harvested = ns(Clock::now());
        l.wrong = s == RequestStatus::kOk &&
                  !sameDecision(r.decision, ref[l.input]);
    };

    for (std::size_t k = 0; k < schedule.size(); ++k) {
        const auto due = t0 + std::chrono::nanoseconds(schedule[k]);
        for (;;) {
            const auto now = Clock::now();
            if (now >= due)
                break;
            if (next < k && resolved(next))
                harvest();
            else
                std::this_thread::sleep_until(due);
        }
        while (next + slab.size() <= k)
            harvest();
        ReqLog &l = logs[k];
        l.due = schedule[k];
        l.input = static_cast<std::uint32_t>((first_input + k) %
                                             w.inputs.size());
        if (sample_depth)
            l.depth = static_cast<std::uint32_t>(server.queueDepth());
        serve::ServeRequest &r = slab[k % slab.size()];
        r.reset(w.inputs[l.input]);
        l.sendStart = ns(Clock::now());
        server.submit(r);
        l.sendEnd = ns(Clock::now());
    }
    while (next < schedule.size())
        harvest();
}

/** Outcome counts over the requests due in one window of a leg. */
struct Window
{
    std::size_t sent = 0, ok = 0, onTime = 0, shed = 0, late = 0,
                errors = 0, wrong = 0;
    std::vector<double> latMs; ///< kOk, due -> completed
};

Window
windowOf(const std::vector<ReqLog> &logs, std::int64_t lo, std::int64_t hi)
{
    Window win;
    for (const ReqLog &l : logs) {
        if (l.due < lo || l.due >= hi)
            continue;
        ++win.sent;
        switch (l.status) {
        case RequestStatus::kOk: {
            if (l.wrong) {
                ++win.wrong;
                break;
            }
            const double ms = static_cast<double>(l.completed - l.due) * 1e-6;
            ++win.ok;
            win.onTime += ms <= kLimitMs;
            win.latMs.push_back(ms);
            break;
        }
        case RequestStatus::kShed: ++win.shed; break;
        case RequestStatus::kDeadlineExceeded: ++win.late; break;
        default: ++win.errors; break;
        }
    }
    return win;
}

void
account(const Window &win, RunResult &out)
{
    // A shed is the tier's designed answer to overload, not a failed
    // operation: it is reported (serve.shed) and costs goodput.
    out.attempted += win.sent;
    const std::size_t failed = win.late + win.errors + win.wrong;
    out.failed += failed;
    if (win.wrong)
        out.fail(std::to_string(win.wrong) +
                 " kOk Decisions differ from detect()");
    if (win.late + win.errors)
        out.fail(std::to_string(win.late + win.errors) +
                 " requests ended in an error or deadline status");
}

/** The end-to-end metrics of one measured window of @p secs. */
void
reportWindow(const Window &win, double secs, RunResult &out)
{
    account(win, out);
    out.add("detect_rps", "1/s", static_cast<double>(win.ok) / secs);
    out.add("goodput_rps", "1/s", static_cast<double>(win.onTime) / secs);
    out.add("p50_ms", "ms", percentile(win.latMs, 50));
    out.add("p99_ms", "ms", percentile(win.latMs, 99));
    out.add("serve.shed_frac", "frac",
            static_cast<double>(win.shed) /
                static_cast<double>(std::max<std::size_t>(win.sent, 1)));
}

} // namespace

void
runServe(const World &w, const std::vector<core::Decision> &ref,
         const Options &opt, std::uint64_t seed, RunResult &out)
{
#ifdef __linux__
    // The generator sleeps to each due time rather than spinning, so it
    // leaves the cores to the tier; a 1 ns timer slack (default 50 us)
    // keeps those sleeps from ending late. The server's dispatcher,
    // started below, inherits it, so its batch window closes on time.
    prctl(PR_SET_TIMERSLACK, 1UL);
#endif
    const double rate = w.spec->offeredRps;
    Rng rng(seed * 0xD1B54A32D192ED03ull + 0xA77);
    serve::DetectorServer server(*w.model);
    std::vector<serve::ServeRequest> slab(kSlab);
    std::vector<ReqLog> logs;
    std::size_t next_input = 0;

    /** Server-side counts over one leg. */
    struct Leg
    {
        std::size_t allocs = 0;
        serve::ServeStatsSnapshot before, after;
        double batches() const
        {
            return static_cast<double>(
                std::max<std::uint64_t>(after.batches - before.batches, 1));
        }
    };
    auto leg = [&](double secs, bool sample_depth) {
        const auto sched = poissonSchedule(rate, secs, rng);
        logs.assign(sched.size(), ReqLog{});
        Leg l;
        l.before = server.stats();
        const std::size_t allocs0 = allocCount();
        runLeg(server, w, ref, sched, next_input, sample_depth, slab, logs);
        l.allocs = allocCount() - allocs0;
        l.after = server.stats();
        next_input += sched.size();
        return l;
    };

    leg(kWarmSeconds, false); // warm the server, session and slab

    if (!opt.trace) {
        const Leg l = leg(opt.seconds, false);
        const double rep_s = opt.seconds / opt.reps;
        for (int r = 0; r < opt.reps; ++r)
            reportWindow(
                windowOf(logs, static_cast<std::int64_t>(r * rep_s * 1e9),
                         static_cast<std::int64_t>((r + 1) * rep_s * 1e9)),
                rep_s, out);
        out.add("serve.allocs", "count", static_cast<double>(l.allocs));
        out.add("core.allocs_per_batch", "count",
                static_cast<double>(l.allocs) / l.batches());
    } else {
        // Untraced leg, then a traced leg (queue depth sampled at every
        // send, spans derived from the request log afterwards), then a
        // traced replay of the detection stages on 16-request batches.
        const double leg_s = opt.seconds * 0.4;
        leg(leg_s, false);
        const Window a = windowOf(logs, 0, INT64_MAX);
        reportWindow(a, leg_s, out);
        const double untraced = static_cast<double>(a.ok) / leg_s;

        const Leg l = leg(leg_s, true);
        const Window b = windowOf(logs, 0, INT64_MAX);
        account(b, out);
        const double traced = static_cast<double>(b.ok) / leg_s;

        std::vector<double> in_server, depth, gen_late;
        double submit_sum = 0.0;
        for (const ReqLog &r : logs) {
            submit_sum += static_cast<double>(r.sendEnd - r.sendStart) * 1e-3;
            depth.push_back(static_cast<double>(r.depth));
            gen_late.push_back(static_cast<double>(r.sendStart - r.due) * 1e-3);
            if (r.status == RequestStatus::kOk)
                in_server.push_back(
                    static_cast<double>(r.completed - r.submitted) * 1e-3);
        }
        const double sent =
            static_cast<double>(std::max<std::size_t>(logs.size(), 1));
        out.add("serve.mean_batch", "count",
                static_cast<double>(l.after.ok - l.before.ok) / l.batches());
        out.add("serve.in_server_p50_us", "us", percentile(in_server, 50));
        out.add("serve.submit_us", "us", submit_sum / sent);
        out.add("serve.queue_depth_p99", "count", percentile(depth, 99));
        out.add("serve.gen_late_p99_us", "us", percentile(gen_late, 99));
        out.add("serve.shed", "count",
                static_cast<double>(l.after.shed - l.before.shed));
        out.add("serve.deadline_exceeded", "count",
                static_cast<double>(l.after.deadlineExceeded -
                                    l.before.deadlineExceeded));
        out.add("serve.errors", "count",
                static_cast<double>(l.after.errors - l.before.errors));
        out.add("serve.allocs", "count", static_cast<double>(l.allocs));
        out.add("core.allocs_per_batch", "count",
                static_cast<double>(l.allocs) / l.batches());
        out.add("trace.untraced_rps", "1/s", untraced);
        out.add("trace.traced_rps", "1/s", traced);
        out.add("trace.overhead_frac", "frac", 1.0 - traced / untraced);

        // Request spans: due -> submit() -> in the server -> harvest.
        // in_server starts when submit() returns, so a request's spans
        // nest; serve.in_server_p50_us above uses submittedAt.
        const std::size_t n = std::min(logs.size(), kMaxTracedRequests);
        SpanBuffer spans({"request", "gen_late", "submit", "in_server",
                          "harvest"},
                         n * 5);
        for (std::size_t k = 0; k < n; ++k) {
            const ReqLog &r = logs[k];
            const std::int64_t in0 = std::max(r.sendEnd, r.submitted);
            const std::int64_t in1 = std::max(in0, r.completed);
            const std::int64_t done = std::max(r.harvested, in1);
            const std::int64_t bounds[5][2] = {{r.due, done},
                                               {r.due, r.sendStart},
                                               {r.sendStart, r.sendEnd},
                                               {in0, in1},
                                               {in1, done}};
            const std::int64_t at = spans.claim(5);
            for (std::uint32_t s = 0; s < 5; ++s) {
                Span &sp = spans.at(at + s);
                sp.name = s;
                sp.start = bounds[s][0];
                sp.end = bounds[s][1];
                sp.parent = s == 0 ? -1 : at;
                sp.request = static_cast<std::int64_t>(k);
            }
        }
        const double traced_n =
            static_cast<double>(std::max<std::size_t>(n, 1));
        for (const auto &t : spans.totals())
            out.add("self." + t.name + "_us", "us", t.selfUs / traced_n);
        if (!opt.traceFile.empty() &&
            !spans.writeChromeTrace(opt.traceFile, true, 100000))
            out.fail("cannot write " + opt.traceFile);

        replayStages(w, ref, 16, opt.seconds * 0.2, kMaxTracedRequests, "",
                     out);
    }

    server.stop();
    const auto st = server.stats();
    if (!st.conserved())
        out.fail("serve stats not conserved: submitted " +
                 std::to_string(st.submitted) + ", resolved " +
                 std::to_string(st.resolved()));
}

} // namespace e2e

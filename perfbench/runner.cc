#include "runner.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "sim/baseline.hh"
#include "sim/metrics.hh"
#include "trace/mix.hh"

namespace perfbench {

using namespace dbpsim;

namespace {

/** Length of one timed run() slice in the traced run. A divisor of
 *  the 500 k-cycle profiling interval, so slices end on boundaries. */
constexpr Cycle kSliceCycles = 10'000;

/** Traced-run state of one simulation. */
struct Tracing
{
    TraceStats &stats;
    SpanLog &log;
    std::uint32_t runSpan;
};

/** Time one run(n) call as a span named @p name. */
std::int64_t
timedRun(System &sys, Cycle n, Tracing &tr, const char *name)
{
    Span s;
    s.name = name;
    s.parent = tr.runSpan;
    s.cycle = sys.cpuCycle();
    s.startNs = nowNs();
    sys.run(n);
    s.endNs = nowNs();
    tr.log.add(s);
    return s.endNs - s.startNs;
}

/**
 * Run @p n CPU cycles in slices aligned to kSliceCycles. The one tick
 * that closes a profiling interval (the tick from cycle k*I - 1 to
 * k*I) runs as its own run(1) step, timed apart from the slices.
 */
void
advanceTraced(System &sys, Cycle n, Tracing &tr)
{
    const Cycle interval = sys.params().profileIntervalCpu;
    const Cycle end = sys.cpuCycle() + n;
    while (sys.cpuCycle() < end) {
        const Cycle now = sys.cpuCycle();
        const Cycle slice_end = std::min(end, (now / kSliceCycles + 1) *
                                                  kSliceCycles);
        const Cycle boundary = (now / interval + 1) * interval;
        const bool crosses = boundary <= slice_end;
        const Cycle plain = (crosses ? boundary - 1 : slice_end) - now;
        if (plain > 0) {
            std::int64_t ns = timedRun(sys, plain, tr, "slice");
            if (plain == kSliceCycles)
                tr.stats.sliceNs.push_back(ns);
        }
        if (crosses)
            tr.stats.boundary.add(timedRun(sys, 1, tr, "boundary"));
    }
}

/** One simulation of @p run; traced when @p tr is non-null. */
RunResult
execute(const Workload &w, const RunSpec &run, Tracing *tr)
{
    RunResult out;
    TraceStats scratch;
    TraceStats &stats = tr ? tr->stats : scratch;
    // Declared before the System so they outlive it.
    CommandProbe cmd_probe(stats.check);
    PartitionProbe part_probe(stats.check);
    auto owned = makeSources(w, run);
    std::vector<std::unique_ptr<TimedSource>> timed;
    std::vector<TraceSource *> sources;
    for (auto &s : owned) {
        if (tr) {
            timed.push_back(std::make_unique<TimedSource>(*s, stats.next));
            sources.push_back(timed.back().get());
        } else {
            sources.push_back(s.get());
        }
    }
    System sys(run.params, sources);

    if (tr) {
        // The probes take the checker's place on both hooks and
        // forward to it, so its event stream stays complete.
        cmd_probe.forwardTo(sys.protocolChecker());
        part_probe.forwardTo(sys.protocolChecker());
        for (unsigned ch = 0; ch < sys.numControllers(); ++ch)
            sys.controllerAt(ch).setCommandObserver(&cmd_probe);
        sys.osMemory().setPartitionObserver(&part_probe);
    }

    // As System::runAndMeasure().
    std::vector<InstCount> before;
    std::vector<InstCount> after;
    const std::int64_t r0 = nowNs();
    if (tr) {
        advanceTraced(sys, w.rc.warmupCpu, *tr);
        before = sys.instructionSnapshot();
        advanceTraced(sys, w.rc.measureCpu, *tr);
        after = sys.instructionSnapshot();
    } else {
        sys.run(w.rc.warmupCpu);
        before = sys.instructionSnapshot();
        sys.run(w.rc.measureCpu);
        after = sys.instructionSnapshot();
    }
    out.runS = static_cast<double>(nowNs() - r0) * 1e-9;

    if (run.alone()) {
        // As runAloneBaseline(): close the run-spanning interval.
        const std::int64_t b0 = nowNs();
        sys.closeIntervalNow();
        if (tr)
            stats.boundary.add(nowNs() - b0);
    }

    for (std::size_t c = 0; c < after.size(); ++c)
        out.ipc.push_back(static_cast<double>(after[c] - before[c]) /
                          static_cast<double>(w.rc.measureCpu));
    out.counters = harvest(sys);

    stats.commandCycles += cmd_probe.commandCycles;
    stats.colorSetChanges += part_probe.colorSetChanges;
    return out;
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0
                     : std::exp(log_sum / static_cast<double>(v.size()));
}

/** WS/HS/MS per scheme over the mixes, and the alone-IPC gmean. */
Outcomes
computeOutcomes(const Workload &w, const std::vector<RunResult> &runs)
{
    Outcomes o;
    std::map<std::string, double> alone_ipc;
    std::vector<double> alone_all;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        if (w.runs[i].alone()) {
            alone_ipc[w.runs[i].app] = runs[i].ipc.at(0);
            alone_all.push_back(runs[i].ipc.at(0));
        }
    }
    o.aloneIpcGmean = geomean(alone_all);
    // A workload of alone runs only has no shared runs: each run is
    // its own baseline, so WS = HS = MS = 1 (the Outcomes defaults).
    if (w.mixes.empty())
        return o;

    std::map<std::string, std::vector<SystemMetrics>> by_scheme;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const RunSpec &r = w.runs[i];
        if (r.alone())
            continue;
        std::vector<double> alone;
        for (const auto &app : mixByName(r.mix).apps)
            alone.push_back(alone_ipc.at(app));
        by_scheme[r.scheme].push_back(
            computeMetrics(alone, runs[i].ipc));
    }
    auto gm = [&](const std::string &scheme, double SystemMetrics::*f) {
        std::vector<double> v;
        for (const auto &m : by_scheme.at(scheme))
            v.push_back(m.*f);
        return geomean(v);
    };
    o.ws = gm("DBP", &SystemMetrics::weightedSpeedup);
    o.hs = gm("DBP", &SystemMetrics::harmonicSpeedup);
    o.ms = gm("DBP", &SystemMetrics::maxSlowdown);
    o.wsUbp = gm("UBP", &SystemMetrics::weightedSpeedup);
    o.msUbp = gm("UBP", &SystemMetrics::maxSlowdown);
    return o;
}

/** FNV-1a over every simulated value of the rep. */
std::uint64_t
digestOf(const Workload &w, const std::vector<RunResult> &runs)
{
    std::ostringstream os;
    char buf[32];
    for (std::size_t i = 0; i < runs.size(); ++i) {
        os << w.runs[i].label << ":ipc=";
        for (double x : runs[i].ipc) {
            std::snprintf(buf, sizeof buf, "%.17g,", x);
            os << buf;
        }
        os << ';' << runs[i].counters.canonical() << '\n';
    }
    return hashString(os.str());
}

} // namespace

RepResult
runRep(const Workload &w, SpanLog *log)
{
    RepResult rep;
    const std::int64_t t0 = nowNs();
    std::uint32_t rep_span = 0;
    if (log) {
        Span s;
        s.name = "rep";
        s.label = w.name;
        s.startNs = t0;
        rep_span = log->add(s);
    }

    for (const RunSpec &run : w.runs) {
        RunResult r;
        if (log) {
            Span s;
            s.name = "run";
            s.label = run.label;
            s.parent = rep_span;
            s.startNs = nowNs();
            std::uint32_t id = log->add(s);
            Tracing tr{rep.trace, *log, id};
            r = execute(w, run, &tr);
            log->close(id, nowNs());
        } else {
            r = execute(w, run, nullptr);
        }
        rep.total.add(r.counters);
        rep.runS += r.runS;
        (run.alone() ? rep.aloneRunS : rep.sharedRunS) += r.runS;
        rep.runs.push_back(std::move(r));
    }
    rep.outcomes = computeOutcomes(w, rep.runs);
    rep.digest = digestOf(w, rep.runs);
    rep.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    if (log)
        log->close(rep_span, nowNs());
    return rep;
}

double
setupPass(const Workload &w)
{
    double total = 0.0;
    for (const RunSpec &run : w.runs) {
        const std::int64_t t0 = nowNs();
        auto owned = makeSources(w, run);
        std::vector<TraceSource *> sources;
        for (auto &s : owned)
            sources.push_back(s.get());
        System sys(run.params, sources);
        total += static_cast<double>(nowNs() - t0) * 1e-9;
    }
    return total;
}

} // namespace perfbench

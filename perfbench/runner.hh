/**
 * @file
 * Drives one workload through the public System API: set-up, the
 * warm-up and measured run() calls, counter harvest, and the paper's
 * metrics over the results. One call to runRep() performs every
 * simulation of the workload once.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <vector>

#include "harvest.hh"
#include "probes.hh"
#include "workload.hh"

namespace perfbench {

/** What one run produced. */
struct RunResult
{
    std::vector<double> ipc; ///< measured-window IPC per core.
    Counters counters;
    double runS = 0.0; ///< host: inside System::run.
};

/** Host time the traced run splits out by layer boundary. */
struct TraceStats
{
    CallTimer next;     ///< TraceSource::next (the decorator).
    CallTimer check;    ///< checker calls behind the observers.
    CallTimer boundary; ///< steps that close a profiling interval.
    std::vector<std::int64_t> sliceNs; ///< full-length run() slices.
    std::uint64_t commandCycles = 0;
    std::uint64_t colorSetChanges = 0;
};

/** The paper's metrics (simulated) over one rep. */
struct Outcomes
{
    double ws = 1.0; ///< DBP weighted speedup, gmean over mixes.
    double hs = 1.0; ///< DBP harmonic speedup, gmean over mixes.
    double ms = 1.0; ///< DBP maximum slowdown, gmean over mixes.
    double wsUbp = 1.0;
    double msUbp = 1.0;
    double aloneIpcGmean = 0.0; ///< over the workload's alone runs.

    double wsGainPct() const { return 100.0 * (ws - wsUbp) / wsUbp; }
    double msDropPct() const { return 100.0 * (msUbp - ms) / msUbp; }
};

/** Every simulation of a workload, once. */
struct RepResult
{
    std::vector<RunResult> runs; ///< in Workload::runs order.
    Counters total;
    Outcomes outcomes;
    std::uint64_t digest = 0; ///< over every simulated value.
    double wallS = 0.0;
    double runS = 0.0;
    double aloneRunS = 0.0;
    double sharedRunS = 0.0;
    TraceStats trace; ///< filled by traced reps only.

    /** Simulated CPU cycles per host second inside System::run. */
    double mcyclesPerS() const
    {
        return static_cast<double>(total.cpuCycles) / runS * 1e-6;
    }
};

/**
 * Run every simulation of @p w once. With @p log non-null the rep is
 * traced: sources are decorated, observers attached, run() is sliced
 * and spans are recorded into @p log.
 */
RepResult runRep(const Workload &w, SpanLog *log);

/**
 * Construct every trace source and System of @p w, and nothing else;
 * returns the host seconds spent constructing.
 */
double setupPass(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH

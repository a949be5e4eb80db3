/**
 * @file
 * The one way to run a mix: runMixJob() simulates one workload mix
 * under one scheme and returns the paper's metrics, dividing by
 * alone-run IPCs from an AloneBaselineCache (see sim/baseline.hh).
 * Campaigns, tests, examples and perfbench all call it.
 *
 * Thread-safety: runMixJob() keeps no state of its own, so any number
 * of threads may call it at once. The only shared mutable state is the
 * baseline cache, which synchronizes internally; share one cache
 * between calls so a process never repeats an alone run.
 */

#ifndef DBPSIM_SIM_EXPERIMENT_HH
#define DBPSIM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/baseline.hh"
#include "sim/metrics.hh"
#include "sim/schemes.hh"
#include "sim/system.hh"
#include "trace/mix.hh"

namespace dbpsim {

/**
 * Hardware and measurement window of a mix run.
 */
struct RunConfig
{
    /** Hardware/system baseline; scheduler/partition come per scheme. */
    SystemParams base;

    /** Warm-up CPU cycles (excluded from measurement). */
    // dbplint:allow(cycle-literal) reason=scaled-down run-window default (see README "Notes on scale"), overridden by config key warmup
    Cycle warmupCpu = 2'000'000;

    /** Measured CPU cycles. */
    // dbplint:allow(cycle-literal) reason=scaled-down run-window default (see README "Notes on scale"), overridden by config key measure
    Cycle measureCpu = 5'000'000;

    /** Base seed for trace-generator instantiation. */
    std::uint64_t seedBase = 42;
};

/**
 * Result of one mix under one scheme.
 */
struct MixResult
{
    std::string mixName;
    std::string schemeName;
    SystemMetrics metrics;
    std::vector<double> aloneIpc;
    std::vector<double> sharedIpc;
    std::vector<double> rowHitRate;   ///< per thread, shared run.
    std::vector<double> readLatency;  ///< per thread, bus cycles.
    std::uint64_t pagesMigrated = 0;
    std::uint64_t repartitions = 0;

    /**
     * DRAM protocol checker violations during the shared run, or -1
     * when the checker was not enabled for this configuration.
     */
    std::int64_t checkViolations = -1;
};

/**
 * Run @p mix under @p scheme on @p rc's hardware: the stateless
 * per-job simulation the campaign executor fans out. Trace seeds
 * derive from (rc.seedBase, mix.name, scheme.name) via jobSeed(), so
 * the result is a pure function of its arguments. Alone-run IPCs come
 * from @p baselines, which memoizes them thread-safely.
 */
MixResult runMixJob(const RunConfig &rc, const WorkloadMix &mix,
                    const Scheme &scheme,
                    AloneBaselineCache &baselines);

} // namespace dbpsim

#endif // DBPSIM_SIM_EXPERIMENT_HH

/**
 * @file
 * Shared plumbing for the figure/table campaigns: default run
 * configuration (scaled-down but shape-preserving relative to the
 * paper's billion-instruction runs), the standard mix subsets, and
 * small metric helpers. Every campaign accepts key=value overrides
 * through the dbpsim_bench driver (see README).
 */

#ifndef DBPSIM_BENCH_BENCH_COMMON_HH
#define DBPSIM_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "common/table.hh"
#include "sim/campaign.hh"
#include "trace/mix.hh"

namespace dbpsim {
namespace bench {

/**
 * Build the default evaluation RunConfig from parsed overrides.
 *
 * Defaults: the paper's 8-core 2x2x8 DDR3 machine; 2.5 M CPU cycles of
 * warm-up (long enough for dynamic partitions to converge and the
 * page-migration engine to finish), 4 M measured; 500 k-cycle
 * profiling interval (the paper's 10 M-cycle interval scaled to our
 * shorter runs so DBP repartitions several times per run).
 */
inline RunConfig
makeRunConfig(const Config &cfg)
{
    RunConfig rc;
    rc.base.profileIntervalCpu = 500'000;
    // ATLAS's long quantum scales with the run length like the
    // profiling interval does (the paper's 10 M-cycle quantum suits
    // its billion-instruction runs).
    rc.base.sched.atlasQuantum = 150'000;
    rc.base.applyConfig(cfg);
    rc.warmupCpu = cfg.getUInt("warmup", 2'500'000);
    rc.measureCpu = cfg.getUInt("measure", 4'000'000);
    rc.seedBase = cfg.getUInt("seed", 42);
    return rc;
}

/** The mixes the full figures sweep. */
inline std::vector<WorkloadMix>
allMixes()
{
    return standardMixes();
}

/** A representative subset (25/50/75/100 % intensive) for sweeps. */
inline std::vector<WorkloadMix>
sensitivityMixes()
{
    return {mixByName("W02"), mixByName("W04"), mixByName("W07"),
            mixByName("W10")};
}

/** Percent improvement of scheme b over scheme a for a metric where
 *  higher is better. */
inline double
pctGain(double a, double b)
{
    return 100.0 * (b - a) / a;
}

/** Percent reduction of b relative to a (fairness-style gain for
 *  metrics where lower is better). */
inline double
pctDrop(double a, double b)
{
    return 100.0 * (a - b) / a;
}

} // namespace bench
} // namespace dbpsim

#endif // DBPSIM_BENCH_BENCH_COMMON_HH

/**
 * @file
 * The benchmark's named workloads: which simulations each one runs,
 * on which machine configuration, from which seed.
 *
 * A workload is a list of RunSpecs. Each RunSpec is built exactly as
 * runAloneBaseline() or runMixJob() builds its System and trace
 * sources, so the benchmark can drive the public System API directly
 * and then check its results against those two library entry points.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "trace/mix.hh"
#include "trace/source.hh"

namespace perfbench {

/** One simulation of a workload. */
struct RunSpec
{
    std::string label;         ///< "alone/mcf" or "W07/DBP".
    dbpsim::SystemParams params; ///< the machine this run builds.
    std::string app;           ///< alone runs: the profile.
    std::string mix;           ///< shared runs: the mix name.
    std::string scheme;        ///< shared runs: the scheme name.

    bool alone() const { return mix.empty(); }
};

/** A named workload. */
struct Workload
{
    std::string name;
    dbpsim::RunConfig rc;                   ///< window, seed, machine.
    std::vector<dbpsim::WorkloadMix> mixes; ///< empty for alone_sweep.
    std::vector<std::string> schemes;       ///< schemes run per mix.
    std::vector<RunSpec> runs;              ///< alone runs, then shared.
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name with trace seed base @p seed. Returns false
 * when the name is unknown.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out);

/**
 * The trace sources of @p run, seeded as runAloneBaseline() and
 * runMixJob() seed theirs.
 */
std::vector<std::unique_ptr<dbpsim::TraceSource>>
makeSources(const Workload &w, const RunSpec &run);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH

/**
 * @file
 * Build a custom multiprogrammed workload from the application-profile
 * library (or use a standard mix) and compare schemes on it, with
 * per-thread slowdown detail.
 *
 * Usage:
 *   workload_mix                          # default custom mix
 *   workload_mix mix=W07                  # a standard mix
 *   workload_mix apps=mcf,lbm,gcc,namd    # your own 4-core mix
 *   workload_mix apps=... schemes=UBP,DBP,DBP-TCM
 */

#include <iostream>
#include <sstream>

#include "common/config.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "trace/spec_profiles.hh"

using namespace dbpsim;

namespace {

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);

    RunConfig rc;
    rc.base.profileIntervalCpu = 500'000;
    rc.base.sched.atlasQuantum = 150'000; // scale ATLAS to short runs.
    rc.base.applyConfig(config);
    rc.warmupCpu = config.getUInt("warmup", 2'000'000);
    rc.measureCpu = config.getUInt("measure", 3'000'000);

    WorkloadMix mix;
    if (config.has("mix")) {
        mix = mixByName(config.getString("mix", "W04"));
    } else if (config.has("apps")) {
        mix.name = "custom";
        mix.apps = splitCsv(config.getString("apps", ""));
        for (const auto &a : mix.apps)
            if (!hasSpecProfile(a))
                fatal("unknown app '", a, "'; see tab2_workloads for ",
                      "the profile library");
    } else {
        mix.name = "demo";
        mix.apps = {"mcf", "lbm", "libquantum", "omnetpp", "gcc",
                    "hmmer", "namd", "povray"};
    }
    rc.base.numCores = static_cast<unsigned>(mix.apps.size());

    std::vector<std::string> scheme_names =
        splitCsv(config.getString("schemes", "FR-FCFS,UBP,DBP,DBP-TCM"));

    std::cout << "mix " << mix.name << " ("
              << formatDouble(100 * mix.intensiveFraction(), 0)
              << " % intensive) on " << rc.base.summary() << "\n\n";

    AloneBaselineCache baselines;

    // Summary metrics per scheme.
    TextTable summary({"scheme", "weighted speedup", "max slowdown",
                       "harmonic speedup", "pages migrated"});
    std::vector<MixResult> results;
    for (const auto &name : scheme_names) {
        MixResult r = runMixJob(rc, mix, schemeByName(name), baselines);
        summary.beginRow();
        summary.cell(r.schemeName);
        summary.cell(r.metrics.weightedSpeedup);
        summary.cell(r.metrics.maxSlowdown);
        summary.cell(r.metrics.harmonicSpeedup);
        summary.cell(r.pagesMigrated);
        results.push_back(std::move(r));
    }
    summary.print(std::cout);

    // Per-thread slowdowns.
    std::vector<std::string> headers{"app", "alone IPC"};
    for (const auto &r : results)
        headers.push_back(r.schemeName + " slowdown");
    TextTable detail(headers);
    for (std::size_t t = 0; t < mix.apps.size(); ++t) {
        detail.beginRow();
        detail.cell(mix.apps[t]);
        detail.cell(results[0].aloneIpc[t]);
        for (const auto &r : results)
            detail.cell(r.metrics.slowdowns[t]);
    }
    std::cout << '\n';
    detail.print(std::cout);
    return 0;
}

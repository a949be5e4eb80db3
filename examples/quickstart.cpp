/**
 * @file
 * Quickstart: build a 4-core system, run one workload mix under
 * FR-FCFS and under DBP, and print the paper's metrics side by side.
 *
 * Usage: quickstart [key=value ...]
 *   e.g. quickstart cores=8 banks=16 sched=tcm
 */

#include <iostream>

#include "common/config.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "trace/mix.hh"

using namespace dbpsim;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);

    RunConfig rc;
    // Short demo runs: profile/repartition every 500k CPU cycles so
    // DBP adapts within the run (the paper's 10M-cycle interval suits
    // its billion-instruction runs); ATLAS's quantum scales likewise.
    rc.base.profileIntervalCpu = 500'000;
    rc.base.sched.atlasQuantum = 150'000;
    rc.base.applyConfig(config);
    rc.warmupCpu = config.getUInt("warmup", 1'500'000);
    rc.measureCpu = config.getUInt("measure", 3'000'000);

    unsigned cores = static_cast<unsigned>(config.getUInt("cores", 4));
    rc.base.numCores = cores;

    // A small mix: two memory hogs and two light applications.
    WorkloadMix mix = scaleMix(
        WorkloadMix{"quickstart", {"mcf", "libquantum", "gcc", "hmmer"}},
        cores);

    std::cout << "dbpsim quickstart\n"
              << "  machine : " << rc.base.summary() << "\n"
              << "  mix     : ";
    for (const auto &a : mix.apps)
        std::cout << a << ' ';
    std::cout << "\n\n";

    AloneBaselineCache baselines;
    TextTable table({"scheme", "weighted speedup", "max slowdown",
                     "harmonic speedup"});
    for (const auto &scheme_name : {"FR-FCFS", "UBP", "DBP"}) {
        MixResult r =
            runMixJob(rc, mix, schemeByName(scheme_name), baselines);
        table.beginRow();
        table.cell(r.schemeName);
        table.cell(r.metrics.weightedSpeedup);
        table.cell(r.metrics.maxSlowdown);
        table.cell(r.metrics.harmonicSpeedup);
    }
    table.print(std::cout);

    std::cout << "\nHigher weighted/harmonic speedup is better; lower "
                 "max slowdown is fairer.\n";
    return 0;
}

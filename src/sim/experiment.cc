#include "sim/experiment.hh"

namespace dbpsim {

MixResult
runMixJob(const RunConfig &rc, const WorkloadMix &mix,
          const Scheme &scheme, AloneBaselineCache &baselines)
{
    SystemParams params = applyScheme(rc.base, scheme);
    params.numCores = static_cast<unsigned>(mix.apps.size());

    // Seeding discipline: derive from stable names only, never from
    // the order jobs were submitted or completed in.
    auto owned = buildMixSources(
        mix, jobSeed(rc.seedBase, mix.name, scheme.name));
    std::vector<TraceSource *> sources;
    sources.reserve(owned.size());
    for (auto &s : owned)
        sources.push_back(s.get());

    System system(params, sources);
    std::vector<double> shared = system.runAndMeasure(rc.warmupCpu,
                                                      rc.measureCpu);

    MixResult result;
    result.mixName = mix.name;
    result.schemeName = scheme.name;
    result.sharedIpc = shared;
    for (const auto &app : mix.apps)
        result.aloneIpc.push_back(baselines.get(rc, app).ipc);
    result.metrics = computeMetrics(result.aloneIpc, result.sharedIpc);

    for (unsigned t = 0; t < params.numCores; ++t) {
        auto tid = static_cast<ThreadId>(t);
        result.rowHitRate.push_back(system.threadRowHitRate(tid));
        result.readLatency.push_back(system.threadAvgReadLatency(tid));
    }
    result.pagesMigrated =
        system.partitionManager().statPagesMigrated.value();
    result.repartitions =
        system.partitionManager().statRepartitions.value();
    if (ProtocolChecker *pc = system.protocolChecker()) {
        pc->finalize(system.memCycle());
        result.checkViolations =
            static_cast<std::int64_t>(pc->violations());
    }
    return result;
}

} // namespace dbpsim

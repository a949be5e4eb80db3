#include "workload.hh"

#include <algorithm>

#include "bench_common.hh"
#include "sim/baseline.hh"
#include "sim/schemes.hh"
#include "trace/spec_profiles.hh"

namespace perfbench {

using namespace dbpsim;

namespace {

/**
 * Run configuration of one workload: the fig4 micro window that
 * scripts/bench_trajectory.sh records, plus @p keys. The profiling
 * interval is half the campaigns' 500 k: DBP waits out two warm-up and
 * two cool-down intervals, and only a 250 k interval leaves it room to
 * repartition (and migrate pages) inside 1.5 M cycles.
 */
RunConfig
makeConfig(std::uint64_t seed, const std::vector<std::string> &keys)
{
    Config cfg;
    cfg.set("warmup", "500000");
    cfg.set("measure", "1000000");
    cfg.set("seed", std::to_string(seed));
    cfg.set("interval", "250000");
    for (const auto &kv : keys)
        cfg.parseToken(kv);
    return bench::makeRunConfig(cfg);
}

/** Alone runs first (the shared runs' metrics need them), then one
 *  shared run per (mix, scheme). */
void
addRuns(Workload &w, const std::vector<std::string> &alone_apps)
{
    for (const auto &app : alone_apps) {
        RunSpec r;
        r.label = "alone/" + app;
        r.app = app;
        // As runAloneBaseline(): one core, FR-FCFS, unpartitioned, one
        // profiling interval spanning the whole run.
        r.params = w.rc.base;
        r.params.numCores = 1;
        r.params.scheduler = "fr-fcfs";
        r.params.partition = "none";
        r.params.profileIntervalCpu =
            w.rc.warmupCpu + w.rc.measureCpu + 1'000'000'000ULL;
        w.runs.push_back(std::move(r));
    }
    for (const auto &mix : w.mixes) {
        for (const auto &scheme : w.schemes) {
            RunSpec r;
            r.label = mix.name + "/" + scheme;
            r.mix = mix.name;
            r.scheme = scheme;
            // As runMixJob().
            r.params = applyScheme(w.rc.base, schemeByName(scheme));
            r.params.numCores = static_cast<unsigned>(mix.apps.size());
            w.runs.push_back(std::move(r));
        }
    }
}

/** Every app of @p mixes, once, in first-appearance order. */
std::vector<std::string>
appsOf(const std::vector<WorkloadMix> &mixes)
{
    std::vector<std::string> apps;
    for (const auto &m : mixes)
        for (const auto &a : m.apps)
            if (std::find(apps.begin(), apps.end(), a) == apps.end())
                apps.push_back(a);
    return apps;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "mix8_loaded", "alone_sweep", "mix8_salp_checked"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &out)
{
    Workload w;
    w.name = name;
    if (name == "mix8_loaded") {
        w.rc = makeConfig(seed, {});
        w.mixes = {mixByName("W07"), mixByName("W10")};
        w.schemes = {"UBP", "DBP"};
        addRuns(w, appsOf(w.mixes));
    } else if (name == "alone_sweep") {
        w.rc = makeConfig(seed, {});
        std::vector<std::string> apps;
        for (const auto &p : specProfiles())
            apps.push_back(p.name);
        addRuns(w, apps);
    } else if (name == "mix8_salp_checked") {
        w.rc = makeConfig(seed, {"salp=masa", "refresh=perbank",
                                 "cache=1", "check=1"});
        w.mixes = {mixByName("W07")};
        w.schemes = {"UBP", "DBP"};
        addRuns(w, appsOf(w.mixes));
    } else {
        return false;
    }
    out = std::move(w);
    return true;
}

std::vector<std::unique_ptr<TraceSource>>
makeSources(const Workload &w, const RunSpec &run)
{
    if (run.alone()) {
        std::vector<std::unique_ptr<TraceSource>> one;
        one.push_back(makeSpecSource(run.app, w.rc.seedBase * 31 + 7));
        return one;
    }
    return buildMixSources(mixByName(run.mix),
                           jobSeed(w.rc.seedBase, run.mix, run.scheme));
}

} // namespace perfbench

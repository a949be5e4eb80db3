/**
 * @file
 * Mix-run tests: alone-run caching, metric assembly in runMixJob(),
 * and scheme application, on a deliberately tiny configuration so the
 * whole file stays fast.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace dbpsim {
namespace {

RunConfig
tinyConfig()
{
    RunConfig rc;
    rc.base.geometry.rowsPerBank = 4096;
    rc.base.profileIntervalCpu = 60'000;
    rc.warmupCpu = 100'000;
    rc.measureCpu = 250'000;
    return rc;
}

TEST(Schemes, StandardSetContainsThePaperSchemes)
{
    for (const char *name :
         {"FR-FCFS", "UBP", "DBP", "TCM", "DBP-TCM", "MCP"}) {
        const Scheme &s = schemeByName(name);
        EXPECT_EQ(s.name, name);
    }
    EXPECT_EQ(schemeByName("DBP-TCM").scheduler, "tcm");
    EXPECT_EQ(schemeByName("DBP-TCM").partition, "dbp");
    EXPECT_EQ(schemeByName("UBP").partition, "ubp");
}

TEST(Schemes, ApplyOverridesOnlySchedAndPart)
{
    SystemParams base;
    base.numCores = 5;
    SystemParams out = applyScheme(base, schemeByName("DBP-TCM"));
    EXPECT_EQ(out.scheduler, "tcm");
    EXPECT_EQ(out.partition, "dbp");
    EXPECT_EQ(out.numCores, 5u);
}

TEST(Experiment, AloneIpcCachedAndPositive)
{
    AloneBaselineCache baselines;
    double ipc1 = baselines.get(tinyConfig(), "gcc").ipc;
    EXPECT_GT(ipc1, 0.0);
    EXPECT_LE(ipc1, 4.0);
    // Second call hits the cache and returns the identical value.
    EXPECT_DOUBLE_EQ(baselines.get(tinyConfig(), "gcc").ipc, ipc1);
    EXPECT_EQ(baselines.computeCount(), 1u);
}

TEST(Experiment, AloneProfileMatchesAppCharacter)
{
    AloneBaselineCache baselines;
    ThreadMemProfile libq =
        baselines.get(tinyConfig(), "libquantum").profile;
    ThreadMemProfile mcf = baselines.get(tinyConfig(), "mcf").profile;
    // libquantum: streaming — much higher row locality than mcf.
    EXPECT_GT(libq.rowBufferHitRate, mcf.rowBufferHitRate);
    // mcf: much higher bank parallelism.
    EXPECT_GT(mcf.blp, libq.blp);
    EXPECT_GT(libq.mpki, 5.0);
    EXPECT_GT(mcf.mpki, 5.0);
}

TEST(Experiment, RunMixProducesConsistentMetrics)
{
    AloneBaselineCache baselines;
    WorkloadMix mix{"t", {"libquantum", "omnetpp", "gcc", "hmmer"}};
    MixResult r = runMixJob(tinyConfig(), mix, schemeByName("FR-FCFS"),
                            baselines);

    ASSERT_EQ(r.sharedIpc.size(), 4u);
    ASSERT_EQ(r.aloneIpc.size(), 4u);
    EXPECT_GT(r.metrics.weightedSpeedup, 0.0);
    EXPECT_LE(r.metrics.weightedSpeedup, 4.0 + 0.5);
    EXPECT_GE(r.metrics.maxSlowdown, 0.5);

    // Metrics recompute from the stored IPCs.
    SystemMetrics again = computeMetrics(r.aloneIpc, r.sharedIpc);
    EXPECT_DOUBLE_EQ(again.weightedSpeedup,
                     r.metrics.weightedSpeedup);
    EXPECT_DOUBLE_EQ(again.maxSlowdown, r.metrics.maxSlowdown);
}

TEST(Experiment, DbpSchemeReportsRepartitions)
{
    AloneBaselineCache baselines;
    WorkloadMix mix{"t", {"mcf", "libquantum", "gcc", "hmmer"}};
    MixResult r =
        runMixJob(tinyConfig(), mix, schemeByName("DBP"), baselines);
    EXPECT_GE(r.repartitions, 1u);
}

TEST(Experiment, DeterministicResults)
{
    WorkloadMix mix{"t", {"libquantum", "gcc"}};
    auto run = [&] {
        AloneBaselineCache baselines;
        return runMixJob(tinyConfig(), mix, schemeByName("UBP"),
                         baselines);
    };
    MixResult a = run();
    MixResult b = run();
    EXPECT_DOUBLE_EQ(a.metrics.weightedSpeedup,
                     b.metrics.weightedSpeedup);
    EXPECT_DOUBLE_EQ(a.metrics.maxSlowdown, b.metrics.maxSlowdown);
}

} // namespace
} // namespace dbpsim

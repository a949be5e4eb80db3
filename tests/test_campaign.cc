/**
 * @file
 * Campaign-layer tests: JSON round-tripping (the substrate of the
 * bit-identical gate), the name-derived seeding discipline, the
 * shared alone-baseline cache with persistence, and the headline
 * guarantee — a parallel campaign's results are byte-identical to the
 * serial reference, independent of completion order. Runs under TSan
 * in scripts/check.sh (ctest -R 'Executor|Campaign').
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <sstream>

#include "bench_common.hh"
#include "common/json.hh"
#include "sim/campaign.hh"

namespace dbpsim {
namespace {

// ---- JSON -----------------------------------------------------------

TEST(CampaignJson, ScalarsAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_EQ(Json(true).asBool(), true);
    EXPECT_DOUBLE_EQ(Json(1.5).asDouble(), 1.5);
    EXPECT_EQ(Json(std::int64_t{-7}).asInt(), -7);
    EXPECT_EQ(Json("hi").asString(), "hi");
}

TEST(CampaignJson, ObjectKeepsInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", 1);
    j.set("apple", 2);
    j.set("mango", 3);
    EXPECT_EQ(j.dump(), "{\"zebra\": 1, \"apple\": 2, \"mango\": 3}");
    j.set("apple", 9); // overwrite keeps the original position.
    EXPECT_EQ(j.dump(), "{\"zebra\": 1, \"apple\": 9, \"mango\": 3}");
}

TEST(CampaignJson, RoundTripIsByteIdentical)
{
    Json j = Json::object();
    j.set("int", std::int64_t{42});
    j.set("neg", -3);
    j.set("frac", 0.1);
    j.set("tiny", 1e-17);
    j.set("big", 1e18);
    j.set("text", "line\n\"quoted\"\t\\");
    Json arr = Json::array();
    arr.push(Json());
    arr.push(false);
    arr.push(2.5);
    j.set("arr", std::move(arr));

    std::string once = j.dump();
    std::string err;
    Json back = Json::parse(once, &err);
    EXPECT_EQ(err, "");
    EXPECT_EQ(back.dump(), once);

    // Pretty-printed text parses back to the same compact form.
    Json pretty = Json::parse(j.dump(2), &err);
    EXPECT_EQ(err, "");
    EXPECT_EQ(pretty.dump(), once);
}

TEST(CampaignJson, ParseRejectsMalformedInput)
{
    std::string err;
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"}) {
        err.clear();
        Json v = Json::parse(bad, &err);
        EXPECT_TRUE(v.isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// ---- seeding discipline ---------------------------------------------

TEST(CampaignSeed, DependsOnNamesNotOrder)
{
    // Same (base, mix, scheme) always gives the same seed...
    EXPECT_EQ(jobSeed(42, "W04", "DBP"), jobSeed(42, "W04", "DBP"));
    // ...and any name or base change gives a different one.
    std::set<std::uint64_t> seeds;
    for (const char *mix : {"W01", "W04", "W10"})
        for (const char *scheme : {"FR-FCFS", "UBP", "DBP"})
            for (std::uint64_t base : {1ULL, 42ULL})
                seeds.insert(jobSeed(base, mix, scheme));
    EXPECT_EQ(seeds.size(), 3u * 3u * 2u);
}

TEST(CampaignSeed, ConfigSignatureTracksHardwareChanges)
{
    RunConfig a;
    RunConfig b;
    EXPECT_EQ(runConfigSignature(a), runConfigSignature(b));
    EXPECT_EQ(runConfigHash(a), runConfigHash(b));
    b.base.geometry.banksPerRank *= 2;
    EXPECT_NE(runConfigSignature(a), runConfigSignature(b));
    EXPECT_NE(runConfigHash(a), runConfigHash(b));
}

// ---- shared fixtures ------------------------------------------------

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

/** A fig4-shaped miniature: 2-app mixes x 2 schemes + summary gmeans. */
CampaignSpec
tinySweepSpec()
{
    std::vector<WorkloadMix> mixes = {
        {"T1", {"mcf", "gcc"}},
        {"T2", {"libquantum", "namd"}},
    };
    std::vector<Scheme> schemes = {schemeByName("FR-FCFS"),
                                   schemeByName("DBP")};
    CampaignSpec spec;
    spec.name = "tiny-sweep";
    spec.title = "campaign determinism fixture";
    spec.plan = [mixes, schemes](CampaignPlan &plan, CampaignContext &) {
        planMixSweep(plan, mixes, schemes);
    };
    spec.render = [mixes, schemes](CampaignRun &run, std::ostream &os) {
        printSweepMetric(run, "", mixes, schemes, "ws",
                         "weighted speedup", os);
    };
    return spec;
}

// ---- baseline cache -------------------------------------------------

TEST(CampaignBaselines, ComputesOncePerApp)
{
    AloneBaselineCache cache;
    RunConfig rc = tinyConfig();
    AloneBaseline first = cache.get(rc, "gcc");
    EXPECT_GT(first.ipc, 0.0);
    AloneBaseline again = cache.get(rc, "gcc");
    EXPECT_DOUBLE_EQ(again.ipc, first.ipc);
    EXPECT_EQ(cache.computeCount(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(CampaignBaselines, DistinctConfigsGetDistinctEntries)
{
    AloneBaselineCache cache;
    RunConfig rc = tinyConfig();
    cache.get(rc, "gcc");
    RunConfig other = rc;
    other.base.geometry.banksPerRank *= 2;
    cache.get(other, "gcc");
    EXPECT_EQ(cache.computeCount(), 2u);
}

TEST(CampaignBaselines, PersistsAndReloadsWithoutRecompute)
{
    const std::string path =
        testing::TempDir() + "dbpsim_alone_cache_test.json";
    RunConfig rc = tinyConfig();

    AloneBaselineCache writer;
    AloneBaseline computed = writer.get(rc, "gcc");
    ASSERT_TRUE(writer.save(path));

    AloneBaselineCache reader;
    ASSERT_TRUE(reader.load(path));
    AloneBaseline loaded = reader.get(rc, "gcc");
    EXPECT_EQ(reader.computeCount(), 0u);
    EXPECT_DOUBLE_EQ(loaded.ipc, computed.ipc);
    EXPECT_DOUBLE_EQ(loaded.profile.mpki, computed.profile.mpki);
    EXPECT_EQ(loaded.profile.footprintPages,
              computed.profile.footprintPages);
    std::remove(path.c_str());
}

TEST(CampaignBaselines, LoadIgnoresGarbageFiles)
{
    const std::string path =
        testing::TempDir() + "dbpsim_alone_cache_garbage.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("not json at all", f);
        std::fclose(f);
    }
    AloneBaselineCache cache;
    EXPECT_FALSE(cache.load(path));
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

// ---- campaign execution ---------------------------------------------

TEST(Campaign, RegistryFindsRegisteredSpecs)
{
    CampaignSpec spec = tinySweepSpec();
    spec.name = "test-registry-entry";
    registerCampaign(spec);
    const CampaignSpec *found = findCampaign("test-registry-entry");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->title, spec.title);
    EXPECT_EQ(findCampaign("no-such-campaign"), nullptr);

    // Natural ordering: fig2 sorts before fig10.
    registerCampaign({"zz2", "", "", spec.plan, spec.render});
    registerCampaign({"zz10", "", "", spec.plan, spec.render});
    auto all = campaignRegistry();
    std::size_t i2 = all.size(), i10 = all.size();
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i]->name == "zz2")
            i2 = i;
        if (all[i]->name == "zz10")
            i10 = i;
    }
    EXPECT_LT(i2, i10);
}

TEST(Campaign, ParallelRunIsBitIdenticalToSerial)
{
    RunConfig rc = tinyConfig();
    CampaignSpec spec = tinySweepSpec();
    auto baselines = std::make_shared<AloneBaselineCache>();

    CampaignOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    std::ostringstream serial_out;
    Json ref = runCampaign(spec, rc, baselines, serial, serial_out);

    CampaignOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;
    for (int repeat = 0; repeat < 2; ++repeat) {
        std::ostringstream par_out;
        Json doc = runCampaign(spec, rc, baselines, parallel, par_out);
        // The deterministic sections are byte-identical; only the
        // timing fields may differ between runs.
        EXPECT_EQ(doc.at("jobs").dump(), ref.at("jobs").dump());
        EXPECT_EQ(doc.at("summary").dump(), ref.at("summary").dump());
        EXPECT_EQ(par_out.str(), serial_out.str());
    }
}

TEST(Campaign, ResultDocumentHasTheContractFields)
{
    RunConfig rc = tinyConfig();
    auto baselines = std::make_shared<AloneBaselineCache>();
    CampaignOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    std::ostringstream os;
    Json doc = runCampaign(tinySweepSpec(), rc, baselines, opts, os);

    EXPECT_EQ(doc.at("campaign").asString(), "tiny-sweep");
    EXPECT_EQ(doc.at("jobs_count").asUInt(), 4u);
    EXPECT_EQ(doc.at("jobs").size(), 4u);
    EXPECT_EQ(doc.at("parallelism").asUInt(), 2u);
    EXPECT_GE(doc.at("wall_seconds").asDouble(), 0.0);
    EXPECT_GE(doc.at("job_seconds_total").asDouble(), 0.0);
    EXPECT_FALSE(doc.at("config").at("hash").asString().empty());

    const Json &job = doc.at("jobs").at("T1/DBP");
    EXPECT_EQ(job.at("mix").asString(), "T1");
    EXPECT_EQ(job.at("scheme").asString(), "DBP");
    EXPECT_GT(job.at("ws").asDouble(), 0.0);
    EXPECT_EQ(job.at("speedups").size(), 2u);

    const Json &summary = doc.at("summary");
    EXPECT_GT(summary.at("gmean_ws_DBP").asDouble(), 0.0);
}

TEST(Campaign, DuplicateJobKeysAreFatal)
{
    CampaignPlan plan;
    plan.add("a", [](CampaignContext &) { return Json(); });
    EXPECT_DEATH(plan.add("a", [](CampaignContext &) { return Json(); }),
                 "duplicate");
}

TEST(Campaign, SweepFiguresPinned)
{
    // Each scheme-sweep figure on a tiny window: its job results, its
    // summary metrics and its printed tables, hashed together. The
    // values were recorded when every figure was still its own source
    // file, so they prove the sweep table reproduces those campaigns
    // byte for byte. The first two hashed parts alone give the
    // `dbpsim_bench <fig>` "result digest" at the same window.
    Config cfg;
    for (const char *token :
         {"warmup=50000", "measure=100000", "seed=42", "check=0"})
        cfg.parseToken(token);
    RunConfig rc = bench::makeRunConfig(cfg);
    auto baselines = std::make_shared<AloneBaselineCache>();
    CampaignOptions opts;
    opts.jobs = 4;
    opts.progress = false;

    const std::pair<const char *, std::uint64_t> pins[] = {
        {"fig4", 0xc4dd207b351e1269ULL}, {"fig5", 0x2d89c68819d37c0eULL},
        {"fig6", 0xbba2582a60daaaedULL}, {"fig7", 0x283e36d1a7b1f052ULL},
        {"fig9", 0x3be255b7367f031cULL}, {"fig17", 0xdc9ff2144bfa9401ULL},
    };
    for (const auto &[name, digest] : pins) {
        const CampaignSpec *spec = findCampaign(name);
        ASSERT_NE(spec, nullptr) << name;
        std::ostringstream os;
        Json doc = runCampaign(*spec, rc, baselines, opts, os);
        std::uint64_t got = hashString(doc.at("jobs").dump() +
                                       doc.at("summary").dump() +
                                       os.str());
        EXPECT_EQ(got, digest) << name << " digest 0x" << std::hex << got
                               << ", result digest 0x"
                               << hashString(doc.at("jobs").dump() +
                                             doc.at("summary").dump());
    }
}

} // namespace
} // namespace dbpsim

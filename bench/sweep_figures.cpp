/**
 * @file
 * The scheme-sweep figures, one table row each. Every row runs a
 * scheme list over a fixed mix set, prints per-mix tables of some
 * metrics (+gmean) and compares scheme pairs' gmeans against the
 * paper's numbers:
 *
 *  - fig4 (headline, claim C1 throughput): weighted speedup of
 *    FR-FCFS, equal bank partitioning (UBP) and Dynamic Bank
 *    Partitioning (DBP); the paper reports DBP beating UBP by 4.3 %.
 *  - fig5 (claim C1 fairness): maximum slowdown (lower is fairer) of
 *    the same schemes; the paper reports DBP 16 % fairer than UBP.
 *  - fig6 (claims C2 + C6): TCM alone vs DBP-TCM; the paper reports
 *    +6.2 % throughput and +16.7 % fairness — the partition removes
 *    inter-thread bank conflicts while the scheduler orders the
 *    remaining intra-bank contention.
 *  - fig7 (claims C3 + C5): MCP vs DBP vs DBP-TCM; the paper reports
 *    DBP-TCM beating MCP by 5.3 % throughput and 37 % fairness —
 *    MCP's channel-granular split concentrates the intensive threads'
 *    contention.
 *  - fig9: harmonic mean of speedups, the balanced metric, for the six
 *    paper schemes.
 *  - fig17 (extension): channel- and bank-granular partitioning
 *    composed (DBP-MCP, DBP-MCP-TCM) over the sensitivity mixes — the
 *    "comprehensive approach" the paper's discussion points toward.
 *
 * fig8 reports per thread within one mix and keeps its own file.
 */

#include <cctype>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

/** One per-mix table: a MixResult field and its printed title. */
struct SweepMetric
{
    std::string field;
    std::string title;
};

/**
 * A gmean comparison of @c challenger against @c base on @c field:
 * "ws" reports the throughput gain, "ms" the fairness gain (the drop
 * in maximum slowdown).
 */
struct SweepComparison
{
    std::string base;
    std::string challenger;
    std::string field;
    std::string paper;
};

/** One figure of the table. */
struct SweepFigure
{
    std::string name;
    std::string title;
    std::string expect;
    std::vector<WorkloadMix> (*mixes)();
    std::vector<std::string> schemes;
    std::vector<SweepMetric> metrics;
    std::vector<SweepComparison> comparisons;
};

/** "DBP-TCM" -> "dbptcm", the scheme's spelling in summary keys. */
std::string
summaryName(const std::string &scheme)
{
    std::string out;
    for (char c : scheme)
        if (c != '-')
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    return out;
}

void
compare(CampaignRun &run, const std::vector<WorkloadMix> &mixes,
        const SweepComparison &c, std::ostream &os)
{
    double base = geomean(sweepColumn(run, "", mixes, c.base, c.field));
    double challenger =
        geomean(sweepColumn(run, "", mixes, c.challenger, c.field));
    const bool fairness = c.field == "ms";
    double gain = fairness ? pctDrop(base, challenger)
                           : pctGain(base, challenger);
    run.summary("gmean_" + std::string(fairness ? "fairness" : "ws") +
                    "_gain_" + summaryName(c.challenger) + "_vs_" +
                    summaryName(c.base) + "_pct",
                gain);
    os << c.challenger << " vs " << c.base << " gmean "
       << (fairness ? "fairness" : "WS")
       << " gain: " << formatDouble(gain, 2) << " %  (paper: " << c.paper
       << ")\n";
}

CampaignSpec
sweepFigure(SweepFigure fig)
{
    // Schemes and mixes resolve when the campaign runs, not during
    // static registration.
    auto schemes = [names = fig.schemes] {
        std::vector<Scheme> out;
        for (const auto &n : names)
            out.push_back(schemeByName(n));
        return out;
    };
    auto plan = [fig, schemes](CampaignPlan &p, CampaignContext &) {
        planMixSweep(p, fig.mixes(), schemes());
    };
    auto render = [fig, schemes](CampaignRun &run, std::ostream &os) {
        const std::vector<WorkloadMix> mixes = fig.mixes();
        const std::vector<Scheme> list = schemes();
        for (const auto &m : fig.metrics)
            printSweepMetric(run, "", mixes, list, m.field, m.title, os);
        for (const auto &c : fig.comparisons)
            compare(run, mixes, c, os);
    };
    return {fig.name, fig.title, fig.expect, plan, render};
}

const SweepMetric kWs{"ws", "weighted speedup"};
const SweepMetric kMs{"ms", "maximum slowdown (lower = fairer)"};

const CampaignRegistrar fig4(sweepFigure({
    "fig4",
    "weighted speedup: FR-FCFS vs UBP vs DBP",
    "Expected shape: DBP above UBP above FR-FCFS on most mixes, with "
    "a positive gmean gain.",
    allMixes,
    {"FR-FCFS", "UBP", "DBP"},
    {kWs},
    {{"UBP", "DBP", "ws", "+4.3 %"}},
}));

const CampaignRegistrar fig5(sweepFigure({
    "fig5",
    "maximum slowdown: FR-FCFS vs UBP vs DBP",
    "Expected shape: DBP's max slowdown below UBP's on most mixes "
    "(positive fairness gain).",
    allMixes,
    {"FR-FCFS", "UBP", "DBP"},
    {kMs},
    {{"UBP", "DBP", "ms", "+16 %"}},
}));

const CampaignRegistrar fig6(sweepFigure({
    "fig6",
    "TCM vs DBP-TCM (throughput and fairness)",
    "Expected shape: the combination beats TCM alone on both metrics "
    "for most mixes.",
    allMixes,
    {"TCM", "DBP-TCM"},
    {kWs, kMs},
    {{"TCM", "DBP-TCM", "ws", "+6.2 %"},
     {"TCM", "DBP-TCM", "ms", "+16.7 %"}},
}));

const CampaignRegistrar fig7(sweepFigure({
    "fig7",
    "MCP vs DBP vs DBP-TCM",
    "Expected shape: DBP-TCM ahead of MCP on throughput and far ahead "
    "on fairness.",
    allMixes,
    {"MCP", "DBP", "DBP-TCM"},
    {kWs, kMs},
    {{"MCP", "DBP-TCM", "ws", "+5.3 %"},
     {"MCP", "DBP-TCM", "ms", "+37 %"}},
}));

const CampaignRegistrar fig9(sweepFigure({
    "fig9",
    "harmonic speedup across schemes",
    "Expected shape: DBP-TCM leads the gmean row; FR-FCFS trails.",
    allMixes,
    {"FR-FCFS", "UBP", "DBP", "TCM", "DBP-TCM", "MCP"},
    {{"hs", "harmonic speedup (higher = better balance)"}},
    {},
}));

const CampaignRegistrar fig17(sweepFigure({
    "fig17",
    "channel+bank partitioning composition",
    "Expected shape: the composed schemes at or above their "
    "components on both metrics.",
    sensitivityMixes,
    {"MCP", "DBP", "DBP-MCP", "DBP-TCM", "DBP-MCP-TCM"},
    {kWs, kMs},
    {},
}));

} // namespace

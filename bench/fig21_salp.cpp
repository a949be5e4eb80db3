/**
 * @file
 * Figure 21 (extension): subarray-level parallelism x scheme. Bank
 * partitioning trades row-buffer isolation for bank-level parallelism:
 * a thread confined to its color set has fewer banks to spread misses
 * over. SALP/MASA (Kim et al., ISCA 2012) recovers parallelism
 * *inside* each bank — overlapping precharge with activation (SALP-1),
 * activation with write recovery (SALP-2), or keeping several
 * subarrays' row buffers open at once (MASA) — so the question this
 * campaign asks is whether DBP plus MASA closes the BLP gap that
 * partitioning opens: does DBP with MASA-capable banks meet or beat
 * DBP with single-subarray banks, and how does the same upgrade move
 * UBP?
 *
 * The "masa-8c" variant additionally colors frames by subarray
 * (subarray_color=1), exercising the subarray-granular partitioning
 * axis end to end.
 *
 * Every job runs with the protocol checker enabled, so the campaign
 * doubles as an end-to-end validation that no SALP mode violates the
 * DDR3 + subarray rules; the driver fails on any nonzero violation
 * count.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

struct Mode
{
    const char *name;
    SalpMode salp;
    unsigned subarrays;
    bool color;
};

const std::vector<Mode> &
modes()
{
    static const std::vector<Mode> m = {
        {"s1", SalpMode::None, 1, false},
        {"salp1-8", SalpMode::Salp1, 8, false},
        {"salp2-8", SalpMode::Salp2, 8, false},
        {"masa-4", SalpMode::Masa, 4, false},
        {"masa-8", SalpMode::Masa, 8, false},
        {"masa-8c", SalpMode::Masa, 8, true},
    };
    return m;
}

std::vector<Scheme>
schemes()
{
    return {schemeByName("UBP"), schemeByName("DBP")};
}

std::string
prefixFor(const Mode &m)
{
    return std::string(m.name) + "/";
}

void
plan(CampaignPlan &p, CampaignContext &ctx)
{
    for (const auto &m : modes()) {
        RunConfig cfg = ctx.config();
        cfg.base.controller.salp = m.salp;
        cfg.base.geometry.subarraysPerBank = m.subarrays;
        cfg.base.subarrayColoring = m.color;
        cfg.base.protocolCheck = true;
        planMixSweep(p, cfg, prefixFor(m), sensitivityMixes(),
                     schemes());
    }
}

void
render(CampaignRun &run, std::ostream &os)
{
    for (const char *field : {"ws", "ms"}) {
        TextTable table({std::string("gmean ") + field + " (salp)",
                         "UBP", "DBP"});
        for (const auto &m : modes()) {
            table.beginRow();
            table.cell(m.name);
            for (const auto &s : schemes()) {
                double g = geomean(sweepColumn(run, prefixFor(m),
                                               sensitivityMixes(),
                                               s.name, field));
                table.cell(g, 3);
                run.summary(std::string("gmean_") + field + "_" +
                                prefixFor(m) + s.name,
                            g);
            }
        }
        table.print(os);
        os << '\n';
    }

    auto gm = [&](const char *mode, const char *scheme,
                  const char *field) {
        return geomean(sweepColumn(run, std::string(mode) + "/",
                                   sensitivityMixes(), scheme, field));
    };
    // Each machine's WS divides by its own alone IPCs, so WS does not
    // compare across machines; summed shared IPC does.
    auto ipc = [&](const char *mode, const char *scheme) {
        std::vector<double> sums;
        for (const auto &mix : sensitivityMixes()) {
            const Json &shared =
                run.job(sweepKey(std::string(mode) + "/", mix.name, scheme))
                    .at("shared_ipc");
            double sum = 0.0;
            for (std::size_t t = 0; t < shared.size(); ++t)
                sum += shared.at(t).asDouble();
            sums.push_back(sum);
        }
        return geomean(sums);
    };

    // Does MASA close the BLP gap partitioning opens? Compare each
    // scheme's MASA-equipped machine against its single-subarray one.
    double ws_ubp =
        pctGain(gm("s1", "UBP", "ws"), gm("masa-8", "UBP", "ws"));
    double ws_dbp =
        pctGain(gm("s1", "DBP", "ws"), gm("masa-8", "DBP", "ws"));
    double ipc_ubp = pctGain(ipc("s1", "UBP"), ipc("masa-8", "UBP"));
    double ipc_dbp = pctGain(ipc("s1", "DBP"), ipc("masa-8", "DBP"));
    run.summary("ws_gain_pct_UBP_masa8", ws_ubp);
    run.summary("ws_gain_pct_DBP_masa8", ws_dbp);
    run.summary("ipc_gain_pct_UBP_masa8", ipc_ubp);
    run.summary("ipc_gain_pct_DBP_masa8", ipc_dbp);
    os << "weighted-speedup change from MASA (8 subarrays), each machine "
          "over its own alone runs: UBP "
       << ws_ubp << " %, DBP " << ws_dbp << " %\n";
    os << "summed shared-IPC gain from MASA (8 subarrays): UBP " << ipc_ubp
       << " %, DBP " << ipc_dbp << " %\n";
    os << "DBP with MASA vs DBP with single-subarray banks: " << ipc_dbp
       << " % summed shared IPC\n";
}

const CampaignRegistrar reg({
    "fig21",
    "subarray-level parallelism (SALP/MASA) x scheme",
    "Expected shape: SALP speeds each app alone more than the mix, so "
    "against each machine's own\nalone runs every SALP mode lowers WS "
    "slightly, while summed shared IPC rises a little\n(SALP-1/SALP-2 "
    "most). DBP+MASA matches DBP with single-subarray banks in "
    "throughput,\nnot in WS; subarray coloring (masa-8c) lowers "
    "throughput.",
    plan,
    render,
});

} // namespace

/**
 * @file
 * Aggregated system configuration: everything needed to build a full
 * CMP + DRAM system, with the paper's evaluation defaults, plus
 * parsing from a Config (command-line key=value overrides).
 */

#ifndef DBPSIM_SIM_PARAMS_HH
#define DBPSIM_SIM_PARAMS_HH

#include <string>

#include "cache/cache.hh"
#include "common/config.hh"
#include "core/core.hh"
#include "dram/addr_map.hh"
#include "dram/timing.hh"
#include "mem/controller.hh"
#include "mem/sched_factory.hh"
#include "part/manager.hh"
#include "part/part_dbp.hh"
#include "part/part_mcp.hh"

namespace dbpsim {

/**
 * Full system parameterization.
 */
struct SystemParams
{
    /** Cores / hardware threads (one application each). */
    unsigned numCores = 8;

    /** CPU cycles per memory-bus cycle (3.2 GHz over 800 MHz). */
    unsigned cpuRatio = 4;

    /** Core front-end configuration. */
    CoreParams core;

    /** DRAM geometry. Default: 2 channels x 2 ranks x 8 banks
     *  (32 banks), 64 Ki rows x 8 KiB rows (16 GiB total). */
    DramGeometry geometry{.rowsPerBank = 65536};

    /** DDR timing preset name. */
    std::string timingName = "ddr3-1600";

    /** @name Timing overrides (0 = keep the preset value). */
    /// @{
    Cycle trefiOverride = 0;
    Cycle trfcOverride = 0;
    Cycle trfcPbOverride = 0;
    Cycle tsaOverride = 0; ///< SA_SEL relink.
    /// @}

    /**
     * Color frames by {channel, rank, bank, subarray} instead of bank:
     * partitioning policies then carve subarray-granular color sets.
     * Meaningful with a SALP mode.
     */
    bool subarrayColoring = false;

    /** Address-mapping scheme (page interleave enables coloring). */
    MapScheme scheme = MapScheme::PageInterleave;

    /** Permutation-based bank XOR (ablations only). */
    bool bankXor = false;

    /** Controller queues and drain watermarks. */
    ControllerParams controller;

    /** Scheduler name: fcfs | fr-fcfs | par-bs | atlas | tcm. */
    std::string scheduler = "fr-fcfs";

    /** Scheduler tuning. */
    SchedulerInit sched;

    /** Partition policy name: none | ubp | dbp | mcp. */
    std::string partition = "none";

    /** DBP tuning. */
    DbpParams dbp;

    /** MCP tuning. */
    McpParams mcp;

    /** Migration behaviour. */
    PartitionManagerParams partMgr;

    /** Profiling / repartitioning interval in CPU cycles. */
    // dbplint:allow(cycle-literal) reason=paper interval scaled to the shortened run window, overridden by config key interval (fig11 sweeps it)
    Cycle profileIntervalCpu = 10'000'000;

    /** Private per-core cache in front of the memory system. */
    bool cacheEnabled = false;

    /** Private cache configuration (when enabled). */
    CacheParams cache;

    /**
     * Run the DRAM protocol checker alongside the simulation. Compiled
     * in always; the DBPSIM_CHECK build option flips the default on.
     */
    bool protocolCheck =
#ifdef DBPSIM_CHECK
        true;
#else
        false;
#endif

    /** Panic on the first protocol violation. */
    bool checkFailFast = false;

    /**
     * Apply key=value overrides: every key() of visit(), then the
     * cross-field rules (see README for the key list).
     */
    void applyConfig(const Config &config);

    /**
     * The one list of fields. Calls v.key(name, field) for a field a
     * config key sets and v.fixed(name, field) for one without a key,
     * each field exactly once. Config parsing, the run signature and
     * the alone-baseline key are visitors over it, so a new parameter
     * is one line here.
     */
    template <class V> void visit(V &v) { visitFields(*this, v); }
    template <class V> void visit(V &v) const { visitFields(*this, v); }

    /** Resolve the timing preset (with any refresh overrides). */
    DramTiming timing() const
    {
        DramTiming t = dramTimingByName(timingName);
        if (trefiOverride)
            t.tREFI = trefiOverride;
        if (trfcOverride)
            t.tRFC = trfcOverride;
        if (trfcPbOverride)
            t.tRFCpb = trfcPbOverride;
        if (tsaOverride)
            t.tSA = tsaOverride;
        return t;
    }

    /** One-line summary for logs. */
    std::string summary() const;

  private:
    template <class Self, class V>
    static void
    visitFields(Self &p, V &v)
    {
        v.key("cores", p.numCores);
        v.key("cpu_ratio", p.cpuRatio);
        v.key("window", p.core.windowSize);
        v.key("issue_width", p.core.issueWidth);
        v.key("mshrs", p.core.mshrs);
        v.key("store_buffer", p.core.storeBufferSize);
        v.fixed("core_line_bytes", p.core.lineBytes);
        v.key("channels", p.geometry.channels);
        v.key("ranks", p.geometry.ranksPerChannel);
        v.key("banks", p.geometry.banksPerRank);
        v.key("subarrays", p.geometry.subarraysPerBank);
        v.key("rows", p.geometry.rowsPerBank);
        v.key("row_bytes", p.geometry.rowBytes);
        v.fixed("line_bytes", p.geometry.lineBytes);
        v.fixed("page_bytes", p.geometry.pageBytes);
        v.key("timing", p.timingName);
        v.key("trefi", p.trefiOverride);
        v.key("trfc", p.trfcOverride);
        v.key("trfc_pb", p.trfcPbOverride);
        v.key("tsa", p.tsaOverride);
        v.key("subarray_color", p.subarrayColoring);
        v.key("map", p.scheme);
        v.key("bank_xor", p.bankXor);
        v.fixed("controller_threads", p.controller.numThreads);
        v.key("read_queue", p.controller.readQueueSize);
        v.key("write_queue", p.controller.writeQueueSize);
        v.fixed("write_hi_watermark", p.controller.writeHiWatermark);
        v.fixed("write_lo_watermark", p.controller.writeLoWatermark);
        v.fixed("idle_write_thresh", p.controller.idleWriteThresh);
        v.fixed("forward_latency", p.controller.forwardLatency);
        v.key("page_policy", p.controller.pagePolicy);
        v.key("row_idle_timeout", p.controller.rowIdleTimeout);
        v.key("refresh", p.controller.refresh.mode);
        v.key("refresh_aware", p.controller.refresh.aware);
        v.key("refresh_postpone", p.controller.refresh.postponeMax);
        v.key("salp", p.controller.salp);
        v.key("sched", p.scheduler);
        v.fixed("sched_threads", p.sched.numThreads);
        v.fixed("sched_colors", p.sched.numColors);
        v.fixed("burst_cycles", p.sched.burstCycles);
        v.key("tcm_shuffle", p.sched.tcmShuffleInterval);
        v.key("tcm_cluster_thresh", p.sched.tcmClusterThresh);
        v.key("atlas_quantum", p.sched.atlasQuantum);
        v.key("parbs_cap", p.sched.parbsMarkingCap);
        v.key("bliss_cap", p.sched.blissCap);
        v.key("bliss_clear", p.sched.blissClearInterval);
        v.key("part", p.partition);
        v.key("dbp_light_mpki", p.dbp.lightMpki);
        v.key("dbp_light_banks_per_thread", p.dbp.lightBanksPerThread);
        v.fixed("dbp_stream_rbhr", p.dbp.streamRbhr);
        v.fixed("dbp_stream_banks", p.dbp.streamBanks);
        v.fixed("dbp_max_donor_rows", p.dbp.maxDonorRows);
        v.key("dbp_flat_demand", p.dbp.flatDemand);
        v.key("dbp_hysteresis", p.dbp.hysteresisBanks);
        v.fixed("dbp_light_share_cap", p.dbp.lightShareCap);
        v.fixed("dbp_ewma_alpha", p.dbp.ewmaAlpha);
        v.fixed("dbp_cooldown_intervals", p.dbp.cooldownIntervals);
        v.fixed("dbp_warmup_intervals", p.dbp.warmupIntervals);
        v.key("mcp_low_mpki", p.mcp.lowMpki);
        v.key("mcp_high_rbl", p.mcp.highRbl);
        v.key("migration", p.partMgr.migration);
        v.key("max_migrate_pages", p.partMgr.maxMigratePages);
        v.key("interval", p.profileIntervalCpu);
        v.key("cache", p.cacheEnabled);
        v.key("cache_size", p.cache.sizeBytes);
        v.key("cache_assoc", p.cache.associativity);
        v.fixed("cache_line_bytes", p.cache.lineBytes);
        v.key("cache_hit_latency", p.cache.hitLatency);
        v.key("check", p.protocolCheck);
        v.key("check_failfast", p.checkFailFast);
    }
};

} // namespace dbpsim

#endif // DBPSIM_SIM_PARAMS_HH

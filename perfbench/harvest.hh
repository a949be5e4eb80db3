/**
 * @file
 * Simulated counters read after a run through System's public
 * accessors, summed over the runs of a workload.
 *
 * Everything here is simulated and deterministic: two runs of the
 * same seed give identical Counters, which is what the digest checks.
 */

#ifndef PERFBENCH_HARVEST_HH
#define PERFBENCH_HARVEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace perfbench {

/** The counters of one run, or the sum over several. */
struct Counters
{
    /** @name sim */
    /// @{
    std::uint64_t runs = 0;
    std::uint64_t cpuCycles = 0;
    std::uint64_t memCycles = 0;
    std::uint64_t coreCycles = 0; ///< cores x CPU cycles.
    /// @}

    /** @name core (whole run, warm-up included) */
    /// @{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t headStalls = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t storeStalls = 0;
    /// @}

    /** @name mem (all controllers, all threads) */
    /// @{
    std::uint64_t reads = 0;  ///< reads enqueued.
    std::uint64_t writes = 0; ///< writes enqueued.
    std::uint64_t writeForwards = 0;
    std::uint64_t writeCoalesced = 0;
    std::uint64_t readQueueFull = 0;
    std::uint64_t writeQueueFull = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    double latencyBucketWidth = 0.0;
    std::vector<std::uint64_t> latencyBuckets; ///< last = overflow.
    /// @}

    /** @name dram (all channels) */
    /// @{
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t refs = 0;
    std::uint64_t refpbs = 0;
    std::uint64_t saSels = 0;
    /// @}

    /** @name os */
    /// @{
    std::uint64_t framesAllocated = 0;
    std::uint64_t osPagesMigrated = 0;
    std::uint64_t fallbackAllocs = 0;
    /// @}

    /** @name part */
    /// @{
    std::uint64_t repartitions = 0;
    std::uint64_t partPagesMigrated = 0;
    /// @}

    /** @name check (zero when the checker is off) */
    /// @{
    std::uint64_t checkCommands = 0;
    std::uint64_t checkViolations = 0;
    /// @}

    /** Add @p o field by field. */
    void add(const Counters &o);

    /** Every DRAM command issued. */
    std::uint64_t dramCommands() const
    {
        return acts + pres + dramReads + dramWrites + refs + refpbs +
            saSels;
    }

    /**
     * Read-latency percentile (0 < p <= 1) in bus cycles over the
     * merged histogram, as System::threadReadLatencyPercentile
     * computes it per thread.
     */
    double latencyPercentile(double p) const;

    /** Every field as "name=value;" text, the digest's input. */
    std::string canonical() const;
};

/**
 * Read @p sys's counters. Finalizes the protocol checker first, as
 * runMixJob() does, so end-of-run checks count as violations too.
 */
Counters harvest(dbpsim::System &sys);

} // namespace perfbench

#endif // PERFBENCH_HARVEST_HH

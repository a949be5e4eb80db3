#include "harvest.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace perfbench {

using namespace dbpsim;

namespace {

/** Every scalar counter with its name (digest text and add()). */
constexpr std::pair<const char *, std::uint64_t Counters::*> kScalars[] = {
    {"runs", &Counters::runs},
    {"cpu_cycles", &Counters::cpuCycles},
    {"mem_cycles", &Counters::memCycles},
    {"core_cycles", &Counters::coreCycles},
    {"instructions", &Counters::instructions},
    {"loads", &Counters::loads},
    {"stores", &Counters::stores},
    {"mshr_merges", &Counters::mshrMerges},
    {"head_stalls", &Counters::headStalls},
    {"mshr_stalls", &Counters::mshrStalls},
    {"store_stalls", &Counters::storeStalls},
    {"reads", &Counters::reads},
    {"writes", &Counters::writes},
    {"write_forwards", &Counters::writeForwards},
    {"write_coalesced", &Counters::writeCoalesced},
    {"read_queue_full", &Counters::readQueueFull},
    {"write_queue_full", &Counters::writeQueueFull},
    {"row_hits", &Counters::rowHits},
    {"row_misses", &Counters::rowMisses},
    {"acts", &Counters::acts},
    {"pres", &Counters::pres},
    {"dram_reads", &Counters::dramReads},
    {"dram_writes", &Counters::dramWrites},
    {"refs", &Counters::refs},
    {"refpbs", &Counters::refpbs},
    {"sa_sels", &Counters::saSels},
    {"frames_allocated", &Counters::framesAllocated},
    {"os_pages_migrated", &Counters::osPagesMigrated},
    {"fallback_allocs", &Counters::fallbackAllocs},
    {"repartitions", &Counters::repartitions},
    {"part_pages_migrated", &Counters::partPagesMigrated},
    {"check_commands", &Counters::checkCommands},
    {"check_violations", &Counters::checkViolations},
};

} // namespace

void
Counters::add(const Counters &o)
{
    for (const auto &[name, field] : kScalars)
        this->*field += o.*field;
    if (latencyBuckets.empty()) {
        latencyBuckets = o.latencyBuckets;
        latencyBucketWidth = o.latencyBucketWidth;
    } else {
        for (std::size_t b = 0; b < o.latencyBuckets.size(); ++b)
            latencyBuckets.at(b) += o.latencyBuckets[b];
    }
}

double
Counters::latencyPercentile(double p) const
{
    std::uint64_t total = 0;
    for (std::uint64_t n : latencyBuckets)
        total += n;
    if (total == 0)
        return 0.0;
    // Same rule as System::threadReadLatencyPercentile: the upper edge
    // of the bucket holding the ceil(p * total)-th sample; overflow
    // samples report the histogram's upper bound.
    auto target = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(total)));
    std::size_t buckets = latencyBuckets.size() - 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b <= buckets; ++b) {
        seen += latencyBuckets[b];
        if (seen >= target)
            return (static_cast<double>(std::min(b, buckets - 1)) + 1) *
                latencyBucketWidth;
    }
    return static_cast<double>(buckets) * latencyBucketWidth;
}

std::string
Counters::canonical() const
{
    std::ostringstream os;
    for (const auto &[name, field] : kScalars)
        os << name << '=' << this->*field << ';';
    os << "latency=";
    for (std::uint64_t n : latencyBuckets)
        os << n << ',';
    return os.str();
}

Counters
harvest(System &sys)
{
    Counters c;
    const unsigned cores = sys.params().numCores;
    c.runs = 1;
    c.cpuCycles = sys.cpuCycle();
    c.memCycles = sys.memCycle();
    c.coreCycles = c.cpuCycles * cores;

    for (unsigned i = 0; i < cores; ++i) {
        const TraceCore &core = sys.coreAt(i);
        c.instructions += core.instructionsRetired();
        c.loads += core.statLoads.value();
        c.stores += core.statStores.value();
        c.mshrMerges += core.statMshrMerges.value();
        c.headStalls += core.statHeadStalls.value();
        c.mshrStalls += core.statMshrStalls.value();
        c.storeStalls += core.statStoreStalls.value();
    }

    for (unsigned ch = 0; ch < sys.numControllers(); ++ch) {
        const MemoryController &mc = sys.controllerAt(ch);
        c.reads += mc.statReadsEnqueued.value();
        c.writes += mc.statWritesEnqueued.value();
        c.writeForwards += mc.statWriteForwards.value();
        c.writeCoalesced += mc.statWriteCoalesced.value();
        c.readQueueFull += mc.statReadQueueFull.value();
        c.writeQueueFull += mc.statWriteQueueFull.value();
        for (unsigned t = 0; t < cores; ++t) {
            auto tid = static_cast<ThreadId>(t);
            const ControllerThreadStats &ts = mc.threadStats(tid);
            c.rowHits += ts.rowHits;
            c.rowMisses += ts.rowMisses;
            const StatHistogram &h = mc.latencyHistogram(tid);
            if (c.latencyBuckets.empty()) {
                c.latencyBuckets.assign(h.bucketCount() + 1, 0);
                c.latencyBucketWidth = h.bucketWidth();
            }
            for (std::size_t b = 0; b < h.bucketCount(); ++b)
                c.latencyBuckets[b] += h.bucket(b);
            c.latencyBuckets.back() += h.overflow();
        }

        const DramChannel &dc = mc.channel();
        c.acts += dc.statActs.value();
        c.pres += dc.statPrecharges.value();
        c.dramReads += dc.statReads.value();
        c.dramWrites += dc.statWrites.value();
        c.refs += dc.statRefreshes.value();
        c.refpbs += dc.statRefreshesPb.value();
        c.saSels += dc.statSaSels.value();
    }

    const OsMemory &os = sys.osMemory();
    c.framesAllocated = os.allocator().statAllocs.value();
    c.osPagesMigrated = os.statMigratedPages.value();
    c.fallbackAllocs = os.allocator().statFallbackAllocs.value();

    const PartitionManager &pm = sys.partitionManager();
    c.repartitions = pm.statRepartitions.value();
    c.partPagesMigrated = pm.statPagesMigrated.value();

    if (ProtocolChecker *pc = sys.protocolChecker()) {
        pc->finalize(sys.memCycle());
        c.checkCommands = pc->commandsChecked();
        c.checkViolations = pc->violations();
    }
    return c;
}

} // namespace perfbench

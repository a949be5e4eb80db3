#include "layer_costs.hh"

#include <deque>
#include <memory>
#include <vector>

#include "core/core.hh"
#include "mem/controller.hh"
#include "mem/profiler.hh"
#include "mem/sched_factory.hh"
#include "os/os_memory.hh"
#include "probes.hh"

namespace perfbench {

using namespace dbpsim;

namespace {

/** Ticks per core before timing starts (fills the window). */
constexpr std::uint64_t kCoreWarmTicks = 20'000;
/** Timed ticks per core. */
constexpr std::uint64_t kCoreTicks = 200'000;
/** Bus cycles the memory side runs. */
constexpr std::uint64_t kMemCycles = 300'000;

/** Loads complete a fixed latency after issue; stores never block. */
class FixedLatencyMemory : public CoreMemoryInterface
{
  public:
    explicit FixedLatencyMemory(Cycle latency) : latency_(latency) {}

    bool issueLoad(ThreadId, Addr, MemClient *client,
                   std::uint64_t tag) override
    {
        pending_.push_back(Pending{now_ + latency_, client, tag});
        return true;
    }

    bool issueStore(ThreadId, Addr) override { return true; }

    /** Advance one CPU cycle, completing due loads. */
    void tick()
    {
        ++now_;
        while (!pending_.empty() && pending_.front().due <= now_) {
            Pending p = pending_.front();
            pending_.pop_front();
            p.client->readComplete(p.tag);
        }
    }

  private:
    struct Pending
    {
        Cycle due;
        MemClient *client;
        std::uint64_t tag;
    };
    Cycle latency_;
    Cycle now_ = 0;
    std::deque<Pending> pending_; ///< due order: fixed latency.
};

/** Read completions go nowhere. */
class NullClient : public MemClient
{
  public:
    void readComplete(std::uint64_t) override {}
};

/** One generated request for the memory side. */
struct Request
{
    std::uint64_t cycle;
    ThreadId tid;
    Addr vaddr;
    Addr paddr;
    bool write;
};

} // namespace

CoreCost
coreTickCost(const Workload &w, Cycle load_latency_cpu)
{
    CoreCost out;
    std::int64_t ns = 0;
    for (const RunSpec &run : w.runs) {
        if (!run.alone())
            continue;
        auto sources = makeSources(w, run);
        FixedLatencyMemory mem(std::max<Cycle>(load_latency_cpu, 1));
        TraceCore core(0, run.params.core, sources.at(0).get(), &mem);
        for (std::uint64_t i = 0; i < kCoreWarmTicks; ++i) {
            core.tick();
            mem.tick();
        }
        const std::int64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < kCoreTicks; ++i) {
            core.tick();
            mem.tick();
        }
        ns += nowNs() - t0;
        out.ticks += kCoreTicks;
    }
    out.tickNs = out.ticks ? static_cast<double>(ns) /
            static_cast<double>(out.ticks)
                           : 0.0;
    return out;
}

MemCost
memLayerCost(const Workload &w, double reads_per_cycle,
             double writes_per_cycle)
{
    MemCost out;
    // The machine of the workload's last run: the DBP shared run of a
    // mix workload, an alone run otherwise.
    const SystemParams &p = w.runs.back().params;

    std::vector<std::unique_ptr<TraceSource>> sources;
    for (const RunSpec &run : w.runs)
        if (run.alone())
            sources.push_back(std::move(makeSources(w, run).at(0)));
    const auto threads = static_cast<unsigned>(sources.size());

    // Request schedule: fractional credits at the measured rates, each
    // request taking the next record of the sources in turn.
    std::vector<Request> reqs;
    double read_credit = 0.0;
    double write_credit = 0.0;
    unsigned next_source = 0;
    for (std::uint64_t c = 0; c < kMemCycles; ++c) {
        read_credit += reads_per_cycle;
        write_credit += writes_per_cycle;
        while (read_credit >= 1.0 || write_credit >= 1.0) {
            bool write = write_credit >= 1.0 && write_credit >= read_credit;
            (write ? write_credit : read_credit) -= 1.0;
            auto tid = static_cast<ThreadId>(next_source);
            Addr vaddr = sources[next_source]->next().vaddr;
            reqs.push_back(Request{c, tid, vaddr, 0, write});
            next_source = (next_source + 1) % threads;
        }
    }

    AddressMap map(p.geometry, p.scheme, p.bankXor, p.subarrayColoring);
    OsMemory os(map, threads);
    std::int64_t t0 = nowNs();
    for (Request &r : reqs)
        r.paddr = os.translate(r.tid, r.vaddr);
    const std::int64_t translate_ns = nowNs() - t0;

    DramTiming timing = p.timing();
    ThreadProfiler profiler(threads, map.numColors());
    SchedulerInit sinit = p.sched;
    sinit.numThreads = threads;
    sinit.numColors = map.numColors();
    sinit.burstCycles = timing.tBURST;
    auto scheduler = makeScheduler(p.scheduler, sinit);
    ControllerParams cparams = p.controller;
    cparams.numThreads = threads;
    std::vector<std::unique_ptr<MemoryController>> controllers;
    for (unsigned ch = 0; ch < p.geometry.channels; ++ch)
        controllers.push_back(std::make_unique<MemoryController>(
            ch, map, timing, cparams, scheduler.get(), &profiler));

    NullClient sink;
    std::size_t next = 0;
    t0 = nowNs();
    for (Cycle c = 0; c < kMemCycles; ++c) {
        for (; next < reqs.size() && reqs[next].cycle == c; ++next) {
            const Request &r = reqs[next];
            MemoryController &mc =
                *controllers[map.decode(r.paddr).channel];
            bool ok = r.write ? mc.enqueueWrite(r.paddr, r.tid, c)
                              : mc.enqueueRead(r.paddr, r.tid, &sink,
                                               next, c);
            out.rejected += ok ? 0 : 1;
        }
        scheduler->tick(c);
        for (auto &mc : controllers)
            mc->tick(c);
        profiler.tick();
    }
    const std::int64_t tick_ns = nowNs() - t0;

    out.cycles = kMemCycles;
    out.translations = reqs.size();
    out.tickNs = static_cast<double>(tick_ns) /
        static_cast<double>(kMemCycles);
    out.translateNs = reqs.empty() ? 0.0
                                   : static_cast<double>(translate_ns) /
            static_cast<double>(reqs.size());
    return out;
}

} // namespace perfbench

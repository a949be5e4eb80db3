/**
 * @file
 * Standalone runs of the two hot layers the full System cannot split
 * from outside: the core, and the memory side (controllers with their
 * scheduler and profiler, fed through the OS translation).
 *
 * Each runs one layer open loop at the load a full run of the workload
 * measured, and reports a per-call host cost. These are per-call
 * costs, not shares of the closed-loop run.
 */

#ifndef PERFBENCH_LAYER_COSTS_HH
#define PERFBENCH_LAYER_COSTS_HH

#include <cstdint>

#include "workload.hh"

namespace perfbench {

/** Cost of one TraceCore::tick. */
struct CoreCost
{
    double tickNs = 0.0;
    std::uint64_t ticks = 0;
};

/**
 * Tick one TraceCore per alone app of @p w, each over its own trace,
 * against a memory whose loads complete @p load_latency_cpu CPU
 * cycles after issue.
 */
CoreCost coreTickCost(const Workload &w, dbpsim::Cycle load_latency_cpu);

/** Cost of the memory side per bus cycle, and of one translation. */
struct MemCost
{
    double tickNs = 0.0;      ///< per bus cycle: scheduler, controllers,
                              ///< profiler ticks and the enqueues.
    double translateNs = 0.0; ///< per OsMemory::translate call.
    std::uint64_t cycles = 0;
    std::uint64_t translations = 0;
    std::uint64_t rejected = 0; ///< enqueues refused (queue full).
};

/**
 * Feed the memory controllers of @p w's shared-run machine with the
 * workload's addresses, translated through an OsMemory, at
 * @p reads_per_cycle and @p writes_per_cycle requests per bus cycle.
 */
MemCost memLayerCost(const Workload &w, double reads_per_cycle,
                     double writes_per_cycle);

} // namespace perfbench

#endif // PERFBENCH_LAYER_COSTS_HH

/**
 * @file
 * Run-time per-thread memory profiler (DBP section "profiling threads'
 * memory characteristics at run-time").
 *
 * Collects, per profiling interval and per thread:
 *  - request count (-> MPKI once instruction counts are supplied),
 *  - intrinsic row-buffer locality via shadow row buffers: one
 *    remembered last-row per (thread, bank color), updated on every
 *    request, so the measured hit rate is interference-free,
 *  - bank-level parallelism, accumulated incrementally: controllers
 *    report outstanding-per-(thread,color) increments/decrements and
 *    the profiler samples the per-thread busy-bank count every memory
 *    cycle the thread has outstanding requests.
 *
 * One profiler instance serves all channels (BLP spans channels).
 *
 * State: one array of per-thread records (outstanding counts, the
 * busy-row list and the interval accumulators) and one flat
 * [thread * colors + color] array of per-(thread, color) slots
 * (shadow row, outstanding count), both built by the constructor.
 */

#ifndef DBPSIM_MEM_PROFILER_HH
#define DBPSIM_MEM_PROFILER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/thread_profile.hh"

namespace dbpsim {

/**
 * The profiler.
 */
class ThreadProfiler
{
  public:
    /**
     * @param num_threads Hardware threads.
     * @param num_colors Machine-wide bank count.
     */
    ThreadProfiler(unsigned num_threads, unsigned num_colors);

    /**
     * A request entered a controller: update shadow row buffer and
     * request count. @p row is the DRAM row within the color.
     */
    void onRequest(ThreadId tid, unsigned color, std::uint64_t row);

    /**
     * A request of @p tid became outstanding at (@p color, @p row).
     * @p count_rows selects whether the request participates in the
     * distinct-row-parallelism estimate: loads do, posted stores do
     * not (they linger in deep write queues and would smear the
     * estimate across every row the thread visited recently).
     */
    void onOutstandingInc(ThreadId tid, unsigned color,
                          std::uint64_t row, bool count_rows = true);

    /** A request of @p tid left (@p color, @p row) (serviced). */
    void onOutstandingDec(ThreadId tid, unsigned color,
                          std::uint64_t row, bool count_rows = true);

    /** Sample BLP; call exactly once per memory-bus cycle. */
    void tick();

    /**
     * Close the interval: combine with per-thread instruction and
     * footprint counts (collected by the system from cores / OS) and
     * reset interval counters. Shadow row buffers persist across
     * intervals (locality is a stream property).
     */
    std::vector<ThreadMemProfile>
    closeInterval(const std::vector<std::uint64_t> &instructions,
                  const std::vector<std::uint64_t> &footprint_pages);

    /** Threads being profiled. */
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Current outstanding busy-bank count of a thread (tests). */
    unsigned busyBanks(ThreadId tid) const;

  private:
    std::size_t idx(ThreadId tid) const;

    /** Per-(thread, color) state. */
    struct ColorSlot
    {
        std::uint64_t shadowRow = ~0ULL; ///< last row; ~0 = cold.
        std::uint32_t outstanding = 0; ///< requests in flight.
    };

    /** Sums sampled each cycle the thread had a nonzero count. */
    struct Sampled
    {
        std::uint64_t sum = 0;
        std::uint64_t cycles = 0;

        void sample(std::uint32_t v)
        {
            if (v > 0) {
                sum += v;
                ++cycles;
            }
        }
        double mean() const
        {
            return cycles == 0 ? 0.0
                               : static_cast<double>(sum) /
                                     static_cast<double>(cycles);
        }
    };

    /** Outstanding requests to one (color, row) key. */
    struct RowCount
    {
        std::uint64_t key;
        std::uint32_t count;
    };

    /** Per-thread state. */
    struct ThreadState
    {
        std::uint32_t busyBanks = 0;   ///< colors with outstanding > 0.
        std::uint32_t outstanding = 0; ///< requests in flight, all banks.

        /**
         * Outstanding count per distinct (color, row) key, unordered:
         * linear find, swap-remove. Its size is the busy-row count and
         * is bounded by the thread's outstanding loads, so it stops
         * allocating once it has reached its peak.
         */
        std::vector<RowCount> rows;

        /** @name Interval accumulators (reset by closeInterval). */
        /// @{
        std::uint64_t reqs = 0;
        std::uint64_t shadowHits = 0;
        Sampled blp;
        Sampled mlp;
        Sampled drp;
        /// @}
    };

    unsigned numColors_;
    std::vector<ThreadState> threads_;
    std::vector<ColorSlot> slots_; ///< [thread * colors + color].
};

} // namespace dbpsim

#endif // DBPSIM_MEM_PROFILER_HH

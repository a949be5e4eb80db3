/**
 * @file
 * The traced run's plumbing, all outside the simulator: a timing
 * TraceSource decorator, command and partition observers that count
 * events and forward them (timed) to the protocol checker, and an
 * in-memory span log written out when the benchmark ends.
 *
 * The observers replace the checker on the channel and OS hooks, so
 * they forward every event to it: with tracing on, the checker sees
 * the same event stream and reports the same violations.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "check/observer.hh"
#include "trace/source.hh"

namespace perfbench {

/** Host nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Calls into one layer function and the host time spent inside. */
struct CallTimer
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void add(std::int64_t d)
    {
        ++calls;
        ns += d;
    }

    /**
     * Seconds inside the calls, less @p clock_ns per call: the cost
     * of the two clock reads that bracket each call.
     */
    double seconds(double clock_ns) const;
};

/**
 * Host cost of one empty timed region (two back-to-back clock reads),
 * measured once; subtracted from per-call timers.
 */
double clockOverheadNs();

/** Times every next() of the wrapped source. */
class TimedSource : public dbpsim::TraceSource
{
  public:
    TimedSource(dbpsim::TraceSource &inner, CallTimer &timer)
        : inner_(inner), timer_(timer)
    {
    }

    dbpsim::TraceRecord next() override;
    void reset() override { inner_.reset(); }
    std::string name() const override { return inner_.name(); }

  private:
    dbpsim::TraceSource &inner_;
    CallTimer &timer_;
};

/**
 * Counts the bus cycles that carry a DRAM command on at least one
 * channel of a System, and forwards every command to the checker.
 */
class CommandProbe : public dbpsim::CommandObserver
{
  public:
    /** @param check_time accumulates time inside the checker. */
    explicit CommandProbe(CallTimer &check_time) : checkTime_(check_time)
    {
    }

    /** Forward to @p checker (may be null: checker off). */
    void forwardTo(dbpsim::CommandObserver *checker) { checker_ = checker; }

    void onCommand(const dbpsim::CmdEvent &ev) override;

    std::uint64_t commandCycles = 0;

  private:
    CallTimer &checkTime_;
    dbpsim::CommandObserver *checker_ = nullptr;
    bool seenAny_ = false;
    dbpsim::Cycle lastCycle_ = 0;
};

/** Counts color-set adoptions; forwards every event to the checker. */
class PartitionProbe : public dbpsim::PartitionObserver
{
  public:
    explicit PartitionProbe(CallTimer &check_time)
        : checkTime_(check_time)
    {
    }

    void forwardTo(dbpsim::PartitionObserver *checker)
    {
        checker_ = checker;
    }

    void onColorSet(dbpsim::ThreadId tid,
                    const std::vector<unsigned> &colors) override;
    void onFrameAllocated(dbpsim::ThreadId tid, unsigned color) override;

    std::uint64_t colorSetChanges = 0;

  private:
    CallTimer &checkTime_;
    dbpsim::PartitionObserver *checker_ = nullptr;
};

/** One recorded span: a rep, a run, a run() slice or a boundary step. */
struct Span
{
    const char *name = "";
    std::string label;        ///< run label ("W07/DBP"), or workload.
    std::uint32_t parent = 0; ///< id (index + 1) of the causing span.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t cycle = 0;  ///< simulated CPU cycle at the start.
};

/** Spans kept in memory for the whole benchmark. */
class SpanLog
{
  public:
    /** Record @p s; returns its id. */
    std::uint32_t add(Span s);

    /** Set the end time of span @p id. */
    void close(std::uint32_t id, std::int64_t end_ns);

    /** Write one JSON object per line; false on I/O failure. */
    bool write(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH

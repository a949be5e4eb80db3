#include "probes.hh"

#include <algorithm>
#include <fstream>

namespace perfbench {

using namespace dbpsim;

double
CallTimer::seconds(double clock_ns) const
{
    double s = (static_cast<double>(ns) -
                clock_ns * static_cast<double>(calls)) * 1e-9;
    return std::max(s, 0.0);
}

double
clockOverheadNs()
{
    constexpr int kSamples = 200'000;
    std::int64_t total = 0;
    for (int i = 0; i < kSamples; ++i) {
        std::int64_t t0 = nowNs();
        total += nowNs() - t0;
    }
    return static_cast<double>(total) / kSamples;
}

TraceRecord
TimedSource::next()
{
    std::int64_t t0 = nowNs();
    TraceRecord r = inner_.next();
    timer_.add(nowNs() - t0);
    return r;
}

void
CommandProbe::onCommand(const CmdEvent &ev)
{
    // Channels tick in order within one bus cycle, so commands arrive
    // in non-decreasing cycle order across all channels.
    if (!seenAny_ || ev.cycle != lastCycle_) {
        ++commandCycles;
        lastCycle_ = ev.cycle;
        seenAny_ = true;
    }
    if (checker_) {
        std::int64_t t0 = nowNs();
        checker_->onCommand(ev);
        checkTime_.add(nowNs() - t0);
    }
}

void
PartitionProbe::onColorSet(ThreadId tid,
                           const std::vector<unsigned> &colors)
{
    ++colorSetChanges;
    if (checker_) {
        std::int64_t t0 = nowNs();
        checker_->onColorSet(tid, colors);
        checkTime_.add(nowNs() - t0);
    }
}

void
PartitionProbe::onFrameAllocated(ThreadId tid, unsigned color)
{
    if (checker_) {
        std::int64_t t0 = nowNs();
        checker_->onFrameAllocated(tid, color);
        checkTime_.add(nowNs() - t0);
    }
}

std::uint32_t
SpanLog::add(Span s)
{
    spans_.push_back(std::move(s));
    return static_cast<std::uint32_t>(spans_.size());
}

void
SpanLog::close(std::uint32_t id, std::int64_t end_ns)
{
    spans_.at(id - 1).endNs = end_ns;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"label\":\"" << s.label
            << "\",\"start_ns\":" << s.startNs - origin
            << ",\"end_ns\":" << s.endNs - origin
            << ",\"cycle\":" << s.cycle << "}\n";
    }
    return static_cast<bool>(out.flush());
}

} // namespace perfbench

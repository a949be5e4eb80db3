#include "mem/profiler.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

ThreadProfiler::ThreadProfiler(unsigned num_threads, unsigned num_colors)
    : numColors_(num_colors), threads_(num_threads),
      slots_(static_cast<std::size_t>(num_threads) * num_colors)
{
    DBP_ASSERT(num_threads > 0, "profiler needs >= 1 thread");
    DBP_ASSERT(num_colors > 0, "profiler needs >= 1 color");
}

std::size_t
ThreadProfiler::idx(ThreadId tid) const
{
    DBP_ASSERT(tid >= 0 && static_cast<std::size_t>(tid) < threads_.size(),
               "profiler: bad thread id " << tid);
    return static_cast<std::size_t>(tid);
}

void
ThreadProfiler::onRequest(ThreadId tid, unsigned color, std::uint64_t row)
{
    std::size_t t = idx(tid);
    DBP_ASSERT(color < numColors_, "profiler: color out of range");
    ThreadState &ts = threads_[t];
    ColorSlot &cs = slots_[t * numColors_ + color];
    if (cs.shadowRow == row)
        ++ts.shadowHits;
    cs.shadowRow = row;
    ++ts.reqs;
}

namespace {

/** Pack a (color, row) pair into one key. */
std::uint64_t
rowKey(unsigned color, std::uint64_t row)
{
    return (static_cast<std::uint64_t>(color) << 48) ^ row;
}

template <class Rows>
auto
findRow(Rows &rows, std::uint64_t key)
{
    return std::find_if(rows.begin(), rows.end(),
                        [key](const auto &r) { return r.key == key; });
}

} // namespace

void
ThreadProfiler::onOutstandingInc(ThreadId tid, unsigned color,
                                 std::uint64_t row, bool count_rows)
{
    std::size_t t = idx(tid);
    DBP_ASSERT(color < numColors_, "profiler: color out of range");
    ThreadState &ts = threads_[t];
    if (slots_[t * numColors_ + color].outstanding++ == 0)
        ++ts.busyBanks;
    ++ts.outstanding;
    if (!count_rows)
        return;
    const std::uint64_t key = rowKey(color, row);
    auto it = findRow(ts.rows, key);
    if (it == ts.rows.end())
        ts.rows.push_back({key, 1});
    else
        ++it->count;
}

void
ThreadProfiler::onOutstandingDec(ThreadId tid, unsigned color,
                                 std::uint64_t row, bool count_rows)
{
    std::size_t t = idx(tid);
    DBP_ASSERT(color < numColors_, "profiler: color out of range");
    ThreadState &ts = threads_[t];
    ColorSlot &cs = slots_[t * numColors_ + color];
    DBP_ASSERT(cs.outstanding > 0,
               "profiler: outstanding underflow t" << tid << " c" << color);
    if (--cs.outstanding == 0) {
        DBP_ASSERT(ts.busyBanks > 0, "profiler: busyBanks underflow");
        --ts.busyBanks;
    }
    DBP_ASSERT(ts.outstanding > 0, "profiler: total outstanding underflow");
    --ts.outstanding;

    if (!count_rows)
        return;
    auto it = findRow(ts.rows, rowKey(color, row));
    DBP_ASSERT(it != ts.rows.end(), "profiler: row-outstanding underflow");
    if (--it->count == 0) {
        *it = ts.rows.back();
        ts.rows.pop_back();
    }
}

void
ThreadProfiler::tick()
{
    for (ThreadState &ts : threads_) {
        ts.blp.sample(ts.busyBanks);
        ts.mlp.sample(ts.outstanding);
        ts.drp.sample(static_cast<std::uint32_t>(ts.rows.size()));
    }
}

unsigned
ThreadProfiler::busyBanks(ThreadId tid) const
{
    return threads_[idx(tid)].busyBanks;
}

std::vector<ThreadMemProfile>
ThreadProfiler::closeInterval(
    const std::vector<std::uint64_t> &instructions,
    const std::vector<std::uint64_t> &footprint_pages)
{
    DBP_ASSERT(instructions.size() == threads_.size(),
               "closeInterval: instruction vector size mismatch");
    DBP_ASSERT(footprint_pages.size() == threads_.size(),
               "closeInterval: footprint vector size mismatch");

    std::vector<ThreadMemProfile> out(threads_.size());
    for (std::size_t t = 0; t < threads_.size(); ++t) {
        ThreadState &ts = threads_[t];
        ThreadMemProfile &p = out[t];
        p.requests = ts.reqs;
        p.instructions = instructions[t];
        p.footprintPages = footprint_pages[t];
        p.mpki = instructions[t] == 0
            ? 0.0
            : 1000.0 * static_cast<double>(ts.reqs) /
                  static_cast<double>(instructions[t]);
        p.rowBufferHitRate = ts.reqs == 0
            ? 0.0
            : static_cast<double>(ts.shadowHits) /
                  static_cast<double>(ts.reqs);
        p.blp = ts.blp.mean();
        p.mlp = ts.mlp.mean();
        p.rowParallelism = ts.drp.mean();

        ts.reqs = 0;
        ts.shadowHits = 0;
        ts.blp = {};
        ts.mlp = {};
        ts.drp = {};
    }
    return out;
}

} // namespace dbpsim

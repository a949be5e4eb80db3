#include "os/os_memory.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

OsMemory::OsMemory(const AddressMap &map, unsigned num_threads)
    : map_(map), allocator_(map), pageBytes_(map.geometry().pageBytes),
      threads_(num_threads)
{
    DBP_ASSERT(num_threads > 0, "OsMemory needs >= 1 thread");
    if (map.geometry().totalFrames() > PageTable::kMaxFrames)
        fatal("OsMemory: ", map.geometry().totalFrames(),
              " frames do not fit the page table's 32-bit frame field "
              "(at most ", PageTable::kMaxFrames, ")");
    if (allocator_.colorAware()) {
        allColors_.resize(map.numColors());
        for (unsigned c = 0; c < map.numColors(); ++c)
            allColors_[c] = c;
        // Stagger the initial round-robin cursors so co-running threads
        // do not allocate their first pages in the same bank sequence.
        for (unsigned t = 0; t < num_threads; ++t)
            threads_[t].cursor = (t * 3) % allColors_.size();
    }
}

std::size_t
OsMemory::idx(ThreadId tid) const
{
    DBP_ASSERT(tid >= 0 && static_cast<std::size_t>(tid) < threads_.size(),
               "thread id " << tid << " out of range");
    return static_cast<std::size_t>(tid);
}

void
OsMemory::notifyFrame(ThreadId tid, std::uint64_t frame)
{
    if (partObserver_ && allocator_.colorAware())
        partObserver_->onFrameAllocated(tid, map_.colorOfFrame(frame));
}

std::uint64_t
OsMemory::allocateFor(ThreadId tid)
{
    ThreadVm &vm = threads_[idx(tid)];
    const std::vector<unsigned> &colors = colorsOf(vm);
    bool fell_back = false;
    std::uint64_t frame = allocator_.allocate(colors, vm.cursor, &fell_back);
    if (fell_back && !vm.fallbackWarned) {
        vm.fallbackWarned = true;
        warn("thread ", tid, ": color set (", colors.size(),
             " colors) exhausted; allocating outside the partition "
             "(reported once per thread; see fallback_allocs)");
    }
    return frame;
}

Addr
OsMemory::translate(ThreadId tid, Addr vaddr)
{
    ThreadVm &vm = threads_[idx(tid)];
    std::uint64_t vpage = vaddr / pageBytes_;
    std::uint64_t offset = vaddr % pageBytes_;

    std::uint64_t frame;
    if (!vm.table.lookup(vpage, frame)) {
        if (allocator_.colorAware())
            frame = allocateFor(tid);
        else
            frame = allocator_.allocateAny();
        vm.table.map(vpage, frame);
        notifyFrame(tid, frame);
    } else if (vm.lazyEnabled && vm.nonconforming > 0 &&
               ++vm.lazyTokens >= lazyPeriod_) {
        // Lazy migrate-on-touch: a re-accessed page outside the color
        // set is remapped into it, at most once per lazyPeriod_
        // translations (bounds copy traffic under random access).
        unsigned color = map_.colorOfFrame(frame);
        const auto &set = colorsOf(vm);
        if (!std::binary_search(set.begin(), set.end(), color)) {
            std::uint64_t moved = allocateFor(tid);
            vm.table.remap(vpage, moved);
            notifyFrame(tid, moved);
            allocator_.release(frame);
            pendingMoves_.emplace_back(color,
                                       map_.colorOfFrame(moved));
            --vm.nonconforming;
            vm.lazyTokens = 0;
            statMigratedPages.inc();
            frame = moved;
        }
    }
    return frame * pageBytes_ + offset;
}

void
OsMemory::setLazyMigration(ThreadId tid, bool enabled)
{
    ThreadVm &vm = threads_[idx(tid)];
    if (!allocator_.colorAware()) {
        vm.lazyEnabled = false;
        return;
    }
    vm.lazyEnabled = enabled;
    if (enabled)
        vm.nonconforming = nonconformingPages(tid);
}

std::vector<std::pair<unsigned, unsigned>>
OsMemory::drainLazyMoves()
{
    std::vector<std::pair<unsigned, unsigned>> out;
    out.swap(pendingMoves_);
    return out;
}

void
OsMemory::setLazyPeriod(std::uint32_t period)
{
    DBP_ASSERT(period > 0, "lazy period must be >= 1");
    lazyPeriod_ = period;
}

void
OsMemory::setColorSet(ThreadId tid, std::vector<unsigned> colors)
{
    ThreadVm &vm = threads_[idx(tid)];
    if (!allocator_.colorAware()) {
        warn("setColorSet ignored: address map cannot color frames");
        return;
    }
    DBP_ASSERT(!colors.empty(), "thread " << tid << " given empty colors");
    for (unsigned c : colors)
        DBP_ASSERT(c < map_.numColors(), "color " << c << " out of range");
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    vm.colors = std::move(colors);
    vm.cursor %= vm.colors.size();
    if (partObserver_)
        partObserver_->onColorSet(tid, vm.colors);
    if (vm.lazyEnabled)
        vm.nonconforming = nonconformingPages(tid);
}

const std::vector<unsigned> &
OsMemory::colorSet(ThreadId tid) const
{
    return colorsOf(threads_[idx(tid)]);
}

std::size_t
OsMemory::mappedPages(ThreadId tid) const
{
    return threads_[idx(tid)].table.size();
}

std::uint64_t
OsMemory::nonconformingPages(ThreadId tid) const
{
    const ThreadVm &vm = threads_[idx(tid)];
    if (!allocator_.colorAware())
        return 0;
    const auto &set = colorsOf(vm);
    std::uint64_t count = 0;
    vm.table.forEachMapped([&](std::uint64_t, std::uint64_t frame) {
        unsigned color = map_.colorOfFrame(frame);
        if (!std::binary_search(set.begin(), set.end(), color))
            ++count;
    });
    return count;
}

MigrationResult
OsMemory::migrate(ThreadId tid, std::uint64_t max_pages)
{
    ThreadVm &vm = threads_[idx(tid)];
    MigrationResult result;
    if (!allocator_.colorAware())
        return result;

    const auto &set = colorsOf(vm);

    // Collect nonconforming pages first (mutating inside forEach is
    // not allowed).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> victims;
    vm.table.forEach([&](std::uint64_t vpage, std::uint64_t frame) {
        unsigned color = map_.colorOfFrame(frame);
        if (!std::binary_search(set.begin(), set.end(), color))
            victims.emplace_back(vpage, frame);
    });

    for (const auto &[vpage, old_frame] : victims) {
        if (max_pages != 0 && result.pages >= max_pages)
            break;
        std::uint64_t new_frame = allocateFor(tid);
        vm.table.remap(vpage, new_frame);
        notifyFrame(tid, new_frame);
        allocator_.release(old_frame);
        result.moves.emplace_back(map_.colorOfFrame(old_frame),
                                  map_.colorOfFrame(new_frame));
        ++result.pages;
    }
    statMigratedPages.inc(result.pages);
    if (vm.lazyEnabled) {
        DBP_ASSERT(vm.nonconforming >= result.pages,
                   "lazy nonconforming count out of sync");
        vm.nonconforming -= result.pages;
    }
    return result;
}

} // namespace dbpsim

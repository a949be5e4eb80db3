#include "os/frame_alloc.hh"

#include "common/log.hh"

namespace dbpsim {

FrameAllocator::FrameAllocator(const AddressMap &map)
    : map_(map), colorAware_(map.supportsBankColoring()),
      framesPerColor_(colorAware_ ? map.framesPerColor()
                                  : map.geometry().totalFrames()),
      colors_(colorAware_ ? map.numColors() : 1)
{
}

bool
FrameAllocator::allocateInColor(unsigned color, std::uint64_t &frame)
{
    DBP_ASSERT(color < colors_.size(), "color out of range");
    ColorFrames &cf = colors_[color];
    if (!cf.released.empty()) {
        frame = cf.released.back();
        cf.released.pop_back();
        statAllocs.inc();
        return true;
    }
    if (cf.bump < framesPerColor_) {
        std::uint64_t idx = cf.bump++;
        frame = colorAware_ ? map_.frameOfColorIndex(color, idx) : idx;
        statAllocs.inc();
        return true;
    }
    return false;
}

std::uint64_t
FrameAllocator::allocate(const std::vector<unsigned> &colors,
                         std::size_t &cursor, bool *fell_back)
{
    DBP_ASSERT(colorAware_, "colored allocation on a non-colorable map");
    DBP_ASSERT(!colors.empty(), "empty color set");
    for (std::size_t tries = 0; tries < colors.size(); ++tries) {
        unsigned color = colors[cursor % colors.size()];
        cursor = (cursor + 1) % colors.size();
        std::uint64_t frame;
        if (allocateInColor(color, frame))
            return frame;
    }
    // The allowed set is exhausted: fall back to any machine color so
    // the run degrades (nonconforming pages a later migrate() can fix)
    // instead of dying on what is usually a footprint/partition
    // mismatch, not a capacity bug.
    for (unsigned c = 0; c < numColors(); ++c) {
        std::uint64_t frame;
        if (allocateInColor(c, frame)) {
            statFallbackAllocs.inc();
            if (fell_back)
                *fell_back = true;
            return frame;
        }
    }
    fatal("out of physical memory: all ", numColors(),
          " bank colors exhausted machine-wide");
}

std::uint64_t
FrameAllocator::allocateAny()
{
    std::uint64_t frame;
    if (colorAware_) {
        for (unsigned c = 0; c < colors_.size(); ++c)
            if (allocateInColor(c, frame))
                return frame;
    } else {
        if (allocateInColor(0, frame))
            return frame;
    }
    fatal("out of physical memory");
}

void
FrameAllocator::release(std::uint64_t frame)
{
    unsigned color = colorAware_ ? map_.colorOfFrame(frame) : 0;
    colors_[color].released.push_back(frame);
    statReleases.inc();
}

std::uint64_t
FrameAllocator::freeInColor(unsigned color) const
{
    DBP_ASSERT(color < colors_.size(), "color out of range");
    const ColorFrames &cf = colors_[color];
    return (framesPerColor_ - cf.bump) + cf.released.size();
}

std::uint64_t
FrameAllocator::totalFree() const
{
    std::uint64_t total = 0;
    for (unsigned c = 0; c < colors_.size(); ++c)
        total += freeInColor(c);
    return total;
}

} // namespace dbpsim

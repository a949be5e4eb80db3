#include "cache/cache.hh"

#include "common/log.hh"

namespace dbpsim {

namespace {

/** Dirty flag, the low bit of Line::tagDirty. */
constexpr std::uint64_t kDirty = 1;

} // namespace

std::string
CacheParams::validate() const
{
    // Messages are built only on the failing branch.
    if (!isPowerOfTwo(lineBytes))
        return concat("cache line size (", lineBytes,
                      ") must be a power of two");
    if (associativity == 0)
        return "cache associativity must be >= 1";
    std::uint64_t lines = sizeBytes / lineBytes;
    if (lines == 0 || sizeBytes % lineBytes != 0 ||
        lines % associativity != 0)
        return concat("cache size (", sizeBytes, ") must be a nonzero "
                      "multiple of line size x assoc (", lineBytes, " x ",
                      associativity, ")");
    if (!isPowerOfTwo(lines / associativity))
        return concat("cache set count must be a power of two (got ",
                      lines / associativity, ")");
    return std::string();
}

SetAssocCache::SetAssocCache(CacheParams params) : params_(params)
{
    std::string err = params_.validate();
    if (!err.empty())
        fatal("invalid cache geometry: ", err);
    sets_ = params_.sizeBytes / params_.lineBytes / params_.associativity;
    // Raw storage: pages are only faulted in when a set first fills.
    lines_ = std::make_unique_for_overwrite<Line[]>(
        sets_ * params_.associativity);
    fill_.assign(sets_, 0);
}

void
SetAssocCache::split(Addr paddr, std::uint64_t &set, Addr &tag) const
{
    Addr line = paddr / params_.lineBytes;
    set = line % sets_;
    tag = line / sets_;
    DBP_ASSERT((tag << 1) >> 1 == tag,
               "cache tag " << tag << " leaves no bit for the dirty flag");
}

unsigned
SetAssocCache::find(std::uint64_t set, Addr tag) const
{
    const Line *base = &lines_[set * params_.associativity];
    const std::uint64_t key = tag << 1;
    for (unsigned w = 0; w < fill_[set]; ++w)
        if ((base[w].tagDirty & ~kDirty) == key)
            return w;
    return params_.associativity;
}

bool
SetAssocCache::contains(Addr paddr) const
{
    std::uint64_t set;
    Addr tag;
    split(paddr, set, tag);
    return find(set, tag) != params_.associativity;
}

bool
SetAssocCache::readHit(Addr paddr)
{
    std::uint64_t set;
    Addr tag;
    split(paddr, set, tag);
    unsigned way = find(set, tag);
    if (way == params_.associativity)
        return false;
    lines_[set * params_.associativity + way].lastUse = ++useCounter_;
    statHits.inc();
    return true;
}

CacheAccessResult
SetAssocCache::access(Addr paddr, bool write)
{
    std::uint64_t set;
    Addr tag;
    split(paddr, set, tag);
    Line *base = &lines_[set * params_.associativity];
    ++useCounter_;

    CacheAccessResult result;

    unsigned way = find(set, tag);
    if (way != params_.associativity) {
        Line &l = base[way];
        l.lastUse = useCounter_;
        if (write)
            l.tagDirty |= kDirty;
        result.hit = true;
        statHits.inc();
        return result;
    }
    statMisses.inc();

    // Miss: the first invalid way, else the LRU way.
    unsigned victim = fill_[set];
    if (victim < params_.associativity) {
        ++fill_[set];
    } else {
        victim = 0;
        for (unsigned w = 1; w < params_.associativity; ++w)
            if (base[w].lastUse < base[victim].lastUse)
                victim = w;
        const Line &v = base[victim];
        statEvictions.inc();
        if (v.tagDirty & kDirty) {
            statWritebacks.inc();
            result.writeback = true;
            result.writebackAddr =
                ((v.tagDirty >> 1) * sets_ + set) * params_.lineBytes;
        }
    }

    base[victim] = Line{tag << 1 | (write ? kDirty : 0), useCounter_};
    return result;
}

void
SetAssocCache::flush()
{
    fill_.assign(sets_, 0);
    useCounter_ = 0;
}

double
SetAssocCache::hitRate() const
{
    std::uint64_t total = statHits.value() + statMisses.value();
    return total == 0
        ? 0.0
        : static_cast<double>(statHits.value()) /
              static_cast<double>(total);
}

} // namespace dbpsim

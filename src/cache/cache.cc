#include "cache/cache.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

namespace {

/** Dirty flag, the low bit of a tag word. */
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
    tags_ = std::make_unique_for_overwrite<std::uint64_t[]>(
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
    const std::uint64_t *base = &tags_[set * params_.associativity];
    const std::uint64_t key = tag << 1;
    for (unsigned w = 0; w < fill_[set]; ++w)
        if ((base[w] & ~kDirty) == key)
            return w;
    return params_.associativity;
}

void
SetAssocCache::touch(std::uint64_t set, unsigned way)
{
    std::uint64_t *base = &tags_[set * params_.associativity];
    std::rotate(base, base + way, base + way + 1);
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
    touch(set, way);
    statHits.inc();
    return true;
}

CacheAccessResult
SetAssocCache::access(Addr paddr, bool write)
{
    std::uint64_t set;
    Addr tag;
    split(paddr, set, tag);
    std::uint64_t *base = &tags_[set * params_.associativity];

    CacheAccessResult result;

    unsigned way = find(set, tag);
    if (way != params_.associativity) {
        touch(set, way);
        if (write)
            base[0] |= kDirty;
        result.hit = true;
        statHits.inc();
        return result;
    }
    statMisses.inc();

    // Miss: fill the next invalid way, else evict the LRU (last) way.
    unsigned &fill = fill_[set];
    if (fill < params_.associativity) {
        ++fill;
    } else {
        const std::uint64_t victim = base[fill - 1];
        statEvictions.inc();
        if (victim & kDirty) {
            statWritebacks.inc();
            result.writeback = true;
            result.writebackAddr =
                ((victim >> 1) * sets_ + set) * params_.lineBytes;
        }
    }

    // The survivors age by one way; the new line is the most recent.
    std::copy_backward(base, base + fill - 1, base + fill);
    base[0] = tag << 1 | (write ? kDirty : 0);
    return result;
}

void
SetAssocCache::flush()
{
    fill_.assign(sets_, 0);
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

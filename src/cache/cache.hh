/**
 * @file
 * A set-associative, write-back, write-allocate cache with true-LRU
 * replacement. Used as an optional private L2 in front of the memory
 * system (the main experiments feed the controllers with post-cache
 * traces, matching the paper's methodology, but the substrate is a
 * full implementation for users who replay raw traces).
 */

#ifndef DBPSIM_CACHE_CACHE_HH
#define DBPSIM_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace dbpsim {

/**
 * Cache configuration.
 */
struct CacheParams
{
    std::uint64_t sizeBytes = 512 * 1024; ///< total capacity.
    unsigned associativity = 8;           ///< ways per set.
    std::uint64_t lineBytes = 64;         ///< line size.
    // dbplint:allow(cycle-literal) reason=L2 hit latency in CPU cycles (tab1 configuration), overridden by config key cache_hit_latency
    Cycle hitLatency = 12;                ///< CPU cycles on a hit.

    /**
     * Check the geometry: a power-of-two line size, at least one way,
     * a capacity that is a whole number of sets, and a power-of-two
     * set count.
     * @return Empty when usable, else a description of the problem.
     */
    std::string validate() const;
};

/**
 * Result of one cache access.
 */
struct CacheAccessResult
{
    bool hit = false;            ///< line was present.
    bool writeback = false;      ///< a dirty victim was evicted.
    Addr writebackAddr = 0;      ///< victim line address (if writeback).
};

/**
 * The cache.
 */
class SetAssocCache
{
  public:
    /** @param params Geometry; fatal() unless params.validate() passes. */
    explicit SetAssocCache(CacheParams params);

    /**
     * Access @p paddr (line-aligned internally). Misses allocate; a
     * dirty victim surfaces through the result for the caller to send
     * to memory.
     */
    CacheAccessResult access(Addr paddr, bool write);

    /**
     * Read-hit probe. On a hit, counts it and refreshes the line's LRU
     * stamp exactly as access(paddr, false) would, and returns true.
     * On a miss, changes nothing and returns false.
     */
    bool readHit(Addr paddr);

    /** Probe without side effects. */
    bool contains(Addr paddr) const;

    /** Invalidate everything (drops dirty data; tests only). */
    void flush();

    /** Number of sets. */
    std::uint64_t numSets() const { return sets_; }

    /** Configuration. */
    const CacheParams &params() const { return params_; }

    /** Hit fraction so far (0 when no accesses). */
    double hitRate() const;

    /** @name Counters. */
    /// @{
    StatScalar statHits;
    StatScalar statMisses;
    StatScalar statEvictions;
    StatScalar statWritebacks;
    /// @}

  private:
    /** A valid line. No default initialiser, so storage starts raw. */
    struct Line
    {
        std::uint64_t tagDirty; ///< tag << 1 | dirty.
        std::uint64_t lastUse;  ///< LRU stamp (useCounter_ at last use).
    };

    /** Set index and tag of an address. */
    void split(Addr paddr, std::uint64_t &set, Addr &tag) const;

    /** Way of @p set holding @p tag, or associativity when absent. */
    unsigned find(std::uint64_t set, Addr tag) const;

    CacheParams params_;
    std::uint64_t sets_;
    /**
     * [set * assoc + way], default-initialised. Ways fill in order and
     * only flush() invalidates, so the valid ways of a set are exactly
     * [0, fill_[set]); nothing at or above the fill count is ever read.
     */
    std::unique_ptr<Line[]> lines_;
    std::vector<unsigned> fill_; ///< valid ways per set.
    std::uint64_t useCounter_ = 0;
};

} // namespace dbpsim

#endif // DBPSIM_CACHE_CACHE_HH

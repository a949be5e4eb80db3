/**
 * @file
 * Set-associative cache tests: hit/miss behaviour, LRU replacement
 * order, dirty-victim writebacks, parameter validation (in the cache
 * and at config parse time), and a differential run against a
 * straightforward reference model of the same cache.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/random.hh"
#include "sim/params.hh"

namespace dbpsim {
namespace {

CacheParams
tiny()
{
    CacheParams p;
    p.sizeBytes = 4096; // 64 lines.
    p.associativity = 4;
    p.lineBytes = 64;   // => 16 sets.
    return p;
}

/** Address falling in set @p set with tag @p tag. */
Addr
addrFor(const SetAssocCache &c, std::uint64_t set, std::uint64_t tag)
{
    return (tag * c.numSets() + set) * c.params().lineBytes;
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache c(tiny());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1020, false).hit); // same line.
    EXPECT_EQ(c.statMisses.value(), 1u);
    EXPECT_EQ(c.statHits.value(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    SetAssocCache c(tiny());
    // Fill one set's 4 ways.
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        c.access(addrFor(c, 3, tag), false);
    // Touch tag 0 so tag 1 becomes LRU.
    c.access(addrFor(c, 3, 0), false);
    // New tag evicts tag 1.
    c.access(addrFor(c, 3, 99), false);
    EXPECT_TRUE(c.contains(addrFor(c, 3, 0)));
    EXPECT_FALSE(c.contains(addrFor(c, 3, 1)));
    EXPECT_TRUE(c.contains(addrFor(c, 3, 2)));
    EXPECT_TRUE(c.contains(addrFor(c, 3, 99)));
}

TEST(Cache, DirtyVictimProducesWriteback)
{
    SetAssocCache c(tiny());
    Addr victim = addrFor(c, 7, 0);
    c.access(victim, true); // dirty.
    for (std::uint64_t tag = 1; tag < 4; ++tag)
        c.access(addrFor(c, 7, tag), false);
    CacheAccessResult res = c.access(addrFor(c, 7, 50), false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, victim);
    EXPECT_EQ(c.statWritebacks.value(), 1u);
}

TEST(Cache, CleanVictimNoWriteback)
{
    SetAssocCache c(tiny());
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        c.access(addrFor(c, 7, tag), false);
    CacheAccessResult res = c.access(addrFor(c, 7, 50), false);
    EXPECT_TRUE(res.hit == false && res.writeback == false);
    EXPECT_EQ(c.statEvictions.value(), 1u);
}

TEST(Cache, WriteHitMarksDirty)
{
    SetAssocCache c(tiny());
    Addr a = addrFor(c, 2, 0);
    c.access(a, false); // clean install.
    c.access(a, true);  // dirty via hit.
    for (std::uint64_t tag = 1; tag < 4; ++tag)
        c.access(addrFor(c, 2, tag), false);
    CacheAccessResult res = c.access(addrFor(c, 2, 9), false);
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, a);
}

TEST(Cache, FlushDropsEverything)
{
    SetAssocCache c(tiny());
    c.access(0x40, true);
    EXPECT_TRUE(c.contains(0x40));
    c.flush();
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, HitRate)
{
    SetAssocCache c(tiny());
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.0);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x40000, false);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

TEST(Cache, ValidateAcceptsGoodGeometries)
{
    EXPECT_EQ(tiny().validate(), "");
    EXPECT_EQ(CacheParams{}.validate(), "");
    CacheParams full = tiny();
    full.associativity = 64; // one set: fully associative.
    EXPECT_EQ(full.validate(), "");
}

TEST(Cache, ValidateNamesTheProblem)
{
    // Every failing branch of CacheParams::validate(), with the exact
    // user-facing message (recorded before validate() stopped
    // formatting on the success path).
    CacheParams p = tiny();
    p.lineBytes = 48;
    EXPECT_EQ(p.validate(), "cache line size (48) must be a power of two");

    p = tiny();
    p.associativity = 0;
    EXPECT_EQ(p.validate(), "cache associativity must be >= 1");

    p = tiny();
    p.sizeBytes = 1000; // not a whole number of lines.
    EXPECT_EQ(p.validate(), "cache size (1000) must be a nonzero multiple "
                            "of line size x assoc (64 x 4)");

    p = tiny();
    p.sizeBytes = 0;
    EXPECT_EQ(p.validate(), "cache size (0) must be a nonzero multiple "
                            "of line size x assoc (64 x 4)");

    p = tiny();
    p.associativity = 3; // 64 lines do not split into 3-way sets.
    EXPECT_EQ(p.validate(), "cache size (4096) must be a nonzero multiple "
                            "of line size x assoc (64 x 3)");

    p = tiny();
    p.associativity = 1;
    p.sizeBytes = 48 * 64; // 48 sets.
    EXPECT_EQ(p.validate(), "cache set count must be a power of two "
                            "(got 48)");
}

TEST(Cache, RejectsBadParams)
{
    CacheParams p = tiny();
    p.lineBytes = 48;
    EXPECT_DEATH({ SetAssocCache c(p); },
                 "invalid cache geometry: .*power of two");

    p = tiny();
    p.associativity = 0;
    EXPECT_DEATH({ SetAssocCache c(p); },
                 "invalid cache geometry: .*assoc");

    p = tiny();
    p.sizeBytes = 1000;
    EXPECT_DEATH({ SetAssocCache c(p); },
                 "invalid cache geometry: .*multiple");
}

TEST(Cache, ConfigRejectsBadGeometryAtParseTime)
{
    Config size;
    size.parseToken("cache=1");
    size.parseToken("cache_size=1000");
    SystemParams p;
    EXPECT_EXIT({ p.applyConfig(size); }, ::testing::ExitedWithCode(1),
                "cache_size=1000.*multiple");

    Config assoc;
    assoc.parseToken("cache=1");
    assoc.parseToken("cache_assoc=0");
    EXPECT_EXIT({ p.applyConfig(assoc); }, ::testing::ExitedWithCode(1),
                "cache_assoc=0.*associativity");

    // The keys only matter when the cache is built.
    Config off;
    off.parseToken("cache_size=1000");
    p.applyConfig(off);
    EXPECT_FALSE(p.cacheEnabled);
}

TEST(Cache, HighestLineAddressRoundTrips)
{
    // The dirty flag shares the tag word: the largest tag of the
    // default geometry must survive an install, a dirty hit and the
    // writeback address computation.
    SetAssocCache c(CacheParams{});
    Addr top = ~Addr{0} & ~Addr{c.params().lineBytes - 1};
    std::uint64_t set = c.numSets() - 1;
    EXPECT_FALSE(c.access(top, false).hit);
    EXPECT_TRUE(c.access(top, true).hit);
    EXPECT_TRUE(c.contains(top));
    // Fill the other ways; the next miss evicts the LRU line, top.
    for (std::uint64_t tag = 1; tag < c.params().associativity; ++tag)
        c.access(addrFor(c, set, tag), false);
    CacheAccessResult res = c.access(addrFor(c, set, 99), false);
    EXPECT_FALSE(c.contains(top));
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, top);
}

TEST(Cache, TagWithoutRoomForDirtyFlagPanics)
{
    // One-byte lines in one set: the tag is the whole address.
    CacheParams p;
    p.lineBytes = 1;
    p.associativity = 2;
    p.sizeBytes = 2;
    SetAssocCache c(p);
    EXPECT_FALSE(c.access(~Addr{0} >> 1, true).hit);
    EXPECT_DEATH({ c.access(~Addr{0}, false); }, "dirty flag");
}

TEST(Cache, ReadHitCountsHitsAndLeavesMissesAlone)
{
    SetAssocCache c(tiny());
    Addr a = addrFor(c, 5, 0);
    EXPECT_FALSE(c.readHit(a));
    EXPECT_EQ(c.statHits.value() + c.statMisses.value(), 0u);
    EXPECT_FALSE(c.contains(a));

    c.access(a, false);
    for (std::uint64_t tag = 1; tag < 4; ++tag)
        c.access(addrFor(c, 5, tag), false);
    // A read hit makes tag 0 most recent, so tag 1 is the victim.
    EXPECT_TRUE(c.readHit(a));
    EXPECT_EQ(c.statHits.value(), 1u);
    c.access(addrFor(c, 5, 7), false);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(addrFor(c, 5, 1)));
}

TEST(Cache, LargeConfigWorks)
{
    CacheParams p;
    p.sizeBytes = 512 * 1024;
    p.associativity = 8;
    p.lineBytes = 64;
    SetAssocCache c(p);
    EXPECT_EQ(c.numSets(), 1024u);
    for (Addr a = 0; a < 1024 * 1024; a += 64)
        c.access(a, false);
    EXPECT_EQ(c.statMisses.value(), 16384u);
    EXPECT_EQ(c.statEvictions.value(), 8192u);
}

/**
 * Reference model: the straightforward layout, one valid flag per
 * line in fully initialised storage and a full-set scan for the
 * first invalid way or the LRU way.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p)
        : p_(p), sets_(p.sizeBytes / p.lineBytes / p.associativity),
          lines_(p.sizeBytes / p.lineBytes)
    {
    }

    CacheAccessResult
    access(Addr paddr, bool write)
    {
        Addr line = paddr / p_.lineBytes;
        std::uint64_t set = line % sets_;
        Addr tag = line / sets_;
        Line *base = &lines_[set * p_.associativity];
        ++useCounter_;
        CacheAccessResult result;
        for (unsigned w = 0; w < p_.associativity; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tag) {
                l.lastUse = useCounter_;
                l.dirty = l.dirty || write;
                result.hit = true;
                ++hits;
                return result;
            }
        }
        ++misses;
        unsigned victim = 0;
        std::uint64_t oldest = ~0ULL;
        for (unsigned w = 0; w < p_.associativity; ++w) {
            Line &l = base[w];
            if (!l.valid) {
                victim = w;
                break;
            }
            if (l.lastUse < oldest) {
                oldest = l.lastUse;
                victim = w;
            }
        }
        Line &v = base[victim];
        if (v.valid) {
            ++evictions;
            if (v.dirty) {
                ++writebacks;
                result.writeback = true;
                result.writebackAddr = (v.tag * sets_ + set) * p_.lineBytes;
            }
        }
        v = Line{tag, true, write, useCounter_};
        return result;
    }

    void
    flush()
    {
        for (Line &l : lines_)
            l = Line{};
        useCounter_ = 0;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    CacheParams p_;
    std::uint64_t sets_;
    std::vector<Line> lines_;
    std::uint64_t useCounter_ = 0;
};

/**
 * Drive @p ops seeded random reads and writes through the cache and
 * the reference model, with one flush() halfway. Each access draws a
 * set and one of (assoc + 4) tags, so every set keeps evicting; about
 * one load in four goes through readHit() the way System issues
 * loads.
 */
void
expectMatchesReference(const CacheParams &p, std::uint64_t seed,
                       unsigned ops)
{
    SetAssocCache c(p);
    RefCache ref(p);
    Rng rng(seed);
    const std::uint64_t tags = p.associativity + 4;
    for (unsigned i = 0; i < ops; ++i) {
        if (i == ops / 2) {
            c.flush();
            ref.flush();
        }
        Addr a = addrFor(c, rng.nextBelow(c.numSets()),
                         rng.nextBelow(tags)) +
            rng.nextBelow(p.lineBytes);
        bool write = rng.nextBool(0.3);
        if (!write && rng.nextBool(0.25) && c.readHit(a)) {
            ASSERT_TRUE(ref.access(a, false).hit) << "op " << i;
            continue;
        }
        CacheAccessResult got = c.access(a, write);
        CacheAccessResult want = ref.access(a, write);
        ASSERT_EQ(got.hit, want.hit) << "op " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "op " << i;
        ASSERT_EQ(got.writebackAddr, want.writebackAddr) << "op " << i;
    }
    EXPECT_EQ(c.statHits.value(), ref.hits);
    EXPECT_EQ(c.statMisses.value(), ref.misses);
    EXPECT_EQ(c.statEvictions.value(), ref.evictions);
    EXPECT_EQ(c.statWritebacks.value(), ref.writebacks);
    EXPECT_GT(ref.writebacks, 0u);
}

TEST(CacheDifferential, TinyMatchesReference)
{
    expectMatchesReference(tiny(), 1, 200'000);
}

TEST(CacheDifferential, DefaultGeometryMatchesReference)
{
    expectMatchesReference(CacheParams{}, 2, 200'000);
}

TEST(CacheDifferential, DirectMappedMatchesReference)
{
    CacheParams p = tiny();
    p.associativity = 1;
    expectMatchesReference(p, 3, 200'000);
}

TEST(CacheDifferential, FullyAssociativeMatchesReference)
{
    CacheParams p = tiny();
    p.associativity = 64; // one set.
    expectMatchesReference(p, 4, 200'000);
}

} // namespace
} // namespace dbpsim

/**
 * @file
 * Address-map tests: decode/encode bijectivity across schemes and
 * geometries (property sweeps), frame-coloring soundness, and the
 * color <-> location arithmetic the OS and partition manager rely on.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "dram/addr_map.hh"

namespace dbpsim {
namespace {

DramGeometry
smallGeometry()
{
    DramGeometry g;
    g.channels = 2;
    g.ranksPerChannel = 2;
    g.banksPerRank = 8;
    g.rowsPerBank = 1024;
    g.rowBytes = 8192;
    g.lineBytes = 64;
    g.pageBytes = 4096;
    return g;
}

TEST(Geometry, Validation)
{
    // Every failing branch of DramGeometry::validate(), with the exact
    // user-facing message (recorded before validate() stopped
    // formatting on the success path).
    EXPECT_EQ(DramGeometry{}.validate(), "");
    EXPECT_EQ(smallGeometry().validate(), "");

    for (unsigned DramGeometry::*field :
         {&DramGeometry::channels, &DramGeometry::ranksPerChannel,
          &DramGeometry::banksPerRank, &DramGeometry::subarraysPerBank}) {
        DramGeometry g = smallGeometry();
        g.*field = 3;
        EXPECT_EQ(g.validate(), "all geometry fields must be powers of two");
        g.*field = 0;
        EXPECT_EQ(g.validate(), "all geometry fields must be powers of two");
    }
    for (std::uint64_t DramGeometry::*field :
         {&DramGeometry::rowsPerBank, &DramGeometry::rowBytes,
          &DramGeometry::lineBytes, &DramGeometry::pageBytes}) {
        DramGeometry g = smallGeometry();
        g.*field = 3;
        EXPECT_EQ(g.validate(), "all geometry fields must be powers of two");
    }

    DramGeometry g = smallGeometry();
    g.subarraysPerBank = 2048;
    EXPECT_EQ(g.validate(),
              "subarraysPerBank (2048) must be in [1, rowsPerBank]");

    g = smallGeometry();
    g.lineBytes = 8192;
    EXPECT_EQ(g.validate(), "lineBytes (8192) > pageBytes (4096)");

    g = smallGeometry();
    g.pageBytes = 16384; // page larger than row.
    EXPECT_EQ(g.validate(),
              "pageBytes (16384) > rowBytes (8192): a frame would span rows");
}

TEST(Geometry, DerivedQuantities)
{
    DramGeometry g = smallGeometry();
    EXPECT_EQ(g.totalBanks(), 32u);
    EXPECT_EQ(g.colsPerRow(), 128u);
    EXPECT_EQ(g.capacityBytes(), 32ULL * 1024 * 8192);
    EXPECT_EQ(g.totalFrames(), g.capacityBytes() / 4096);
}

TEST(MapScheme, Names)
{
    EXPECT_EQ(mapSchemeByName("page"), MapScheme::PageInterleave);
    EXPECT_EQ(mapSchemeByName("row"), MapScheme::RowInterleave);
    EXPECT_EQ(mapSchemeByName("line"), MapScheme::LineInterleave);
    EXPECT_EQ(mapSchemeName(MapScheme::PageInterleave), "page");
}

/** Parameterized over (scheme, bank_xor). */
class AddrMapRoundTrip
    : public ::testing::TestWithParam<std::tuple<MapScheme, bool>>
{
};

TEST_P(AddrMapRoundTrip, DecodeEncodeBijective)
{
    auto [scheme, bank_xor] = GetParam();
    DramGeometry g = smallGeometry();
    AddressMap map(g, scheme, bank_xor);

    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        Addr line = rng.nextBelow(g.capacityBytes() / g.lineBytes);
        Addr addr = line * g.lineBytes;
        DramCoord c = map.decode(addr);
        EXPECT_LT(c.channel, g.channels);
        EXPECT_LT(c.rank, g.ranksPerChannel);
        EXPECT_LT(c.bank, g.banksPerRank);
        EXPECT_LT(c.row, g.rowsPerBank);
        EXPECT_LT(c.col, g.colsPerRow());
        EXPECT_EQ(map.encode(c), addr);
    }
}

TEST_P(AddrMapRoundTrip, EncodeDecodeBijective)
{
    auto [scheme, bank_xor] = GetParam();
    DramGeometry g = smallGeometry();
    AddressMap map(g, scheme, bank_xor);

    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        DramCoord c;
        c.channel = static_cast<unsigned>(rng.nextBelow(g.channels));
        c.rank = static_cast<unsigned>(rng.nextBelow(g.ranksPerChannel));
        c.bank = static_cast<unsigned>(rng.nextBelow(g.banksPerRank));
        c.row = rng.nextBelow(g.rowsPerBank);
        c.col = rng.nextBelow(g.colsPerRow());
        EXPECT_EQ(map.decode(map.encode(c)), c);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndXor, AddrMapRoundTrip,
    ::testing::Combine(::testing::Values(MapScheme::PageInterleave,
                                         MapScheme::RowInterleave,
                                         MapScheme::LineInterleave),
                       ::testing::Bool()));

/** Parameterized geometry sweep for the coloring-critical scheme. */
class AddrMapGeometry
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, unsigned>>
{
};

TEST_P(AddrMapGeometry, PageInterleaveRoundTripAndColoring)
{
    auto [channels, ranks, banks] = GetParam();
    DramGeometry g = smallGeometry();
    g.channels = channels;
    g.ranksPerChannel = ranks;
    g.banksPerRank = banks;
    AddressMap map(g, MapScheme::PageInterleave);

    EXPECT_TRUE(map.supportsBankColoring());
    EXPECT_EQ(map.numColors(), channels * ranks * banks);

    Rng rng(123);
    for (int i = 0; i < 2000; ++i) {
        Addr line = rng.nextBelow(g.capacityBytes() / g.lineBytes);
        Addr addr = line * g.lineBytes;
        DramCoord c = map.decode(addr);
        EXPECT_EQ(map.encode(c), addr);

        // Every byte of the frame shares the frame's color.
        std::uint64_t frame = addr / g.pageBytes;
        EXPECT_EQ(map.colorOf(c), map.colorOfFrame(frame));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddrMapGeometry,
    ::testing::Values(std::make_tuple(1u, 1u, 8u),
                      std::make_tuple(1u, 2u, 8u),
                      std::make_tuple(2u, 2u, 8u),
                      std::make_tuple(2u, 1u, 16u),
                      std::make_tuple(4u, 2u, 8u),
                      std::make_tuple(2u, 2u, 16u)));

TEST(AddrMap, FrameSpansSingleBankUnderPageInterleave)
{
    DramGeometry g = smallGeometry();
    AddressMap map(g, MapScheme::PageInterleave);

    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t frame = rng.nextBelow(g.totalFrames());
        Addr base = frame * g.pageBytes;
        unsigned color = map.colorOf(map.decode(base));
        for (std::uint64_t off = 0; off < g.pageBytes;
             off += g.lineBytes) {
            EXPECT_EQ(map.colorOf(map.decode(base + off)), color);
        }
    }
}

TEST(AddrMap, LineInterleaveDoesNotSupportColoring)
{
    DramGeometry g = smallGeometry();
    AddressMap line_map(g, MapScheme::LineInterleave);
    EXPECT_FALSE(line_map.supportsBankColoring());

    AddressMap xor_map(g, MapScheme::PageInterleave, true);
    EXPECT_FALSE(xor_map.supportsBankColoring());
}

TEST(AddrMap, FrameColorIndexBijection)
{
    DramGeometry g = smallGeometry();
    AddressMap map(g, MapScheme::PageInterleave);

    std::set<std::uint64_t> seen;
    for (unsigned color = 0; color < map.numColors(); ++color) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            std::uint64_t frame = map.frameOfColorIndex(color, i);
            EXPECT_EQ(map.colorOfFrame(frame), color);
            EXPECT_TRUE(seen.insert(frame).second)
                << "frame " << frame << " produced twice";
        }
    }
    EXPECT_EQ(map.framesPerColor(),
              g.totalFrames() / map.numColors());
}

TEST(AddrMap, ColorLocationInverse)
{
    DramGeometry g = smallGeometry();
    AddressMap map(g, MapScheme::PageInterleave);
    for (unsigned color = 0; color < map.numColors(); ++color) {
        auto loc = map.colorLocation(color);
        DramCoord c;
        c.channel = loc.channel;
        c.rank = loc.rank;
        c.bank = loc.bank;
        EXPECT_EQ(map.colorOf(c), color);
    }
}

TEST(AddrMap, BankXorIsPermutationWithinRow)
{
    DramGeometry g = smallGeometry();
    AddressMap plain(g, MapScheme::RowInterleave, false);
    AddressMap xored(g, MapScheme::RowInterleave, true);

    // For a fixed row, the XOR map permutes banks (bijective over the
    // bank set), so conflicting rows spread.
    std::set<unsigned> banks_seen;
    DramCoord c;
    c.row = 5;
    for (unsigned b = 0; b < g.banksPerRank; ++b) {
        c.bank = b;
        Addr a = xored.encode(c);
        banks_seen.insert(plain.decode(a).bank);
    }
    EXPECT_EQ(banks_seen.size(), g.banksPerRank);
}

} // namespace
} // namespace dbpsim

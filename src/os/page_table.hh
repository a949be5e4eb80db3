/**
 * @file
 * A per-thread virtual-page -> physical-frame table. Kept deliberately
 * simple: the OS model allocates on first touch and never swaps or
 * unmaps.
 *
 * Layout: a chained hash with 32-bit indices instead of pointers. Each
 * mapping is one 16-byte node {vpage, frame, next} in a pool of
 * fixed-size chunks, and a power-of-two array of 32-bit bucket heads
 * doubles when the load factor passes 1: 20-24 bytes per page, against
 * about 44 for a node-based std::unordered_map. The pool grows one
 * chunk at a time, so only the bucket array is ever copied on growth
 * (see DESIGN.md "OS page table"). An empty table allocates nothing.
 */

#ifndef DBPSIM_OS_PAGE_TABLE_HH
#define DBPSIM_OS_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace dbpsim {

/**
 * Virtual page number -> physical frame number map for one thread.
 */
class PageTable
{
  public:
    /** Frames are stored in 32 bits: numbers in [0, kMaxFrames). */
    static constexpr std::uint64_t kMaxFrames = std::uint64_t{1} << 32;

    PageTable() = default;

    /** Look up @p vpage; returns true and sets @p frame on a hit. */
    bool lookup(std::uint64_t vpage, std::uint64_t &frame) const;

    /** Install a mapping; @p vpage must not already be mapped. */
    void map(std::uint64_t vpage, std::uint64_t frame);

    /** Replace an existing mapping (page migration). */
    void remap(std::uint64_t vpage, std::uint64_t frame);

    /** Number of mapped pages. */
    std::size_t size() const { return size_; }

    /**
     * Visit every (vpage, frame) pair in ascending vpage order (the
     * order is part of the determinism contract: migration victim
     * selection walks this). The order comes from a sort of a copy,
     * never from the hash. Mutation during visit is UB.
     */
    template <typename Visit>
    void forEach(Visit &&visit) const
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
        entries.reserve(size_);
        forEachMapped([&](std::uint64_t vpage, std::uint64_t frame) {
            entries.emplace_back(vpage, frame);
        });
        std::sort(entries.begin(), entries.end());
        for (const auto &[vpage, frame] : entries)
            visit(vpage, frame);
    }

    /**
     * Visit every (vpage, frame) pair in the order the pages were
     * first mapped, without copying or sorting: for callers whose
     * result does not depend on the order (counts). Mutation during
     * visit is UB.
     */
    template <typename Visit>
    void forEachMapped(Visit &&visit) const
    {
        for (std::uint32_t i = 0; i < size_; ++i) {
            const Node &n = node(i);
            visit(n.vpage, std::uint64_t{n.frame});
        }
    }

  private:
    /** One mapping; @c next links the bucket chain (kNil ends it). */
    struct Node
    {
        std::uint64_t vpage;
        std::uint32_t frame;
        std::uint32_t next;
    };

    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr unsigned kChunkBits = 8; ///< 256 nodes = 4 KiB.
    static constexpr std::uint32_t kChunkNodes = 1u << kChunkBits;

    /** Node @p i of the pool; nodes are numbered in mapping order. */
    const Node &node(std::uint32_t i) const
    {
        return chunks_[i >> kChunkBits][i & (kChunkNodes - 1)];
    }
    Node &node(std::uint32_t i)
    {
        return chunks_[i >> kChunkBits][i & (kChunkNodes - 1)];
    }

    /** Multiplicative (Fibonacci) hash into the bucket array. */
    std::size_t bucketOf(std::uint64_t vpage) const
    {
        return static_cast<std::size_t>(
            (vpage * 0x9e3779b97f4a7c15ull) >> (64 - bucketBits_));
    }

    /** Index of @p vpage's node, or kNil. */
    std::uint32_t find(std::uint64_t vpage) const;

    /** Double the bucket array and relink every node in pool order. */
    void growBuckets();

    std::vector<std::unique_ptr<Node[]>> chunks_;
    std::vector<std::uint32_t> buckets_; ///< empty until the first map.
    unsigned bucketBits_ = 0;            ///< log2(buckets_.size()).
    std::uint32_t size_ = 0;
};

} // namespace dbpsim

#endif // DBPSIM_OS_PAGE_TABLE_HH

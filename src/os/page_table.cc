#include "os/page_table.hh"

#include "common/log.hh"

namespace dbpsim {

std::uint32_t
PageTable::find(std::uint64_t vpage) const
{
    if (size_ == 0)
        return kNil;
    std::uint32_t i = buckets_[bucketOf(vpage)];
    while (i != kNil) {
        const Node &n = node(i);
        if (n.vpage == vpage)
            return i;
        i = n.next;
    }
    return kNil;
}

bool
PageTable::lookup(std::uint64_t vpage, std::uint64_t &frame) const
{
    std::uint32_t i = find(vpage);
    if (i == kNil)
        return false;
    frame = node(i).frame;
    return true;
}

void
PageTable::map(std::uint64_t vpage, std::uint64_t frame)
{
    DBP_ASSERT(frame < kMaxFrames, "frame " << frame << " exceeds 32 bits");
    DBP_ASSERT(find(vpage) == kNil, "vpage " << vpage << " already mapped");
    DBP_ASSERT(size_ < kNil, "page table full");
    if (size_ == chunks_.size() * kChunkNodes)
        chunks_.push_back(std::make_unique_for_overwrite<Node[]>(kChunkNodes));
    if (size_ == buckets_.size())
        growBuckets();
    std::uint32_t i = size_++;
    std::uint32_t &head = buckets_[bucketOf(vpage)];
    node(i) = Node{vpage, static_cast<std::uint32_t>(frame), head};
    head = i;
}

void
PageTable::remap(std::uint64_t vpage, std::uint64_t frame)
{
    DBP_ASSERT(frame < kMaxFrames, "frame " << frame << " exceeds 32 bits");
    std::uint32_t i = find(vpage);
    DBP_ASSERT(i != kNil, "remap of unmapped vpage " << vpage);
    node(i).frame = static_cast<std::uint32_t>(frame);
}

void
PageTable::growBuckets()
{
    // Start at one chunk's worth of heads, then double. Relinking in
    // pool order keeps the chains a function of the mapping sequence.
    bucketBits_ = buckets_.empty() ? kChunkBits : bucketBits_ + 1;
    std::vector<std::uint32_t> heads(std::size_t{1} << bucketBits_, kNil);
    for (std::uint32_t i = 0; i < size_; ++i) {
        Node &n = node(i);
        std::uint32_t &head = heads[bucketOf(n.vpage)];
        n.next = head;
        head = i;
    }
    buckets_.swap(heads);
}

} // namespace dbpsim

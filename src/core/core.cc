#include "core/core.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

TraceCore::TraceCore(ThreadId tid, CoreParams params, TraceSource *source,
                     CoreMemoryInterface *mem)
    : tid_(tid), params_(params), source_(source), mem_(mem),
      window_(std::size_t{params.windowSize} + 1),
      storeBuffer_(params.storeBufferSize)
{
    DBP_ASSERT(source_ != nullptr, "core needs a trace source");
    DBP_ASSERT(mem_ != nullptr, "core needs a memory interface");
    DBP_ASSERT(params_.windowSize > 0, "window size must be >= 1");
    DBP_ASSERT(params_.issueWidth > 0, "issue width must be >= 1");
    DBP_ASSERT(params_.mshrs > 0, "mshr count must be >= 1");
    DBP_ASSERT(params_.storeBufferSize > 0, "store buffer must be >= 1");
    mshrs_.resize(params_.mshrs);
}

void
TraceCore::fetch()
{
    // Keep fetching while the window has room, counted in
    // instructions. One trace record contributes its bubble run plus
    // the memory instruction itself.
    while (windowInstrs_ < params_.windowSize) {
        TraceRecord rec = source_->next();
        if (rec.gap > 0) {
            window_.push_back(Entry{.kind = Entry::Kind::Bubble,
                                    .count = rec.gap,
                                    .vaddr = 0,
                                    .issued = false,
                                    .completed = false,
                                    .mshr = 0});
            windowInstrs_ += rec.gap;
        }
        window_.push_back(Entry{
            .kind = rec.write ? Entry::Kind::Store : Entry::Kind::Load,
            .count = 0,
            .vaddr = rec.vaddr - rec.vaddr % params_.lineBytes,
            .issued = false,
            .completed = false,
            .mshr = 0});
        windowInstrs_ += 1;
    }
}

bool
TraceCore::tryIssueLoad(Entry &entry)
{
    Addr line = entry.vaddr;

    // Merge with an outstanding MSHR for the same line.
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
        if (mshrs_[i].valid && mshrs_[i].lineAddr == line) {
            entry.mshr = static_cast<std::uint32_t>(i);
            entry.issued = true;
            statMshrMerges.inc();
            return true;
        }
    }

    if (mshrInUse_ >= params_.mshrs) {
        statMshrStalls.inc();
        return false;
    }

    // Find a free MSHR slot; its index is the completion tag.
    std::size_t slot = mshrs_.size();
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
        if (!mshrs_[i].valid) {
            slot = i;
            break;
        }
    }
    DBP_ASSERT(slot < mshrs_.size(), "mshrInUse_ / valid mismatch");

    if (!mem_->issueLoad(tid_, line, this, slot))
        return false;

    mshrs_[slot].valid = true;
    mshrs_[slot].lineAddr = line;
    ++mshrInUse_;
    entry.mshr = static_cast<std::uint32_t>(slot);
    entry.issued = true;
    statLoads.inc();
    return true;
}

void
TraceCore::issueLoads()
{
    for (auto &entry : window_) {
        if (entry.kind != Entry::Kind::Load || entry.issued)
            continue;
        if (!tryIssueLoad(entry))
            break; // in-order issue attempts; retry next cycle.
    }
}

void
TraceCore::readComplete(std::uint64_t tag)
{
    DBP_ASSERT(tag < mshrs_.size(), "bad completion tag " << tag);
    Mshr &m = mshrs_[tag];
    DBP_ASSERT(m.valid, "completion for free MSHR " << tag);

    for (auto &entry : window_) {
        if (entry.kind == Entry::Kind::Load && entry.issued &&
            !entry.completed && entry.mshr == tag)
            entry.completed = true;
    }
    m.valid = false;
    DBP_ASSERT(mshrInUse_ > 0, "mshrInUse_ underflow");
    --mshrInUse_;
}

void
TraceCore::drainStoreBuffer()
{
    if (storeBuffer_.empty())
        return;
    if (mem_->issueStore(tid_, storeBuffer_.front())) {
        storeBuffer_.pop_front();
        statStores.inc();
    }
}

void
TraceCore::retire()
{
    std::uint64_t budget = params_.issueWidth;
    while (budget > 0 && !window_.empty()) {
        Entry &head = window_.front();
        switch (head.kind) {
          case Entry::Kind::Bubble: {
            std::uint64_t take = std::min<std::uint64_t>(budget,
                                                         head.count);
            head.count -= take;
            budget -= take;
            retired_ += take;
            windowInstrs_ -= take;
            if (head.count == 0)
                window_.pop_front();
            break;
          }
          case Entry::Kind::Load: {
            if (!head.completed) {
                statHeadStalls.inc();
                return;
            }
            retired_ += 1;
            windowInstrs_ -= 1;
            --budget;
            window_.pop_front();
            break;
          }
          case Entry::Kind::Store: {
            if (storeBuffer_.size() >= params_.storeBufferSize) {
                statStoreStalls.inc();
                return;
            }
            storeBuffer_.push_back(head.vaddr);
            retired_ += 1;
            windowInstrs_ -= 1;
            --budget;
            window_.pop_front();
            break;
          }
        }
    }
}

void
TraceCore::tick()
{
    fetch();
    issueLoads();
    retire();
    drainStoreBuffer();
}

} // namespace dbpsim

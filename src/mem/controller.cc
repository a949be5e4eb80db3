#include "mem/controller.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

PagePolicy
pagePolicyByName(const std::string &name)
{
    if (name == "open")
        return PagePolicy::Open;
    if (name == "closed")
        return PagePolicy::Closed;
    if (name == "adaptive")
        return PagePolicy::OpenAdaptive;
    fatal("unknown page_policy '", name,
          "' (expected open|closed|adaptive)");
}

MemoryController::MemoryController(unsigned channel_id,
                                   const AddressMap &map,
                                   const DramTiming &timing,
                                   ControllerParams params,
                                   Scheduler *scheduler,
                                   ThreadProfiler *profiler)
    : map_(map), params_(params),
      channel_(map.geometry(), timing, channel_id, params.salp),
      refresh_(channel_, this, params.refresh), scheduler_(scheduler),
      profiler_(profiler), threads_(params.numThreads),
      banks_(static_cast<std::size_t>(channel_.numRanks()) *
             channel_.numBanks())
{
    DBP_ASSERT(scheduler_ != nullptr, "controller needs a scheduler");
    DBP_ASSERT(params_.numThreads > 0, "controller needs >= 1 thread");
    DBP_ASSERT(params_.writeLoWatermark < params_.writeHiWatermark,
               "write watermarks inverted");
    DBP_ASSERT(params_.writeHiWatermark <= params_.writeQueueSize,
               "write hi watermark exceeds queue size");
    readQ_.reserve(params_.readQueueSize);
    writeQ_.reserve(params_.writeQueueSize);
    // A read stays in flight tCL + tBURST cycles after its column
    // command, and the data bus carries one burst per tBURST, so no
    // more reads than this are ever in flight at once.
    inflight_.reserve(timing.tCL / timing.tBURST + 2);
    scheduler_->attachQueueView(this);
}

unsigned
MemoryController::colorOf(const DramCoord &coord) const
{
    return map_.colorOf(coord);
}

const ControllerThreadStats &
MemoryController::threadStats(ThreadId tid) const
{
    DBP_ASSERT(tid >= 0 &&
               static_cast<unsigned>(tid) < params_.numThreads,
               "bad thread id " << tid);
    return threads_[static_cast<unsigned>(tid)].stats;
}

const StatHistogram &
MemoryController::latencyHistogram(ThreadId tid) const
{
    DBP_ASSERT(tid >= 0 &&
               static_cast<unsigned>(tid) < params_.numThreads,
               "bad thread id " << tid);
    return threads_[static_cast<unsigned>(tid)].latency;
}

bool
MemoryController::enqueueRead(Addr paddr, ThreadId tid, MemClient *client,
                              std::uint64_t tag, Cycle now)
{
    // Write-to-read forwarding: a queued store to the same line
    // supplies the data without touching DRAM.
    for (const auto &w : writeQ_) {
        if (w.paddr == paddr) {
            forwarded_.push_back(Inflight{now + params_.forwardLatency,
                                          client, tag, tid, 0, 0, now});
            statWriteForwards.inc();
            return true;
        }
    }

    if (readQ_.size() >= params_.readQueueSize) {
        statReadQueueFull.inc();
        return false;
    }

    MemRequest req;
    req.paddr = paddr;
    req.coord = map_.decode(paddr);
    req.write = false;
    req.tid = tid;
    req.id = nextReqId_++;
    req.enqueueCycle = now;
    req.client = client;
    req.tag = tag;

    if (profiler_ && tid >= 0) {
        unsigned color = colorOf(req.coord);
        profiler_->onRequest(tid, color, req.coord.row);
        profiler_->onOutstandingInc(tid, color, req.coord.row);
    }
    scheduler_->onEnqueue(req);
    readQ_.push_back(req);
    statReadsEnqueued.inc();
    return true;
}

bool
MemoryController::enqueueWrite(Addr paddr, ThreadId tid, Cycle now)
{
    // Coalesce with an already-queued store to the same line.
    for (auto &w : writeQ_) {
        if (w.paddr == paddr) {
            statWriteCoalesced.inc();
            return true;
        }
    }

    if (writeQ_.size() >= params_.writeQueueSize) {
        statWriteQueueFull.inc();
        return false;
    }

    MemRequest req;
    req.paddr = paddr;
    req.coord = map_.decode(paddr);
    req.write = true;
    req.tid = tid;
    req.id = nextReqId_++;
    req.enqueueCycle = now;

    if (profiler_ && tid >= 0) {
        unsigned color = colorOf(req.coord);
        profiler_->onRequest(tid, color, req.coord.row);
        profiler_->onOutstandingInc(tid, color, req.coord.row, false);
    }
    writeQ_.push_back(req);
    statWritesEnqueued.inc();
    return true;
}

void
MemoryController::forEachPendingRead(
    const std::function<void(MemRequest &)> &fn)
{
    for (auto &req : readQ_)
        fn(req);
}

void
MemoryController::applyMigrationCost(unsigned rank, unsigned bank,
                                     Cycle now, Cycle busy_cycles)
{
    channel_.blockBank(rank, bank, now, busy_cycles);
}

void
MemoryController::completeReads(Cycle now)
{
    auto deliver = [&](std::vector<Inflight> &list, bool from_dram) {
        for (std::size_t i = 0; i < list.size();) {
            if (list[i].doneAt <= now) {
                Inflight f = list[i];
                list[i] = list.back();
                list.pop_back();

                if (f.tid >= 0 && static_cast<unsigned>(f.tid) <
                        params_.numThreads) {
                    ThreadService &ts =
                        threads_[static_cast<unsigned>(f.tid)];
                    ++ts.stats.readsCompleted;
                    ts.stats.readLatencySum += f.doneAt - f.enqueueCycle;
                    if (from_dram)
                        ts.latency.sample(static_cast<double>(
                            f.doneAt - f.enqueueCycle));
                }
                if (from_dram && profiler_ && f.tid >= 0)
                    profiler_->onOutstandingDec(f.tid, f.color, f.row);
                if (f.client)
                    f.client->readComplete(f.tag);
            } else {
                ++i;
            }
        }
    };
    deliver(forwarded_, false);
    deliver(inflight_, true);
}

bool
MemoryController::hasBankDemand(unsigned rank, unsigned bank) const
{
    for (const auto &req : readQ_)
        if (req.coord.rank == rank && req.coord.bank == bank)
            return true;
    for (const auto &req : writeQ_)
        if (req.coord.rank == rank && req.coord.bank == bank)
            return true;
    return false;
}

bool
MemoryController::hasRankDemand(unsigned rank) const
{
    for (const auto &req : readQ_)
        if (req.coord.rank == rank)
            return true;
    for (const auto &req : writeQ_)
        if (req.coord.rank == rank)
            return true;
    return false;
}

void
MemoryController::updateDrainMode()
{
    if (writeMode_) {
        if (writeQ_.size() <= params_.writeLoWatermark)
            writeMode_ = false;
    } else {
        if (writeQ_.size() >= params_.writeHiWatermark)
            writeMode_ = true;
        else if (readQ_.empty() && inflight_.empty() &&
                 writeQ_.size() >= params_.idleWriteThresh)
            writeMode_ = true;
    }
    if (writeMode_ && writeQ_.empty())
        writeMode_ = false;
}

MemoryController::NextCmd
MemoryController::nextCommandFor(const MemRequest &req,
                                 const std::vector<MemRequest> &queue) const
{
    NextCmd next;
    const SubarrayState &s =
        channel_.subarray(req.coord.rank, req.coord.bank, req.coord.row);
    bool hit = s.open && s.row == req.coord.row;

    bool masa = channel_.salpMode() == SalpMode::Masa;
    if (masa && hit &&
        channel_.bank(req.coord.rank, req.coord.bank).designated !=
            channel_.subarrayOf(req.coord.row)) {
        // Row already open locally: relink the global bitlines instead
        // of precharging.
        next.cmd = DramCmd::SaSel;
        next.row = req.coord.row;
        next.valid = true;
        return next;
    }
    // The row buffer the request must get past: its own subarray's if
    // that is open; else, outside MASA, the bank's single open row in
    // another subarray (under MASA other subarrays never conflict).
    const SubarrayState *open = &s;
    if (!s.open)
        open = masa ? nullptr
                    : channel_.openSubarray(req.coord.rank, req.coord.bank);

    if (!open) {
        next.cmd = DramCmd::Activate;
        next.row = req.coord.row;
        next.valid = true;
        return next;
    }
    if (hit) {
        bool auto_pre = false;
        if (params_.pagePolicy == PagePolicy::Closed) {
            // Auto-precharge unless another queued request still wants
            // this row.
            auto_pre = true;
            for (const auto &other : queue) {
                if (&other != &req &&
                    other.coord.rank == req.coord.rank &&
                    other.coord.bank == req.coord.bank &&
                    other.coord.row == req.coord.row) {
                    auto_pre = false;
                    break;
                }
            }
        }
        if (req.write)
            next.cmd = auto_pre ? DramCmd::WriteAp : DramCmd::Write;
        else
            next.cmd = auto_pre ? DramCmd::ReadAp : DramCmd::Read;
        next.row = req.coord.row;
        next.valid = true;
        return next;
    }
    // Conflict: the row buffer holds a different row.
    next.cmd = DramCmd::Precharge;
    next.row = open->row;
    next.valid = true;
    return next;
}

bool
MemoryController::issueFromQueue(std::vector<MemRequest> &queue,
                                 bool writes, Cycle now)
{
    if (queue.empty())
        return false;

    SchedContext ctx{channel_, now, &refresh_};

    // Pass 1: per (rank, bank), find the highest-priority queued
    // request that is a row hit — the precharge guard. A request may
    // close a row only if it outranks every queued hit on that row.
    for (BankSlot &b : banks_)
        b.bestHit = nullptr;
    for (const auto &req : queue) {
        if (!ctx.rowHit(req))
            continue;
        const MemRequest *&best =
            bankSlot(req.coord.rank, req.coord.bank).bestHit;
        if (!best || scheduler_->higherPriority(req, *best, ctx))
            best = &req;
    }

    // Pass 2: among requests whose next command is legal right now,
    // pick the highest-priority one.
    std::size_t best_idx = queue.size();
    NextCmd best_cmd;
    bool best_boost = false;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const MemRequest &req = queue[i];
        if (refresh_.blocks(req.coord.rank, req.coord.bank))
            continue;
        NextCmd nc = nextCommandFor(req, queue);
        if (nc.cmd == DramCmd::Precharge) {
            const MemRequest *hit =
                bankSlot(req.coord.rank, req.coord.bank).bestHit;
            if (hit && !scheduler_->higherPriority(req, *hit, ctx))
                continue; // would destroy a higher-priority row hit.
        }
        if (!channel_.canIssue(nc.cmd, req.coord.rank, req.coord.bank,
                               nc.row, now))
            continue;
        // Refresh-aware arbitration: requests on a bank whose refresh
        // debt is nearly exhausted drain first, so the bank goes idle
        // before the refresh turns urgent. drainBoost() is always
        // false outside aware mode, leaving the order untouched.
        const bool boost =
            refresh_.drainBoost(req.coord.rank, req.coord.bank);
        if (best_idx == queue.size() || (boost && !best_boost) ||
            (boost == best_boost &&
             scheduler_->higherPriority(req, queue[best_idx], ctx))) {
            best_idx = i;
            best_cmd = nc;
            best_boost = boost;
        }
    }
    if (best_idx == queue.size())
        return false;

    MemRequest &req = queue[best_idx];
    bool row_hit_service = false;
    switch (best_cmd.cmd) {
      case DramCmd::Activate:
        channel_.issue(best_cmd.cmd, req.coord.rank, req.coord.bank,
                       best_cmd.row, now, req.tid);
        req.triggeredAct = true;
        return true;
      case DramCmd::Precharge:
        channel_.issue(best_cmd.cmd, req.coord.rank, req.coord.bank,
                       best_cmd.row, now, req.tid);
        req.triggeredAct = true; // a conflict service, not a hit.
        return true;
      case DramCmd::SaSel:
        // Relink only; the row stays open, so the later column
        // command still counts as a row-hit service.
        channel_.issue(best_cmd.cmd, req.coord.rank, req.coord.bank,
                       best_cmd.row, now, req.tid);
        return true;
      case DramCmd::Read:
      case DramCmd::ReadAp:
      case DramCmd::Write:
      case DramCmd::WriteAp: {
        Cycle done = channel_.issue(best_cmd.cmd, req.coord.rank,
                                    req.coord.bank, best_cmd.row, now,
                                    req.tid);
        bankSlot(req.coord.rank, req.coord.bank).lastColumnUse = now;
        row_hit_service = !req.triggeredAct;
        if (req.tid >= 0 &&
            static_cast<unsigned>(req.tid) < params_.numThreads) {
            ControllerThreadStats &ts =
                threads_[static_cast<unsigned>(req.tid)].stats;
            if (row_hit_service)
                ++ts.rowHits;
            else
                ++ts.rowMisses;
            if (writes)
                ++ts.writes;
            else
                ++ts.reads;
        }
        if (writes) {
            if (profiler_ && req.tid >= 0)
                profiler_->onOutstandingDec(req.tid, colorOf(req.coord),
                                            req.coord.row, false);
        } else {
            scheduler_->onDequeue(req);
            MemRequest completed = req; // copy before erase.
            inflight_.push_back(Inflight{done, completed.client,
                                         completed.tag, completed.tid,
                                         colorOf(completed.coord),
                                         completed.coord.row,
                                         completed.enqueueCycle});
            scheduler_->onComplete(completed, done);
        }
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(best_idx));
        return true;
      }
      case DramCmd::Refresh:
      case DramCmd::RefreshBank:
        DBP_PANIC("refresh cannot come from the request path");
    }
    return false;
}

bool
MemoryController::closeIdleRows(Cycle now)
{
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        for (unsigned b = 0; b < channel_.numBanks(); ++b) {
            const SubarrayState *open = channel_.openSubarray(r, b);
            if (!open)
                continue;
            Cycle last = bankSlot(r, b).lastColumnUse;
            if (now < last + params_.rowIdleTimeout)
                continue;
            // Keep the row open while anyone still wants it.
            bool wanted = false;
            for (const auto &req : readQ_) {
                if (req.coord.rank == r && req.coord.bank == b &&
                    req.coord.row == open->row) {
                    wanted = true;
                    break;
                }
            }
            for (const auto &req : writeQ_) {
                if (wanted)
                    break;
                if (req.coord.rank == r && req.coord.bank == b &&
                    req.coord.row == open->row)
                    wanted = true;
            }
            if (wanted)
                continue;
            // Address the PRE to the open row so it closes the right
            // subarray.
            if (channel_.canIssue(DramCmd::Precharge, r, b, open->row,
                                  now)) {
                channel_.issue(DramCmd::Precharge, r, b, open->row, now);
                statIdleRowCloses.inc();
                return true;
            }
        }
    }
    return false;
}

void
MemoryController::tick(Cycle now)
{
    completeReads(now);

    if (refresh_.tick(now))
        return; // command bus consumed by refresh management.

    updateDrainMode();

    bool issued;
    if (writeMode_)
        issued = issueFromQueue(writeQ_, true, now);
    else
        issued = issueFromQueue(readQ_, false, now);

    // OpenAdaptive: spend an otherwise idle command slot closing rows
    // nobody wants anymore, hiding tRP from the next conflict.
    if (!issued && params_.pagePolicy == PagePolicy::OpenAdaptive)
        closeIdleRows(now);
}

} // namespace dbpsim

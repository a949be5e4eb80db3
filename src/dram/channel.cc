#include "dram/channel.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

const char *
dramCmdName(DramCmd cmd)
{
    switch (cmd) {
      case DramCmd::Activate: return "ACT";
      case DramCmd::Precharge: return "PRE";
      case DramCmd::Read: return "RD";
      case DramCmd::Write: return "WR";
      case DramCmd::ReadAp: return "RDA";
      case DramCmd::WriteAp: return "WRA";
      case DramCmd::SaSel: return "SASEL";
      case DramCmd::Refresh: return "REF";
      case DramCmd::RefreshBank: return "REFpb";
    }
    DBP_PANIC("unreachable DramCmd");
}

DramChannel::DramChannel(const DramGeometry &geom, const DramTiming &timing,
                         unsigned channel_id, SalpMode salp)
    : timing_(timing), id_(channel_id), banksPerRank_(geom.banksPerRank),
      salp_(salp),
      subarraysPerBank_(salp == SalpMode::None ? 1 : geom.subarraysPerBank)
{
    std::string err = timing.validate();
    if (!err.empty())
        fatal("invalid DRAM timing: ", err);

    ranks_.resize(geom.ranksPerChannel);
    banks_.resize(static_cast<std::size_t>(geom.ranksPerChannel)
                  * banksPerRank_);
    subs_.resize(banks_.size() * subarraysPerBank_);

    // Stagger initial refresh deadlines so ranks don't refresh in
    // lock-step (matches real controllers and avoids bus storms).
    for (unsigned r = 0; r < ranks_.size(); ++r)
        ranks_[r].refreshDueAt = timing_.tREFI * (r + 1)
            / ranks_.size();
}

const BankState &
DramChannel::bank(unsigned rank, unsigned bank_idx) const
{
    DBP_ASSERT(rank < ranks_.size(), "rank out of range");
    DBP_ASSERT(bank_idx < banksPerRank_, "bank out of range");
    return banks_[bankIndex(rank, bank_idx)];
}

const SubarrayState &
DramChannel::subarray(unsigned rank, unsigned bank_idx,
                      std::uint64_t row) const
{
    DBP_ASSERT(rank < ranks_.size(), "rank out of range");
    DBP_ASSERT(bank_idx < banksPerRank_, "bank out of range");
    return subsOf(rank, bank_idx)[subarrayOf(row)];
}

const SubarrayState *
DramChannel::openSubarray(unsigned rank, unsigned bank_idx) const
{
    std::span<const SubarrayState> subs = subsOf(rank, bank_idx);
    const SubarrayState &designated =
        subs[bank(rank, bank_idx).designated];
    if (designated.open)
        return &designated;
    for (const SubarrayState &s : subs)
        if (s.open)
            return &s;
    return nullptr;
}

const RankState &
DramChannel::rank(unsigned rank_idx) const
{
    DBP_ASSERT(rank_idx < ranks_.size(), "rank out of range");
    return ranks_[rank_idx];
}

bool
DramChannel::rowOpen(unsigned rank, unsigned bank_idx,
                     std::uint64_t row) const
{
    const SubarrayState &s = subarray(rank, bank_idx, row);
    return s.open && s.row == row;
}

bool
DramChannel::fawBlocked(const RankState &r, Cycle now) const
{
    if (r.actWindowFill < 4)
        return false;
    // The oldest of the last four ACTs is at actWindowPtr (next to be
    // overwritten). A fifth ACT must wait tFAW after it.
    Cycle oldest = r.actWindow[r.actWindowPtr];
    return now < oldest + timing_.tFAW;
}

bool
DramChannel::dataBusOk(unsigned rank, bool is_write, Cycle now) const
{
    Cycle data_start = now + (is_write ? timing_.tCWL : timing_.tCL);
    Cycle required = dataBusFreeAt_;
    bool switch_penalty = lastDataRank_ >= 0 &&
        (static_cast<unsigned>(lastDataRank_) != rank ||
         lastDataWrite_ != is_write);
    if (switch_penalty)
        required += timing_.tRTRS;
    return data_start >= required;
}

void
DramChannel::occupyDataBus(unsigned rank, bool is_write, Cycle data_end)
{
    dataBusFreeAt_ = data_end;
    lastDataRank_ = static_cast<int>(rank);
    lastDataWrite_ = is_write;
}

bool
DramChannel::refreshable(unsigned rank_idx, unsigned bank_idx,
                         Cycle now) const
{
    // Every subarray must be closed and past its precharge recovery
    // (tRP is folded into nextActivate by the PRE effect).
    for (const SubarrayState &s : subsOf(rank_idx, bank_idx))
        if (s.open || now < s.nextActivate)
            return false;
    return true;
}

void
DramChannel::holdBank(unsigned rank_idx, unsigned bank_idx, Cycle until)
{
    for (SubarrayState &s : subsOf(rank_idx, bank_idx)) {
        s.nextActivate = std::max(s.nextActivate, until);
        s.nextPrecharge = std::max(s.nextPrecharge, until);
        s.nextRead = std::max(s.nextRead, until);
        s.nextWrite = std::max(s.nextWrite, until);
    }
}

bool
DramChannel::canIssue(DramCmd cmd, unsigned rank_idx, unsigned bank_idx,
                      std::uint64_t row, Cycle now) const
{
    DBP_ASSERT(rank_idx < ranks_.size(), "rank out of range");
    const RankState &r = ranks_[rank_idx];

    if (cmd != DramCmd::Refresh)
        DBP_ASSERT(bank_idx < banksPerRank_, "bank out of range");

    // A refreshing rank accepts nothing until tRFC elapses. (Bank
    // nextActivate is also pushed out by refresh, but column commands
    // and precharges must be blocked explicitly.)
    if (r.refreshing(now))
        return false;

    if (cmd == DramCmd::Refresh) {
        for (unsigned b = 0; b < banksPerRank_; ++b)
            if (!refreshable(rank_idx, b, now))
                return false;
        return true;
    }

    const BankState &b = banks_[bankIndex(rank_idx, bank_idx)];
    unsigned si = subarrayOf(row);
    const SubarrayState &s = subsOf(rank_idx, bank_idx)[si];
    bool hit = s.open && s.row == row;

    switch (cmd) {
      case DramCmd::Activate:
        // Unless MASA, at most one subarray holds an open row; the ACT
        // may still overlap another subarray's in-flight precharge
        // (its nextActivate is not consulted).
        if (s.open)
            return false;
        if (!multiOpen())
            for (const SubarrayState &o : subsOf(rank_idx, bank_idx))
                if (o.open)
                    return false;
        return now >= s.nextActivate && now >= r.nextActivate &&
               !fawBlocked(r, now);
      case DramCmd::Precharge:
        return now >= s.nextPrecharge;
      case DramCmd::Read:
      case DramCmd::ReadAp:
        return hit && linked(b, si, now) && now >= s.nextRead &&
               now >= r.nextRead && now >= nextColCmd_ &&
               dataBusOk(rank_idx, false, now);
      case DramCmd::Write:
      case DramCmd::WriteAp:
        return hit && linked(b, si, now) && now >= s.nextWrite &&
               now >= nextColCmd_ && dataBusOk(rank_idx, true, now);
      case DramCmd::SaSel:
        // Relinks serialize: the previous one must have completed.
        return designatedColumns() && hit && now >= b.designateReadyAt;
      case DramCmd::RefreshBank:
        // Like an ACT slot: the target bank must be closed and past
        // its precharge recovery; other banks are unaffected.
        return refreshable(rank_idx, bank_idx, now);
      case DramCmd::Refresh:
        break;
    }
    DBP_PANIC("unreachable DramCmd");
}

Cycle
DramChannel::issue(DramCmd cmd, unsigned rank_idx, unsigned bank_idx,
                   std::uint64_t row, Cycle now, ThreadId tid)
{
    DBP_ASSERT(canIssue(cmd, rank_idx, bank_idx, row, now),
               "illegal " << dramCmdName(cmd) << " to ch" << id_
               << " rank" << rank_idx << " bank" << bank_idx
               << " row" << row << " at cycle " << now);

    if (observer_) {
        CmdEvent ev;
        ev.channel = id_;
        ev.cmd = cmd;
        ev.rank = rank_idx;
        ev.bank = bank_idx;
        ev.row = row;
        ev.cycle = now;
        ev.tid = tid;
        observer_->onCommand(ev);
    }

    RankState &r = ranks_[rank_idx];

    if (cmd == DramCmd::Refresh) {
        for (unsigned b = 0; b < banksPerRank_; ++b)
            for (SubarrayState &s : subsOf(rank_idx, b))
                s.nextActivate = std::max(s.nextActivate,
                                          now + timing_.tRFC);
        r.refreshDoneAt = now + timing_.tRFC;
        r.refreshDueAt += timing_.tREFI;
        r.lastRefreshAt = now;
        statRefreshes.inc();
        return 0;
    }

    BankState &b = banks_[bankIndex(rank_idx, bank_idx)];
    unsigned si = subarrayOf(row);
    SubarrayState &s = subsOf(rank_idx, bank_idx)[si];

    switch (cmd) {
      case DramCmd::Activate:
        s.open = true;
        s.row = row;
        s.nextRead = std::max(s.nextRead, now + timing_.tRCD);
        s.nextWrite = std::max(s.nextWrite, now + timing_.tRCD);
        s.nextPrecharge = std::max(s.nextPrecharge, now + timing_.tRAS);
        s.nextActivate = std::max(s.nextActivate, now + timing_.tRC);
        // The freshest activation drives the global bitlines; under
        // MASA a later SA_SEL can hand them back to an older row.
        b.designated = si;
        b.designateReadyAt = now;
        r.nextActivate = std::max(r.nextActivate, now + timing_.tRRD);
        r.actWindow[r.actWindowPtr] = now;
        r.actWindowPtr = (r.actWindowPtr + 1) % 4;
        if (r.actWindowFill < 4)
            ++r.actWindowFill;
        statActs.inc();
        return 0;
      case DramCmd::Precharge:
        // The precharge completes internally only once write recovery
        // is over. Without deferPrecharge() the PRE could not issue
        // before that anyway, so this is then simply now.
        s.open = false;
        s.nextActivate = std::max(
            s.nextActivate, std::max(now, s.wrRecoveryAt) + timing_.tRP);
        statPrecharges.inc();
        return 0;
      case DramCmd::Read:
      case DramCmd::ReadAp: {
        Cycle data_end = now + timing_.tCL + timing_.tBURST;
        occupyDataBus(rank_idx, false, data_end);
        nextColCmd_ = now + timing_.tCCD;
        s.nextPrecharge = std::max(s.nextPrecharge, now + timing_.tRTP);
        if (cmd == DramCmd::ReadAp) {
            s.open = false;
            s.nextActivate = std::max(
                s.nextActivate, now + timing_.tRTP + timing_.tRP);
            statPrecharges.inc();
        }
        statReads.inc();
        return data_end;
      }
      case DramCmd::Write:
      case DramCmd::WriteAp: {
        Cycle data_end = now + timing_.tCWL + timing_.tBURST;
        occupyDataBus(rank_idx, true, data_end);
        nextColCmd_ = now + timing_.tCCD;
        // SALP-2/MASA's second row-address latch lets the PRE itself
        // issue at the data end; otherwise it waits out tWR.
        s.wrRecoveryAt = std::max(s.wrRecoveryAt, data_end + timing_.tWR);
        s.nextPrecharge = std::max(
            s.nextPrecharge, deferPrecharge() ? data_end : s.wrRecoveryAt);
        r.nextRead = std::max(r.nextRead, data_end + timing_.tWTR);
        if (cmd == DramCmd::WriteAp) {
            s.open = false;
            s.nextActivate = std::max(
                s.nextActivate, data_end + timing_.tWR + timing_.tRP);
            statPrecharges.inc();
        }
        statWrites.inc();
        return data_end;
      }
      case DramCmd::SaSel:
        b.designated = si;
        b.designateReadyAt = now + timing_.tSA;
        statSaSels.inc();
        return 0;
      case DramCmd::RefreshBank:
        b.refreshUntil = now + timing_.tRFCpb;
        holdBank(rank_idx, bank_idx, b.refreshUntil);
        statRefreshesPb.inc();
        return 0;
      case DramCmd::Refresh:
        break;
    }
    DBP_PANIC("unreachable DramCmd");
}

bool
DramChannel::refreshPending(unsigned rank_idx, Cycle now) const
{
    DBP_ASSERT(rank_idx < ranks_.size(), "rank out of range");
    const RankState &r = ranks_[rank_idx];
    return !r.refreshing(now) && now >= r.refreshDueAt;
}

void
DramChannel::blockBank(unsigned rank_idx, unsigned bank_idx, Cycle now,
                       Cycle busy)
{
    DBP_ASSERT(rank_idx < ranks_.size(), "rank out of range");
    DBP_ASSERT(bank_idx < banksPerRank_, "bank out of range");
    holdBank(rank_idx, bank_idx, now + busy);
}

} // namespace dbpsim

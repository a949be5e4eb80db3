#include "dram/refresh.hh"

#include "common/log.hh"

namespace dbpsim {

const char *
refreshModeName(RefreshMode mode)
{
    switch (mode) {
      case RefreshMode::None: return "none";
      case RefreshMode::AllBank: return "allbank";
      case RefreshMode::PerBank: return "perbank";
    }
    DBP_PANIC("unreachable RefreshMode");
}

RefreshMode
refreshModeByName(const std::string &name)
{
    if (name == "none")
        return RefreshMode::None;
    if (name == "allbank" || name == "all-bank")
        return RefreshMode::AllBank;
    if (name == "perbank" || name == "per-bank")
        return RefreshMode::PerBank;
    fatal("unknown refresh mode '", name,
          "' (expected none|allbank|perbank)");
}

RefreshEngine::RefreshEngine(DramChannel &channel,
                             const RefreshDemandView *demand,
                             RefreshParams params)
    : channel_(channel), demand_(demand), params_(params),
      trefi_(channel.timing().tREFI),
      pullInWindow_(static_cast<Cycle>(params.postponeMax) *
                    channel.timing().tREFI),
      banksPerRank_(channel.numBanks()),
      banks_(static_cast<std::size_t>(channel.numRanks()) *
             channel.numBanks())
{
    DBP_ASSERT(params_.postponeMax >= 1,
               "refresh postpone window must be >= 1");
    // Stagger the REFpb slots evenly across the whole channel so
    // per-bank refreshes spread over tREFI instead of bursting (the
    // per-bank analogue of the channel's rank stagger).
    const Cycle n = banks_.size();
    for (Cycle i = 0; i < n; ++i)
        banks_[i].dueAt = trefi_ * (i + 1) / n;
}

const RefreshEngine::BankRefresh &
RefreshEngine::checkedSlot(unsigned rank, unsigned bank) const
{
    DBP_ASSERT(rank < channel_.numRanks() && bank < banksPerRank_,
               "refresh: bank (" << rank << ", " << bank
                                 << ") out of range");
    return slot(rank, bank);
}

void
RefreshEngine::setRank(unsigned rank, bool BankRefresh::*flag, bool value)
{
    for (unsigned b = 0; b < banksPerRank_; ++b)
        slot(rank, b).*flag = value;
}

bool
RefreshEngine::blocks(unsigned rank, unsigned bank) const
{
    return slot(rank, bank).blocked;
}

bool
RefreshEngine::drainBoost(unsigned rank, unsigned bank) const
{
    return slot(rank, bank).boost;
}

std::uint64_t
RefreshEngine::debt(unsigned rank, Cycle now) const
{
    const RankState &rs = channel_.rank(rank);
    if (now < rs.refreshDueAt)
        return 0;
    return (now - rs.refreshDueAt) / trefi_ + 1;
}

std::uint64_t
RefreshEngine::bankDebt(unsigned rank, unsigned bank, Cycle now) const
{
    Cycle due = checkedSlot(rank, bank).dueAt;
    if (now < due)
        return 0;
    return (now - due) / trefi_ + 1;
}

Cycle
RefreshEngine::bankDueAt(unsigned rank, unsigned bank) const
{
    return checkedSlot(rank, bank).dueAt;
}

Cycle
RefreshEngine::lastRefreshAt(unsigned rank) const
{
    return channel_.rank(rank).lastRefreshAt;
}

Cycle
RefreshEngine::lastRefreshAt(unsigned rank, unsigned bank) const
{
    return checkedSlot(rank, bank).lastRefreshAt;
}

bool
RefreshEngine::rankIdle(unsigned rank) const
{
    // Without a demand view the engine must assume demand everywhere:
    // no pull-in, postpone until forced.
    return demand_ && !demand_->hasRankDemand(rank);
}

bool
RefreshEngine::bankIdle(unsigned rank, unsigned bank) const
{
    return demand_ && !demand_->hasBankDemand(rank, bank);
}

bool
RefreshEngine::prechargeOne(unsigned rank, Cycle now)
{
    for (unsigned b = 0; b < channel_.numBanks(); ++b) {
        // PRE addressed to the open row so it closes the right
        // subarray.
        const SubarrayState *open = channel_.openSubarray(rank, b);
        if (open &&
            channel_.canIssue(DramCmd::Precharge, rank, b, open->row,
                              now)) {
            channel_.issue(DramCmd::Precharge, rank, b, open->row, now);
            return true;
        }
    }
    return false;
}

bool
RefreshEngine::tick(Cycle now)
{
    if (trefi_ == 0)
        return false; // refresh disabled at the timing level.
    switch (params_.mode) {
      case RefreshMode::None:
        return false;
      case RefreshMode::AllBank:
        return params_.aware ? tickAllBankAware(now) : tickAllBank(now);
      case RefreshMode::PerBank:
        return tickPerBank(now);
    }
    DBP_PANIC("unreachable RefreshMode");
}

bool
RefreshEngine::tickAllBank(Cycle now)
{
    // The reference all-bank sequence: once a rank's deadline passes,
    // hold its requests back, close open banks, and issue REF as soon
    // as the rank is quiet. One command per cycle across all ranks.
    bool issued = false;
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        setRank(r, &BankRefresh::blocked, false);
        if (!channel_.refreshPending(r, now))
            continue;
        setRank(r, &BankRefresh::blocked, true);
        if (issued)
            continue; // command bus already used this cycle.
        if (channel_.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
            channel_.issue(DramCmd::Refresh, r, 0, 0, now);
            setRank(r, &BankRefresh::blocked, false);
            issued = true;
            continue;
        }
        if (prechargeOne(r, now))
            issued = true;
    }
    return issued;
}

bool
RefreshEngine::tickAllBankAware(Cycle now)
{
    bool issued = false;
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        setRank(r, &BankRefresh::blocked, false);
        setRank(r, &BankRefresh::boost, false);
        const RankState &rs = channel_.rank(r);
        if (rs.refreshing(now))
            continue;
        const std::uint64_t d = debt(r, now);
        // Two independent deadlines force a refresh: the schedule debt
        // exhausting the postpone window, and the device bound on the
        // issue-to-issue gap (after a pull-in burst the schedule is
        // ahead, but the gap clock keeps running).
        const Cycle gap = now - rs.lastRefreshAt;

        if (d >= params_.postponeMax || gap >= pullInWindow_) {
            // Postpone window exhausted: force, as the non-aware
            // engine would from the start.
            setRank(r, &BankRefresh::blocked, true);
            if (issued)
                continue;
            if (channel_.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
                channel_.issue(DramCmd::Refresh, r, 0, 0, now);
                setRank(r, &BankRefresh::blocked, false);
                issued = true;
                continue;
            }
            if (prechargeOne(r, now))
                issued = true;
            continue;
        }
        if (d + 1 >= params_.postponeMax || gap + trefi_ >= pullInWindow_)
            setRank(r, &BankRefresh::boost, true);
        if (issued)
            continue;
        // Pull refreshes into idle periods; catch up on owed ones.
        if (!rankIdle(r))
            continue;
        const bool owed = d > 0;
        if (!owed && rs.refreshDueAt - now >= pullInWindow_)
            continue; // 8-deep pull-in credit already banked.
        if (channel_.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
            channel_.issue(DramCmd::Refresh, r, 0, 0, now);
            issued = true;
        } else if (owed && prechargeOne(r, now)) {
            issued = true;
        }
    }
    return issued;
}

bool
RefreshEngine::tickPerBank(Cycle now)
{
    const unsigned banks = channel_.numBanks();
    bool issued = false;
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        setRank(r, &BankRefresh::blocked, false);
        setRank(r, &BankRefresh::boost, false);
        const RankState &rs = channel_.rank(r);
        if (rs.refreshing(now))
            continue; // defensive: an all-bank REF is in flight.

        // Forced pass: the bank whose force deadline is furthest in
        // the past must refresh now. Non-aware engines force as soon
        // as the nominal deadline passes (strict round-robin by
        // stagger); aware engines once the postpone debt is exhausted
        // — or once the issue-to-issue gap nears the device bound,
        // whichever comes first (the gap clock matters after a
        // pull-in burst banked schedule credit).
        const std::uint64_t force_at = params_.aware
            ? static_cast<std::uint64_t>(params_.postponeMax) : 1;
        auto forceDeadline = [&](unsigned b) {
            const BankRefresh &br = slot(r, b);
            Cycle by_debt = br.dueAt + (force_at - 1) * trefi_;
            if (!params_.aware)
                return by_debt;
            Cycle by_gap = br.lastRefreshAt + pullInWindow_;
            return by_debt < by_gap ? by_debt : by_gap;
        };
        unsigned forced = banks;
        for (unsigned b = 0; b < banks; ++b) {
            if (now < forceDeadline(b))
                continue;
            if (forced == banks ||
                forceDeadline(b) < forceDeadline(forced))
                forced = b;
        }
        if (params_.aware) {
            // One tREFI from the forced bound: drain with priority.
            for (unsigned b = 0; b < banks; ++b)
                if (now + trefi_ >= forceDeadline(b))
                    slot(r, b).boost = true;
        }
        if (forced != banks) {
            unsigned b = forced;
            BankRefresh &br = slot(r, b);
            br.blocked = true;
            if (issued)
                continue;
            const SubarrayState *open = channel_.openSubarray(r, b);
            if (open) {
                if (channel_.canIssue(DramCmd::Precharge, r, b, open->row,
                                      now)) {
                    channel_.issue(DramCmd::Precharge, r, b, open->row,
                                   now);
                    issued = true;
                }
            } else if (channel_.canIssue(DramCmd::RefreshBank, r, b, 0,
                                         now)) {
                channel_.issue(DramCmd::RefreshBank, r, b, 0, now);
                br.dueAt += trefi_;
                br.lastRefreshAt = now;
                br.blocked = false;
                issued = true;
            }
            continue;
        }
        if (!params_.aware || issued)
            continue;

        // Relaxed pass (aware only): refresh an idle bank — owed
        // first, then pull-ins within the credit window — reordering
        // away from banks with queued demand.
        unsigned pick = banks;
        unsigned open_pick = banks;
        for (unsigned b = 0; b < banks; ++b) {
            Cycle due = slot(r, b).dueAt;
            const bool owed = now >= due;
            if (!owed && due - now >= pullInWindow_)
                continue;
            if (!bankIdle(r, b))
                continue;
            const BankState &bs = channel_.bank(r, b);
            if (bs.refreshing(now))
                continue;
            const SubarrayState *open = channel_.openSubarray(r, b);
            if (!open &&
                channel_.canIssue(DramCmd::RefreshBank, r, b, 0, now)) {
                if (pick == banks || due < slot(r, pick).dueAt)
                    pick = b;
            } else if (open && owed &&
                       channel_.canIssue(DramCmd::Precharge, r, b,
                                         open->row, now)) {
                if (open_pick == banks ||
                    due < slot(r, open_pick).dueAt)
                    open_pick = b;
            }
        }
        if (pick != banks) {
            channel_.issue(DramCmd::RefreshBank, r, pick, 0, now);
            BankRefresh &br = slot(r, pick);
            br.dueAt += trefi_;
            br.lastRefreshAt = now;
            issued = true;
        } else if (open_pick != banks) {
            channel_.issue(DramCmd::Precharge, r, open_pick,
                           channel_.openSubarray(r, open_pick)->row,
                           now);
            issued = true;
        }
    }
    return issued;
}

} // namespace dbpsim

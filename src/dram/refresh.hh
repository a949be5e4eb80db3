/**
 * @file
 * Per-rank DRAM refresh engine.
 *
 * Owns the refresh *policy* for one channel; the DramChannel owns the
 * timing *mechanics* (what REF/REFpb do to bank and rank state). Three
 * modes:
 *
 *  - AllBank: DDR3 auto-refresh. When a rank's deadline passes, the
 *    rank is drained (its requests are held back, open banks are
 *    precharged) and an all-bank REF blocks the whole rank for tRFC.
 *    The non-aware variant replicates the controller behaviour the
 *    campaigns were calibrated against, decision for decision.
 *
 *  - PerBank: round-robin REFpb, one bank every tREFI / banksPerRank.
 *    Only the refreshing bank is blocked (for tRFCpb < tRFC); the
 *    other banks of the rank keep serving requests. With bank
 *    partitioning this means a thread only ever stalls on refreshes
 *    of its *own* banks — the refresh-access parallelism the DARP
 *    papers exploit.
 *
 *  - None: refresh disabled (idealized DRAM; the pre-refresh model).
 *
 * The refresh-aware option (DARP-style) changes *when* refreshes
 * issue, in both modes: refreshes are pulled into idle periods (up to
 * the JEDEC 8-deep pull-in credit), postponed while demand is pending
 * (up to the 8-deep postpone debt), and — per-bank mode — rotated
 * out of order, away from banks with queued requests. When the debt
 * reaches the postpone bound — or when the gap since the last issued
 * refresh approaches the (postponeMax + 1) * tREFI device bound, which
 * matters after a pull-in burst has banked credit — the refresh turns
 * urgent and is forced exactly like the non-aware variant, so the
 * JEDEC window is never exceeded.
 *
 * State: one flat array of per-bank records, [rank * banks + bank],
 * built once by the constructor (REFpb deadline, last REFpb issue,
 * the hold-back and drain-boost flags tick() recomputes). Rank-level
 * REF times live in the channel's RankState.
 */

#ifndef DBPSIM_DRAM_REFRESH_HH
#define DBPSIM_DRAM_REFRESH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/channel.hh"

namespace dbpsim {

/** Refresh policy selector (config key "refresh"). */
enum class RefreshMode
{
    None,    ///< no refresh at all (idealized DRAM).
    AllBank, ///< DDR3 all-bank REF, rank blocked for tRFC.
    PerBank, ///< round-robin REFpb, one bank blocked for tRFCpb.
};

/** Stable config-facing name ("none" | "allbank" | "perbank"). */
const char *refreshModeName(RefreshMode mode);

/** Parse a mode name; "darp" is not a mode (it sets aware too), so
 *  callers handle it separately. fatal() on unknown names. */
RefreshMode refreshModeByName(const std::string &name);

/**
 * Refresh engine configuration.
 */
struct RefreshParams
{
    RefreshMode mode = RefreshMode::AllBank;

    /** DARP-style refresh-aware issue (pull-in / postpone / reorder). */
    bool aware = false;

    /**
     * Refreshes that may be postponed past (or pulled in ahead of)
     * their nominal deadline; JEDEC DDR3 allows 8. Per-bank mode
     * applies the bound to each bank's own tREFI cadence.
     */
    unsigned postponeMax = 8;
};

/**
 * Demand feedback for refresh-aware decisions: does the controller
 * hold queued requests for a rank / bank? Implemented by the
 * controller; only consulted when RefreshParams::aware is set.
 */
class RefreshDemandView
{
  public:
    virtual ~RefreshDemandView() = default;

    /** Any queued read or write targeting (rank, bank)? */
    virtual bool hasBankDemand(unsigned rank, unsigned bank) const = 0;

    /** Any queued read or write targeting the rank at all? */
    virtual bool hasRankDemand(unsigned rank) const = 0;
};

/**
 * The engine. One instance per channel, driven once per bus cycle
 * before the request path; it may consume the command-bus slot.
 */
class RefreshEngine
{
  public:
    /**
     * @param channel The channel to refresh (not owned).
     * @param demand Demand view for aware mode; may be null (treated
     *               as never-idle, i.e. no pull-in, demand everywhere).
     * @param params Mode and window configuration.
     */
    RefreshEngine(DramChannel &channel, const RefreshDemandView *demand,
                  RefreshParams params);

    /**
     * One cycle of refresh management at bus cycle @p now. May issue
     * at most one command (REF, REFpb, or a draining PRE) on the
     * channel; returns true iff it did (the command bus is consumed).
     */
    bool tick(Cycle now);

    /**
     * True when the request path must hold back requests to
     * (rank, bank) so a due refresh can start: the whole rank during
     * an all-bank drain, only the target bank in per-bank mode.
     * Valid for the cycle of the last tick().
     */
    bool blocks(unsigned rank, unsigned bank) const;

    /**
     * Aware mode: true when (rank, bank) should be *drained with
     * priority* because its refresh debt is one tREFI away from the
     * forced bound. The controller boosts such requests so the bank
     * goes idle before the refresh turns urgent. Always false when
     * not aware.
     */
    bool drainBoost(unsigned rank, unsigned bank) const;

    /** Outstanding all-bank refresh debt of @p rank at @p now
     *  (number of owed-but-unissued REFs; 0 when ahead of schedule). */
    std::uint64_t debt(unsigned rank, Cycle now) const;

    /** Per-bank refresh debt of (rank, bank) at @p now. */
    std::uint64_t bankDebt(unsigned rank, unsigned bank,
                           Cycle now) const;

    /** Next per-bank refresh deadline (PerBank mode bookkeeping). */
    Cycle bankDueAt(unsigned rank, unsigned bank) const;

    /** Cycle of the last REF issued to @p rank (0 before the first). */
    Cycle lastRefreshAt(unsigned rank) const;

    /** Cycle of the last REFpb issued to (rank, bank). */
    Cycle lastRefreshAt(unsigned rank, unsigned bank) const;

    /** Parameters in use. */
    const RefreshParams &params() const { return params_; }

  private:
    bool tickAllBank(Cycle now);
    bool tickAllBankAware(Cycle now);
    bool tickPerBank(Cycle now);

    /** Precharge one open bank of @p rank; true if a PRE issued. */
    bool prechargeOne(unsigned rank, Cycle now);

    bool rankIdle(unsigned rank) const;
    bool bankIdle(unsigned rank, unsigned bank) const;

    /** Per-bank refresh state. */
    struct BankRefresh
    {
        Cycle dueAt = 0;         ///< next REFpb deadline; += tREFI.
        /** Issue time of the last REFpb. The device bounds the
         *  issue-to-issue gap, so aware engines force on elapsed time
         *  as well as on schedule debt. */
        Cycle lastRefreshAt = 0;
        bool blocked = false;    ///< hold requests back (tick()).
        bool boost = false;      ///< aware-mode drain priority (tick()).
    };

    BankRefresh &slot(unsigned rank, unsigned bank)
    {
        return banks_[rank * banksPerRank_ + bank];
    }
    const BankRefresh &slot(unsigned rank, unsigned bank) const
    {
        return banks_[rank * banksPerRank_ + bank];
    }

    /** Bounds-checked slot() for the introspection accessors. */
    const BankRefresh &checkedSlot(unsigned rank, unsigned bank) const;

    /** Set @p flag on every bank of @p rank. */
    void setRank(unsigned rank, bool BankRefresh::*flag, bool value);

    DramChannel &channel_;
    const RefreshDemandView *demand_;
    RefreshParams params_;

    Cycle trefi_;
    Cycle pullInWindow_; ///< postponeMax * tREFI.
    unsigned banksPerRank_;

    std::vector<BankRefresh> banks_; ///< [rank * banksPerRank_ + bank].
};

} // namespace dbpsim

#endif // DBPSIM_DRAM_REFRESH_HH

/**
 * @file
 * Per-bank DRAM state. A bank is an array of subarrays (subarray.hh),
 * each a local row buffer with its own earliest-next-command times;
 * salp=none is the one-subarray case. The channel stores each bank's
 * subarrays contiguously (DramChannel::subarray()); BankState holds
 * the fields they share: the MASA designated latch and the per-bank
 * refresh window. The channel is the only writer.
 */

#ifndef DBPSIM_DRAM_BANK_HH
#define DBPSIM_DRAM_BANK_HH

#include "common/types.hh"

namespace dbpsim {

/**
 * Per-bank state shared by a bank's subarrays.
 */
struct BankState
{
    /** Subarray linked to the global bitlines (MASA; an ACT
     *  designates its own subarray). */
    unsigned designated = 0;

    /** Cycle the designated link becomes usable (SA_SEL takes tSA). */
    Cycle designateReadyAt = 0;

    /** End of an in-flight per-bank refresh (REFpb); the subarrays'
     *  next* fields are pushed past it, this records it for
     *  introspection. */
    Cycle refreshUntil = 0;

    /** True while a per-bank refresh occupies this bank at @p now. */
    bool refreshing(Cycle now) const { return now < refreshUntil; }
};

} // namespace dbpsim

#endif // DBPSIM_DRAM_BANK_HH

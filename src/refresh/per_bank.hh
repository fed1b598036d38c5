/**
 * @file
 * Baseline per-bank refresh (REFpb): the LPDDR round-robin scheme of paper
 * Section 2.2.2. A REFpb command is due every tREFIpb; the DRAM-internal
 * counter dictates a strict sequential bank order, so the controller has
 * no say in which bank refreshes next, and refreshes take priority over
 * demands once due.
 */

#ifndef DSARP_REFRESH_PER_BANK_HH
#define DSARP_REFRESH_PER_BANK_HH

#include <deque>

#include "refresh/ledger.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

class PerBankScheduler : public RefreshScheduler
{
  public:
    PerBankScheduler(const MemConfig *cfg, const TimingParams *timing,
                     ControllerView *view);

    void tick(Tick now) override;
    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    bool opportunistic(Tick, RefreshRequest &) override { return false; }
    void onIssued(const RefreshRequest &req, Tick now) override;
    void onSrEnter(RankId rank, Tick now) override;
    void onSrExit(RankId rank, Tick now) override;

    /** Nothing changes between ledger accrual instants. */
    Tick nextWake(Tick) override { return ledger_.nextAccrualTick(); }

    /** Every request is blocking; nothing waits on legality. */
    Tick pullInReadyAt(Tick) const override { return kTickNever; }

    const RefreshLedger &ledger() const { return ledger_; }

    /** Next bank the round-robin order will refresh for a rank. */
    BankId rrIndex(RankId r) const { return rrIndex_[r]; }

  private:
    RefreshLedger ledger_;
    std::vector<BankId> rrIndex_;  ///< Internal round-robin counters.
    Tick lastTick_ = 0;
};

} // namespace dsarp

#endif // DSARP_REFRESH_PER_BANK_HH

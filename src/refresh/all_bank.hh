/**
 * @file
 * Baseline all-bank refresh (REFab): one rank-level refresh command per
 * tREFIab, issued on schedule with priority over demand requests (the
 * commodity DDR controller behaviour of paper Section 2.2.1).
 *
 * Also serves DDR4 FGR 2x/4x (Section 6.5): the factory hands it a
 * TimingParams whose tREFIab/tRFCab were already rate-scaled.
 */

#ifndef DSARP_REFRESH_ALL_BANK_HH
#define DSARP_REFRESH_ALL_BANK_HH

#include "refresh/ledger.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

class AllBankScheduler : public RefreshScheduler
{
  public:
    AllBankScheduler(const MemConfig *cfg, const TimingParams *timing,
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

  private:
    RefreshLedger ledger_;
};

} // namespace dsarp

#endif // DSARP_REFRESH_ALL_BANK_HH

/**
 * @file
 * Elastic refresh [Stuecheli et al., MICRO 2010], the prior-work policy
 * evaluated in paper Section 6.
 *
 * All-bank refreshes may be postponed (up to the JEDEC window of 8) while
 * the rank looks busy. A refresh is released when the rank has been idle
 * for an idle-delay threshold that *shrinks linearly* as the number of
 * postponed refreshes grows (the "elastic" schedule), and is forced at
 * the postpone limit. The policy never pulls refreshes in early and does
 * not overlap refreshes with accesses; both shortcomings are what DARP
 * and SARP attack (Section 7).
 */

#ifndef DSARP_REFRESH_ELASTIC_HH
#define DSARP_REFRESH_ELASTIC_HH

#include "refresh/ledger.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

class ElasticScheduler : public RefreshScheduler
{
  public:
    ElasticScheduler(const MemConfig *cfg, const TimingParams *timing,
                     ControllerView *view);

    void tick(Tick now) override;
    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    bool opportunistic(Tick now, RefreshRequest &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;
    void onSrEnter(RankId rank, Tick now) override;
    void onSrExit(RankId rank, Tick now) override;

    /**
     * Ledger accrual instants plus each due rank's elastic release
     * instant (lastDemandActivity + the owed-dependent idle threshold).
     */
    Tick nextWake(Tick now) override;

    /** Elastic refresh never pulls in; its releases are blocking. */
    Tick pullInReadyAt(Tick) const override { return kTickNever; }

    /**
     * urgent() bumps the forced counter every tick a rank sits at the
     * postpone limit; replay those bumps across the skipped span.
     */
    void skipTicks(Tick firstTick, Tick ticks) override;

    const RefreshLedger &ledger() const { return ledger_; }

    /** Idle delay demanded before releasing a refresh, given owed count. */
    Tick idleThreshold(int owed) const;

  private:
    RefreshLedger ledger_;
    Tick maxIdleDelay_;  ///< Threshold when nothing is postponed.
};

} // namespace dsarp

#endif // DSARP_REFRESH_ELASTIC_HH

/**
 * @file
 * DARP: Dynamic Access Refresh Parallelization (paper Section 4.2), the
 * first of the paper's two mechanisms.
 *
 * Component 1, out-of-order per-bank refresh (Figure 8): at each nominal
 * per-bank refresh instant the scheduler postpones the round-robin bank's
 * refresh if that bank has pending demand requests and its credit allows
 * (the erratum bounds postponement to 8 commands; we force a refresh at
 * the limit). When the channel is otherwise idle, a *random* bank with no
 * pending demands receives a postponed or pulled-in refresh.
 *
 * Component 2, write-refresh parallelization (Algorithm 1): while the
 * channel drains a write batch, every tRFCpb the scheduler refreshes the
 * bank with the fewest pending demands (credit permitting), hiding the
 * refresh under the batched writes.
 */

#ifndef DSARP_REFRESH_DARP_HH
#define DSARP_REFRESH_DARP_HH

#include <vector>

#include "refresh/ledger.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

class DarpScheduler : public RefreshScheduler
{
  public:
    DarpScheduler(const MemConfig *cfg, const TimingParams *timing,
                  ControllerView *view);

    void tick(Tick now) override;
    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    bool opportunistic(Tick now, RefreshRequest &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;
    void onSrEnter(RankId rank, Tick now) override;
    void onSrExit(RankId rank, Tick now) override;

    /**
     * Postpone/force decisions and the dueNow_ marks only change at
     * ledger accrual instants; between them urgent()/opportunistic()
     * are pure functions of frozen controller and DRAM state (the
     * controller replays the per-tick RNG draw itself).
     */
    Tick nextWake(Tick) override { return ledger_.nextAccrualTick(); }

    /** opportunistic() draws its random start bank on every call. */
    std::uint64_t idleProbeDraws() const override { return 1; }

    /**
     * The opportunistic pull-in's candidates (banks with credit and no
     * pending demand) and, in writeback mode, Algorithm 1's (banks
     * with credit, once their rank has no refresh in flight): the
     * earliest tick any of them becomes refreshable.
     */
    Tick pullInReadyAt(Tick now) const override;

    const RefreshLedger &ledger() const { return ledger_; }

  protected:
    // Protected, not private: HiRA (refresh/hira.hh) extends DARP's
    // out-of-order scheduling with hidden-refresh issue paths.
    int index(RankId r, BankId b) const { return r * banks_ + b; }

    /** Bank eligible to receive a refresh right now (DRAM-state check). */
    bool refreshable(RankId r, BankId b, Tick now) const;

    RefreshLedger ledger_;
    int banks_;
    bool writeRefreshEnabled_;

    /** Banks whose nominal refresh could not be postponed (Figure 8 "R"). */
    std::vector<std::uint8_t> dueNow_;

    Tick lastTick_ = 0;
};

} // namespace dsarp

#endif // DSARP_REFRESH_DARP_HH

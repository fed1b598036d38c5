/**
 * @file
 * Ideal refresh-free baseline ("No REF" in the paper's figures).
 */

#ifndef DSARP_REFRESH_NO_REFRESH_HH
#define DSARP_REFRESH_NO_REFRESH_HH

#include "refresh/scheduler.hh"

namespace dsarp {

class NoRefreshScheduler : public RefreshScheduler
{
  public:
    using RefreshScheduler::RefreshScheduler;

    void tick(Tick) override {}
    void urgent(Tick, std::vector<RefreshRequest> &) override {}
    bool opportunistic(Tick, RefreshRequest &) override { return false; }
    void onIssued(const RefreshRequest &, Tick) override {}
    Tick nextWake(Tick) override { return kTickNever; }
    Tick pullInReadyAt(Tick) const override { return kTickNever; }
};

} // namespace dsarp

#endif // DSARP_REFRESH_NO_REFRESH_HH

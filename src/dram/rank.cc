#include "dram/rank.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace dsarp {

namespace {

/** Latest end tick in an in-flight refresh list (0 when empty). */
Tick
latestEnd(const std::vector<Tick> &ends)
{
    Tick latest = 0;
    for (Tick end : ends)
        latest = std::max(latest, end);
    return latest;
}

/** Earliest end tick in an in-flight refresh list (kTickNever when
 *  empty). */
Tick
earliestEnd(const std::vector<Tick> &ends)
{
    Tick earliest = kTickNever;
    for (Tick end : ends)
        earliest = std::min(earliest, end);
    return earliest;
}

} // namespace

Rank::Rank(const MemConfig *cfg, const TimingParams *timing)
    : cfg_(cfg), timing_(timing)
{
    banks_.reserve(cfg->org.banksPerRank);
    for (int b = 0; b < cfg->org.banksPerRank; ++b) {
        banks_.emplace_back(timing, cfg->org.rowsPerSubarray(),
                            cfg->org.rowsPerBank, cfg->sarp);
    }
    tRrdInflAb_ =
        timing->tRrd.ceilScaled(refreshInflationMult(*cfg, true, 0));
    tRrdInflPb_ =
        timing->tRrd.ceilScaled(refreshInflationMult(*cfg, false, 1));
    tFawInflAb_ =
        timing->tFaw.ceilScaled(refreshInflationMult(*cfg, true, 0));
    tFawInflPb_ =
        timing->tFaw.ceilScaled(refreshInflationMult(*cfg, false, 1));
    refPbEnds_.reserve(cfg->maxOverlappedRefPb);
}

double
Rank::refreshInflationMult(const MemConfig &cfg, bool ab_in_flight,
                           int pb_in_flight)
{
    // Without SARP, HiRA, or the overlapped-REFpb extension, the
    // baseline never activates during refresh, so no inflation applies.
    const bool extended =
        cfg.sarp || cfg.hira || cfg.maxOverlappedRefPb > 1;
    if (!extended)
        return 1.0;
    if (ab_in_flight)
        return cfg.sarpInflationAb;
    if (pb_in_flight > 0) {
        // Each in-flight per-bank refresh adds one refresh current's
        // worth of overhead on top of the four-activate budget.
        return 1.0 + pb_in_flight * (cfg.sarpInflationPb - 1.0);
    }
    return 1.0;
}

int
Rank::pruneInFlight(std::vector<Tick> &ends, Tick now)
{
    // Prune completed refreshes; the vectors never exceed the overlap
    // cap, so this is a handful of comparisons.
    auto it = std::remove_if(ends.begin(), ends.end(),
                             [now](Tick end) { return end <= now; });
    ends.erase(it, ends.end());
    return static_cast<int>(ends.size());
}

int
Rank::refPbCount(Tick now) const
{
    return pruneInFlight(refPbEnds_, now);
}

int
Rank::hiddenRefPbCount(Tick now) const
{
    return pruneInFlight(hiddenPbEnds_, now);
}

int
Rank::inflationPbCount(const MemConfig &cfg, int pb_in_flight,
                       int hidden_pb_in_flight)
{
    // SARP (and the footnote-5 overlap extension) activates during any
    // in-flight refresh, so every REFpb counts. HiRA alone only
    // overlaps activations with its *hidden* refreshes -- a plain
    // blocking REFpb under HiRA behaves exactly like DARP's and must
    // not be penalized.
    if (cfg.sarp || cfg.maxOverlappedRefPb > 1)
        return pb_in_flight;
    return hidden_pb_in_flight;
}

int
Rank::inflationRefPbCount(Tick now) const
{
    return inflationPbCount(*cfg_, refPbCount(now),
                            hiddenRefPbCount(now));
}

Rank::ActWindows
Rank::actWindows(Tick now) const
{
    ActWindows w{timing_->tRrd, timing_->tFaw, kTickNever};
    if (!(cfg_->sarp || cfg_->hira || cfg_->maxOverlappedRefPb > 1))
        return w;
    if (refAbInFlight(now))
        return {tRrdInflAb_, tFawInflAb_, refAbUntil_};
    // A REFab never overlaps a REFpb. The per-bank refreshes counted
    // here are the list inflationPbCount() counts, pruned to ends
    // after now.
    const int pb = inflationRefPbCount(now);
    if (pb == 0)
        return w;
    const bool all = cfg_->sarp || cfg_->maxOverlappedRefPb > 1;
    const std::vector<Tick> &ends = all ? refPbEnds_ : hiddenPbEnds_;
    w.inflatedUntil = earliestEnd(ends);
    if (pb == 1) {
        w.tRrd = tRrdInflPb_;
        w.tFaw = tFawInflPb_;
    } else {
        const double mult = refreshInflationMult(*cfg_, false, pb);
        w.tRrd = timing_->tRrd.ceilScaled(mult);
        w.tFaw = timing_->tFaw.ceilScaled(mult);
    }
    return w;
}

Tick
Rank::actRankReadyAt(Tick now) const
{
    const ActWindows w = actWindows(now);
    Tick window = 0;
    if (lastActAt_ != kTickNever)
        window = lastActAt_ + w.tRrd;
    // Oldest of the last four ACTs bounds the four-activate window.
    if (actsSeen_ >= 4)
        window = std::max(window, actWindow_[0] + w.tFaw);
    // The inflation in effect at now lasts only until the refresh
    // causing it ends; past that instant the windows shrink.
    if (window > now)
        window = std::min(window, w.inflatedUntil);
    return std::max(lockoutReadyAt(), window);
}

bool
Rank::refSbInFlight(Tick now) const
{
    return pruneInFlight(refSbEnds_, now) > 0;
}

Tick
Rank::refPbRankReadyAt(Tick now) const
{
    Tick ready =
        std::max({lockoutReadyAt(), refAbUntil_, latestEnd(refSbEnds_)});
    // The count never exceeds the cap (onRefPb asserts it), so at the
    // cap the earliest end frees the slot.
    if (refPbCount(now) >= cfg_->maxOverlappedRefPb)
        ready = std::max(ready, earliestEnd(refPbEnds_));
    return ready;
}

Tick
Rank::banksReadyAt(int lo, int hi) const
{
    Tick ready = 0;
    for (int b = lo; b < hi; ++b)
        ready = std::max(ready, banks_[b].refreshReadyAt());
    return ready;
}

Tick
Rank::refAbReadyAt() const
{
    return std::max({lockoutReadyAt(), refreshBusyUntil(),
                     banksReadyAt(0, numBanks())});
}

Tick
Rank::refSbReadyAt(int group) const
{
    // Refreshes of any granularity never overlap within a rank; banks
    // outside the slice are unconstrained (they keep serving).
    const int slice = timing_->banksPerGroup;
    if (slice <= 0 || group < 0 || (group + 1) * slice > numBanks())
        return kTickNever;
    return std::max({lockoutReadyAt(), refreshBusyUntil(),
                     banksReadyAt(group * slice, (group + 1) * slice)});
}

void
Rank::onAct(Tick now)
{
    lastActAt_ = now;
    // Slide the four-entry window.
    actWindow_[0] = actWindow_[1];
    actWindow_[1] = actWindow_[2];
    actWindow_[2] = actWindow_[3];
    actWindow_[3] = now;
    if (actsSeen_ < 4)
        ++actsSeen_;
}

void
Rank::onRefPb(Tick now, BankId bank, Cycles t_rfc_override,
              int rows_override, bool hidden)
{
    DSARP_ASSERT(canRefPbRankLevel(now), "REFpb exceeds the overlap limit");
    const Cycles t_rfc = t_rfc_override ? t_rfc_override : timing_->tRfcPb;
    banks_[bank].onRefresh(now, t_rfc, rows_override, hidden);
    refPbEnds_.push_back(now + t_rfc);
    if (hidden)
        hiddenPbEnds_.push_back(now + t_rfc);
}

void
Rank::onRefSb(Tick now, int group, Cycles t_rfc_override,
              int rows_override)
{
    DSARP_ASSERT(canRefSb(now, group), "illegal same-bank refresh");
    const Cycles t_rfc = t_rfc_override ? t_rfc_override : timing_->tRfcSb;
    const int slice = timing_->banksPerGroup;
    for (int b = group * slice; b < (group + 1) * slice; ++b)
        banks_[b].onRefresh(now, t_rfc, rows_override);
    refSbEnds_.push_back(now + t_rfc);
}

void
Rank::onRefAb(Tick now, Cycles t_rfc_override, int rows_override)
{
    DSARP_ASSERT(canRefAb(now), "REFab while rank not idle");
    const Cycles t_rfc = t_rfc_override ? t_rfc_override : timing_->tRfcAb;
    for (Bank &b : banks_)
        b.onRefresh(now, t_rfc, rows_override);
    refAbUntil_ = now + t_rfc;
}

Tick
Rank::srEnterReadyAt() const
{
    // SRE needs a fully quiesced rank: the device assumes control of
    // refresh from a precharged, refresh-idle state (JEDEC: all banks
    // precharged, tRFC of any refresh satisfied) -- what a REFab needs.
    return refAbReadyAt();
}

Tick
Rank::srExitReadyAt() const
{
    if (!srActive_ || srEnteredAt_ == kTickNever)
        return kTickNever;
    return srEnteredAt_ + timing_->tCkesr;
}

void
Rank::onSrEnter(Tick now)
{
    DSARP_ASSERT(canSrEnter(now), "SRE on a non-idle rank");
    srActive_ = true;
    srEnteredAt_ = now;
}

void
Rank::onSrExit(Tick now)
{
    DSARP_ASSERT(canSrExit(now), "SRX outside self-refresh or below "
                                 "the tCKESR minimum residency");
    srActive_ = false;
    // The device finishes its in-progress internal refresh burst on
    // exit: nothing is legal on the rank until tXS has elapsed.
    srExitLockoutUntil_ = now + timing_->tXs;
}

bool
Rank::isActive(Tick now) const
{
    // A self-refreshing rank draws IDD6, not active standby; its
    // residency is billed separately (ChannelStats::srTicks).
    if (srActive_)
        return false;
    if (refAbInFlight(now) || refPbInFlight(now) || refSbInFlight(now))
        return true;
    for (const Bank &b : banks_) {
        if (b.isOpen())
            return true;
    }
    return false;
}

Tick
Rank::nextRefreshEnd(Tick now) const
{
    Tick next = refAbUntil_ > now ? refAbUntil_ : kTickNever;
    for (const std::vector<Tick> *ends : {&refPbEnds_, &refSbEnds_}) {
        for (Tick end : *ends) {
            if (end > now)
                next = std::min(next, end);
        }
    }
    return next;
}

Tick
Rank::refreshBusyUntil() const
{
    return std::max({refAbUntil_, latestEnd(refPbEnds_),
                     latestEnd(refSbEnds_)});
}

} // namespace dsarp

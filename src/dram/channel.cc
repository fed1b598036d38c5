#include "dram/channel.hh"

#include <algorithm>

#include "common/log.hh"

namespace dsarp {

Channel::Channel(const MemConfig *cfg, const TimingParams *timing)
    : timing_(timing)
{
    ranks_.reserve(cfg->org.ranksPerChannel);
    for (int r = 0; r < cfg->org.ranksPerChannel; ++r)
        ranks_.emplace_back(cfg, timing);
    wrDataEnd_.assign(cfg->org.ranksPerChannel, 0);
}

Tick
Channel::busFreeFor(RankId r, Cycles lead) const
{
    // The burst must find the bus free, plus a rank-switch gap.
    Tick bus_free = busBusyUntil_;
    if (lastBurstRank_ != kNone && lastBurstRank_ != r)
        bus_free += timing_->tRtrs;
    const Tick c = static_cast<Tick>(lead.count());
    return bus_free > c ? bus_free - c : 0;
}

Tick
Channel::readBusReadyAt(RankId r) const
{
    // Write-to-read turnaround within the same rank (tWTR counts from
    // the end of write data to the read command).
    return std::max(busFreeFor(r, timing_->tCl),
                    wrDataEnd_[r] + timing_->tWtr);
}

Tick
Channel::writeBusReadyAt(RankId r) const
{
    // Read-to-write command turnaround on the shared bus.
    const Tick rtw =
        lastRdCmdAt_ == kTickNever ? 0 : lastRdCmdAt_ + timing_->tRtw;
    return std::max(busFreeFor(r, timing_->tCwl), rtw);
}

Tick
Channel::rankReadyAt(RankId r, CommandType type, Tick now) const
{
    const Rank &rk = ranks_[r];
    // A rank in self-refresh accepts only SRX, and nothing at all
    // inside the tXS exit window; actRankReadyAt() folds that in.
    switch (type) {
      case CommandType::kAct:
        return rk.actRankReadyAt(now);
      case CommandType::kRd:
      case CommandType::kRdA:
        return std::max(rk.lockoutReadyAt(), readBusReadyAt(r));
      case CommandType::kWr:
      case CommandType::kWrA:
        return std::max(rk.lockoutReadyAt(), writeBusReadyAt(r));
      case CommandType::kPre:
        return rk.lockoutReadyAt();
      default:
        break;
    }
    DSARP_PANIC("rankReadyAt() takes a demand command");
}

Tick
Channel::readyAt(const Command &cmd, Tick now) const
{
    const Rank &rk = ranks_[cmd.rank];
    // The rank-level refresh and self-refresh readiness repeats the
    // lockout (schedulers query them directly).
    switch (cmd.type) {
      case CommandType::kAct:
        return std::max(rk.bank(cmd.bank).actReadyAt(cmd.row),
                        rankReadyAt(cmd.rank, cmd.type, now));
      case CommandType::kRd:
      case CommandType::kRdA:
      case CommandType::kWr:
      case CommandType::kWrA:
        return std::max(rk.bank(cmd.bank).colReadyAt(),
                        rankReadyAt(cmd.rank, cmd.type, now));
      case CommandType::kPre:
        return std::max(rk.bank(cmd.bank).preReadyAt(),
                        rankReadyAt(cmd.rank, cmd.type, now));
      case CommandType::kRefPb:
        if (cmd.hidden) {
            return std::max(rk.refPbRankReadyAt(now),
                            rk.bank(cmd.bank).hiddenRefreshReadyAt());
        }
        return std::max(rk.refPbRankReadyAt(now),
                        rk.bank(cmd.bank).refreshReadyAt());
      case CommandType::kRefAb:
        return rk.refAbReadyAt();
      case CommandType::kRefSb:
        return rk.refSbReadyAt(cmd.bank);
      case CommandType::kSrEnter:
        return rk.srEnterReadyAt();
      case CommandType::kSrExit:
        return rk.srExitReadyAt();
    }
    return kTickNever;
}

Tick
Channel::issue(const Command &cmd, Tick now)
{
    DSARP_ASSERT(canIssue(cmd, now), "issuing illegal command");
    Rank &rk = ranks_[cmd.rank];
    switch (cmd.type) {
      case CommandType::kAct:
        rk.bank(cmd.bank).onAct(now, cmd.row, cmd.subarray);
        rk.onAct(now);
        ++stats_.acts;
        return 0;

      case CommandType::kRd:
      case CommandType::kRdA: {
        rk.bank(cmd.bank).onRead(now, cmd.type == CommandType::kRdA);
        const Tick data_end = now + timing_->tCl + timing_->tBl;
        busBusyUntil_ = data_end;
        lastBurstRank_ = cmd.rank;
        lastRdCmdAt_ = now;
        ++stats_.reads;
        return data_end;
      }

      case CommandType::kWr:
      case CommandType::kWrA: {
        rk.bank(cmd.bank).onWrite(now, cmd.type == CommandType::kWrA);
        const Tick data_end = now + timing_->tCwl + timing_->tBl;
        busBusyUntil_ = data_end;
        lastBurstRank_ = cmd.rank;
        wrDataEnd_[cmd.rank] = data_end;
        ++stats_.writes;
        return data_end;
      }

      case CommandType::kPre:
        rk.bank(cmd.bank).onPre(now);
        ++stats_.pres;
        return 0;

      case CommandType::kRefPb: {
        rk.onRefPb(now, cmd.bank, cmd.tRfcOverride, cmd.rowsOverride,
                   cmd.hidden);
        ++stats_.refPb;
        if (cmd.hidden)
            ++stats_.refPbHidden;
        const std::uint64_t dur = static_cast<std::uint64_t>(
            (cmd.tRfcOverride ? cmd.tRfcOverride : timing_->tRfcPb)
                .count());
        stats_.refPbCycles += dur;
        if (refreshSpanCb_)
            refreshSpanCb_(now, now + dur);
        return 0;
      }

      case CommandType::kRefAb: {
        rk.onRefAb(now, cmd.tRfcOverride, cmd.rowsOverride);
        ++stats_.refAb;
        const std::uint64_t dur = static_cast<std::uint64_t>(
            (cmd.tRfcOverride ? cmd.tRfcOverride : timing_->tRfcAb)
                .count());
        stats_.refAbCycles += dur;
        if (refreshSpanCb_)
            refreshSpanCb_(now, now + dur);
        return 0;
      }

      case CommandType::kRefSb: {
        rk.onRefSb(now, cmd.bank, cmd.tRfcOverride, cmd.rowsOverride);
        ++stats_.refSb;
        const std::uint64_t dur = static_cast<std::uint64_t>(
            (cmd.tRfcOverride ? cmd.tRfcOverride : timing_->tRfcSb)
                .count());
        stats_.refSbCycles += dur;
        if (refreshSpanCb_)
            refreshSpanCb_(now, now + dur);
        return 0;
      }

      case CommandType::kSrEnter:
        rk.onSrEnter(now);
        ++stats_.srEnter;
        return 0;

      case CommandType::kSrExit:
        rk.onSrExit(now);
        ++stats_.srExit;
        return 0;
    }
    return 0;
}

Tick
Channel::nextActivityChange(Tick now) const
{
    Tick next = kTickNever;
    const auto add = [&](Tick t) {
        if (t > now && t < next)
            next = t;
    };
    // Refresh ends move isActive().
    for (RankId r = 0; r < numRanks(); ++r)
        add(ranks_[r].nextRefreshEnd(now));
    return next;
}

void
Channel::sampleActivitySpan(Tick firstTick, Tick ticks)
{
    // One evaluation per rank stands for the whole span: the event
    // engine wakes at every nextActivityChange() instant, so within a
    // skipped span every predicate below is constant.
    for (RankId r = 0; r < static_cast<RankId>(ranks_.size()); ++r) {
        const Rank &rk = ranks_[r];
        stats_.rankTotalTicks += ticks;

        if (rk.inSelfRefresh(firstTick)) {
            stats_.srTicks += ticks;
            continue;
        }

        if (rk.isActive(firstTick))
            stats_.rankActiveTicks += ticks;
    }
}

void
Channel::sampleActivity(Tick now)
{
    for (RankId r = 0; r < static_cast<RankId>(ranks_.size()); ++r) {
        const Rank &rk = ranks_[r];
        ++stats_.rankTotalTicks;

        // Command-level self-refresh: real residency, billed IDD6.
        if (rk.inSelfRefresh(now)) {
            ++stats_.srTicks;
            continue;
        }

        if (rk.isActive(now))
            ++stats_.rankActiveTicks;
    }
}

} // namespace dsarp

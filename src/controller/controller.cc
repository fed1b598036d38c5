#include "controller/controller.hh"

#include <algorithm>

#include "common/log.hh"
#include "refresh/registry.hh"

namespace dsarp {


ChannelController::ChannelController(ChannelId id, const MemConfig *cfg,
                                     const TimingParams *timing,
                                     std::uint64_t seed)
    : id_(id), cfg_(cfg), timing_(timing), channel_(cfg, timing),
      rng_(seed ^ (0x5851f42d4c957f2dULL * (id + 1))),
      readQ_(cfg->readQueueSize, cfg->org.ranksPerChannel,
             cfg->org.banksPerRank),
      writeQ_(cfg->writeQueueSize, cfg->org.ranksPerChannel,
              cfg->org.banksPerRank),
      readScan_(cfg->org.ranksPerChannel * cfg->org.banksPerRank),
      writeScan_(cfg->org.ranksPerChannel * cfg->org.banksPerRank),
      writeDrain_(cfg->writeHighWatermark, cfg->writeLowWatermark)
{
    refreshSched_ =
        RefreshPolicyRegistry::instance().make(*cfg, *timing, *this);
    blockedActBank_.assign(
        cfg->org.ranksPerChannel * cfg->org.banksPerRank, 0);
    blockedActRank_.assign(cfg->org.ranksPerChannel, 0);
    lastDemandActivity_.assign(cfg->org.ranksPerChannel, 0);
    pendingReads_.reserve(cfg->readQueueSize);
    urgentScratch_.reserve(8);
    enqueuedBanks_.reserve(8);
}

bool
ChannelController::enqueueRead(const Request &req, Tick now)
{
    // Forward from the write queue when a not-yet-drained write to the
    // same line exists (the controller holds the freshest data). The
    // completion is delivered on the next tick, never synchronously.
    // A forwarded read leaves the arbitration as it was.
    if (writeQ_.findAddr(req.loc.rank, req.loc.bank, req.addr) >= 0) {
        ++stats_.forwardedReads;
        pendingReads_.push_back({now + 1, req});
        return true;
    }
    if (!readQ_.push(req)) {
        // The core retries every tick; the event engine re-wakes it
        // when a pop frees a slot (see consumePoppedWithRejection).
        sendRejected_ = true;
        return false;
    }
    ++stats_.readsEnqueued;
    noteEnqueue(req, now);
    return true;
}

bool
ChannelController::enqueueWrite(const Request &req, Tick now)
{
    if (!writeQ_.push(req)) {
        sendRejected_ = true;
        return false;
    }
    ++stats_.writesEnqueued;
    noteEnqueue(req, now);
    return true;
}

void
ChannelController::noteEnqueue(const Request &req, Tick now)
{
    lastDemandActivity_[req.loc.rank] = now;
    if (channel_.rank(req.loc.rank).inSelfRefresh(now))
        enqueueSteps_ = true;  // Demand at a sleeping rank wants SRX.
    else if (req.isWrite == writeDrain_.active())
        enqueuedBanks_.emplace_back(req.loc.rank, req.loc.bank);
}

Tick
ChannelController::enqueueWake(Tick now) const
{
    // A new request only adds candidates, and only in its own bank:
    // the conflict window keeps its oldest members, and an ACT block
    // the request lifts (an elastic release it cancels) covers no
    // other queued request of the rank, since the release needed the
    // rank free of demand. Other steps see later idle instants or
    // fewer candidates, which a wake may safely precede. Two changes
    // reach beyond the bank: a drain flip switches the pick's queue,
    // and demand at a sleeping rank wants SRX.
    if (enqueueSteps_ || writeDrain_.flipsAt(writeQ_.size()))
        return now + 1;
    Tick ready = kTickNever;
    for (const auto &[r, b] : enqueuedBanks_) {
        ready = std::min(ready, FrFcfs::bankReadyAt(servedQueue(), channel_,
                                                    now, r, b));
    }
    return std::max(now + 1, ready);
}

int
ChannelController::pendingDemands(RankId r, BankId b) const
{
    return readQ_.bankCount(r, b) + writeQ_.bankCount(r, b);
}

int
ChannelController::pendingReads(RankId r, BankId b) const
{
    return readQ_.bankCount(r, b);
}

int
ChannelController::pendingWrites(RankId r, BankId b) const
{
    return writeQ_.bankCount(r, b);
}

int
ChannelController::pendingDemandsRank(RankId r) const
{
    return readQ_.rankCount(r) + writeQ_.rankCount(r);
}

Tick
ChannelController::lastDemandActivity(RankId r) const
{
    return lastDemandActivity_[r];
}

bool
ChannelController::srDemandPending(RankId r) const
{
    // Reads are latency-critical: any queued read wakes (or keeps
    // awake) the rank. Writes sit in the queue until the drain
    // watermark fires, so below it they neither block self-refresh
    // entry nor wake a sleeping rank -- once writeback mode starts,
    // the batch needs the DRAM and the rank must be up.
    if (readQ_.rankCount(r) > 0)
        return true;
    return writeDrain_.active() && writeQ_.rankCount(r) > 0;
}

void
ChannelController::resetStats()
{
    stats_ = ControllerStats{};
    channel_.resetStats();
    refreshSched_->resetStats();
}

Command
ChannelController::toCommand(const RefreshRequest &req) const
{
    Command cmd;
    cmd.type = req.allBank ? CommandType::kRefAb
        : req.sameBank     ? CommandType::kRefSb
                           : CommandType::kRefPb;
    cmd.rank = req.rank;
    cmd.bank = req.bank;  // Bank-group index for same-bank requests.
    cmd.tRfcOverride = req.tRfcOverride;
    cmd.rowsOverride = req.rowsOverride;
    cmd.hidden = req.hidden;
    return cmd;
}

std::pair<BankId, BankId>
ChannelController::targetBanks(const RefreshRequest &req) const
{
    if (req.allBank)
        return {0, cfg_->org.banksPerRank - 1};
    if (req.sameBank) {
        // A slice refresh covers every bank of its group.
        const int slice = timing_->banksPerGroup;
        return {req.bank * slice, (req.bank + 1) * slice - 1};
    }
    return {req.bank, req.bank};
}

bool
ChannelController::tryIssue(const Command &cmd, Tick now, Issued kind)
{
    if (!channel_.canIssue(cmd, now))
        return false;
    channel_.issue(cmd, now);
    issued_ = kind;
    if (cmdLog_)
        cmdLog_->push_back({now, cmd});
    return true;
}

void
ChannelController::serveDemand(RequestQueue &queue, const CmdChoice &choice,
                               Tick now)
{
    const Tick data_tick = channel_.issue(choice.cmd, now);
    issued_ = Issued::kAccess;
    if (cmdLog_)
        cmdLog_->push_back({now, choice.cmd});
    lastDemandActivity_[choice.cmd.rank] = now;
    refreshSched_->onDemandCommand(choice.cmd, now);

    if (!isColumnCmd(choice.cmd.type))
        return;  // ACT: the request stays queued for its column command.

    if (sendRejected_) {
        // A queue slot frees while some core sits in fetch-retry:
        // that core's stalled certificate is void from here on.
        poppedWithRejection_ = true;
        sendRejected_ = false;
    }
    Request req = queue.pop(choice.queueIndex);
    if (req.isWrite) {
        ++stats_.writesIssued;
    } else {
        pendingReads_.push_back({data_tick, req});
    }
}

void
ChannelController::arbitrate(Tick now)
{
    // 0. Self-refresh exit: a rank in self-refresh with demand that
    //    needs the DRAM must wake up. SRX is legal once the minimum
    //    residency tCKESR has elapsed; the first command after it then
    //    waits out tXS, so the latency cost of sleeping is paid by the
    //    demand stream (no free lunch).
    for (RankId r = 0; r < channel_.numRanks(); ++r) {
        if (!channel_.rank(r).inSelfRefresh(now))
            continue;
        if (!srDemandPending(r))
            continue;
        Command srx;
        srx.type = CommandType::kSrExit;
        srx.rank = r;
        if (tryIssue(srx, now, Issued::kRefreshState)) {
            refreshSched_->onSrExit(r, now);
            return;
        }
    }

    urgentScratch_.clear();
    refreshSched_->urgent(now, urgentScratch_);

    // Mark targets of blocking refreshes so FR-FCFS stops opening rows
    // there and the bank/rank drains.
    std::fill(blockedActBank_.begin(), blockedActBank_.end(), 0);
    std::fill(blockedActRank_.begin(), blockedActRank_.end(), 0);
    for (const RefreshRequest &req : urgentScratch_) {
        if (!req.blocking)
            continue;
        if (req.allBank) {
            blockedActRank_[req.rank] = 1;
            continue;
        }
        const auto [lo, hi] = targetBanks(req);
        for (BankId b = lo; b <= hi; ++b)
            blockedActBank_[req.rank * cfg_->org.banksPerRank + b] = 1;
    }

    // 1. Urgent refreshes, in policy priority order.
    for (const RefreshRequest &req : urgentScratch_) {
        if (tryIssue(toCommand(req), now, Issued::kRefreshState)) {
            refreshSched_->onIssued(req, now);
            return;
        }
    }

    // 2. Demand commands: writes during writeback mode, reads otherwise.
    RequestQueue &queue = writeDrain_.active() ? writeQ_ : readQ_;
    ++picks_;
    const CmdChoice choice = FrFcfs::pick(
        queue, channel_, now, blockedActBank_, blockedActRank_,
        cfg_->org.banksPerRank, writeDrain_.active() ? writeScan_ : readScan_);
    if (choice.valid) {
        serveDemand(queue, choice, now);
        return;
    }

    // 3. Precharge assist: a blocking refresh target still has a row
    //    open (e.g. read row hits stranded by writeback mode); close it.
    for (const RefreshRequest &req : urgentScratch_) {
        if (!req.blocking)
            continue;
        const auto [lo, hi] = targetBanks(req);
        for (BankId b = lo; b <= hi; ++b) {
            const Bank &bank = channel_.rank(req.rank).bank(b);
            if (!bank.isOpen())
                continue;
            Command pre;
            pre.type = CommandType::kPre;
            pre.rank = req.rank;
            pre.bank = b;
            if (tryIssue(pre, now, Issued::kAccess))
                return;
        }
    }

    // 4. Self-refresh entry: no urgent refresh or demand wanted the
    //    bus this tick. A rank that has seen no demand for the
    //    idle-entry threshold, has none queued, and is fully quiesced
    //    enters self-refresh; its refresh ledger pauses (the device
    //    retires owed slots at the internal rate) until demand wakes
    //    it. Deliberately ahead of the opportunistic pull-in: for a
    //    rank idle enough to sleep, the device's internal refresh
    //    covers the same obligations a pull-in would, at IDD6 instead
    //    of a command -- and a pull-in issued every idle tick would
    //    otherwise starve entry forever.
    if (cfg_->srIdleEntryCycles > 0) {
        for (RankId r = 0; r < channel_.numRanks(); ++r) {
            if (channel_.rank(r).inSelfRefresh(now))
                continue;
            if (srDemandPending(r) || now < srIdleAt(r))
                continue;
            Command sre;
            sre.type = CommandType::kSrEnter;
            sre.rank = r;
            if (tryIssue(sre, now, Issued::kRefreshState)) {
                refreshSched_->onSrEnter(r, now);
                return;
            }
        }
    }

    // 5. Opportunistic refresh (DARP's idle-bank pull-in). Every tick
    //    that issues nothing reaches this probe, so the event engine
    //    replays the draws the policy declares for a fruitless probe
    //    once per skipped tick; hold the policy to its declaration.
    RefreshRequest opp;
    const std::uint64_t draws_before = rng_.draws();
    const bool opp_wanted = refreshSched_->opportunistic(now, opp);
    DSARP_ASSERT(opp_wanted || rng_.draws() - draws_before ==
                     refreshSched_->idleProbeDraws(),
                 "opportunistic() drew a different number of random "
                 "numbers than idleProbeDraws() declares");
    if (opp_wanted) {
        if (tryIssue(toCommand(opp), now, Issued::kRefreshState)) {
            refreshSched_->onIssued(opp, now);
            return;
        }
    }
}

void
ChannelController::tick(Tick now)
{
    ++stats_.ticks;
    issued_ = Issued::kNothing;
    enqueueSteps_ = false;
    enqueuedBanks_.clear();

    refreshSched_->tick(now);
    writeDrain_.update(writeQ_.size());
    if (writeDrain_.active())
        ++stats_.writebackModeTicks;

    deliverReads(now);
    arbitrate(now);

    stats_.readQueueOccupancySum += readQ_.size();
    stats_.writeQueueOccupancySum += writeQ_.size();
    channel_.sampleActivity(now);
}

void
ChannelController::deliverReads(Tick now)
{
    for (std::size_t i = 0; i < pendingReads_.size();) {
        if (pendingReads_[i].done <= now) {
            const PendingRead pr = pendingReads_[i];
            pendingReads_[i] = pendingReads_.back();
            pendingReads_.pop_back();
            ++stats_.readsCompleted;
            stats_.readLatencySum += pr.done - pr.req.arrival;
            stats_.readLatency.add(pr.done - pr.req.arrival);
            if (readCallback_)
                readCallback_(pr.req, pr.done);
        } else {
            ++i;
        }
    }
}

Tick
ChannelController::nextDelivery() const
{
    Tick next = kTickNever;
    for (const PendingRead &pr : pendingReads_)
        next = std::min(next, pr.done);
    return next;
}

Tick
ChannelController::arbitrationReadyAt(Tick now)
{
    const Tick enough = now + 1;
    // The steps of arbitrate(), in its order, without issuing. The
    // urgent list is the one this tick built: only a refresh, SRE or
    // SRX (which force the step), a policy wake or a pull-in's
    // readiness changes it. Its ACT blocks stand with it. The
    // opportunistic pull-in is the policy's to report
    // (pullInReadyAt()).
    Tick ready = kTickNever;
    const auto fold = [&](Tick t) {
        ready = std::min(ready, t);
        return ready <= enough;
    };
    for (RankId r = 0; r < channel_.numRanks(); ++r) {
        if (channel_.rank(r).inSelfRefresh(now) && srDemandPending(r) &&
            fold(channel_.rank(r).srExitReadyAt())) {
            return ready;
        }
    }
    for (const RefreshRequest &req : urgentScratch_) {
        if (fold(channel_.readyAt(toCommand(req), now)))
            return ready;
        if (!req.blocking)
            continue;
        // Its precharge assist.
        const auto [lo, hi] = targetBanks(req);
        for (BankId b = lo; b <= hi; ++b) {
            const Bank &bank = channel_.rank(req.rank).bank(b);
            if (bank.isOpen() &&
                fold(std::max(bank.preReadyAt(),
                              channel_.rankReadyAt(
                                  req.rank, CommandType::kPre, now)))) {
                return ready;
            }
        }
    }
    const bool writes = writeDrain_.active();
    if (fold(FrFcfs::readyAt(writes ? writeQ_ : readQ_, channel_, now,
                             enough, blockedActBank_, blockedActRank_,
                             cfg_->org.banksPerRank,
                             writes ? writeScan_ : readScan_))) {
        return ready;
    }
    if (cfg_->srIdleEntryCycles > 0) {
        for (RankId r = 0; r < channel_.numRanks(); ++r) {
            if (channel_.rank(r).inSelfRefresh(now) || srDemandPending(r))
                continue;
            if (fold(std::max(srIdleAt(r),
                              channel_.rank(r).srEnterReadyAt()))) {
                return ready;
            }
        }
    }
    return ready;
}

Tick
ChannelController::nextWake(Tick now)
{
    // A refresh, SRE or SRX moved the refresh policy's state, which
    // only its next urgent() call re-reads: step.
    if (issued_ == Issued::kRefreshState)
        return now;

    // Otherwise the arbitration's answer holds until a command it would
    // try becomes ready (re-derived from the state the tick left), a
    // request enqueued since adds a candidate, the policy's own state
    // moves, or a refresh it emits only once legal becomes so. The
    // instants that keep a skipped span's stats constant complete the
    // set; read deliveries are not wakes (see deliverReads()).
    // Cheapest first: most certificates end at the next tick. A pop to
    // the low watermark or an enqueue to the high one flips the drain
    // at the next update(), and the pick changes queues.
    const Tick soon = now + 1;
    if (writeDrain_.flipsAt(writeQ_.size()))
        return soon;
    Tick wake = arbitrationReadyAt(now);
    if (wake <= soon)
        return wake;
    wake = std::min(wake, enqueueWake(now));
    if (wake <= soon)
        return wake;
    wake = std::min({wake, refreshSched_->nextWake(now),
                     channel_.nextActivityChange(now)});
    // Refresh policies skip a rank inside its tXS exit window.
    for (RankId r = 0; r < channel_.numRanks(); ++r) {
        const Tick lockout_end = channel_.rank(r).srExitLockoutUntil();
        if (lockout_end > now)
            wake = std::min(wake, lockout_end);
    }
    if (wake <= soon)
        return wake;
    return std::min(wake, refreshSched_->pullInReadyAt(now));
}

void
ChannelController::skipTicks(Tick firstTick, Tick ticks)
{
    // Replay the linear per-tick effects of an inert tick() across the
    // span [firstTick, firstTick + ticks). Queue sizes, drain state,
    // and every arbitration answer are frozen: nothing issues, nothing
    // is enqueued, and the engine wakes at every nextWake() instant.
    stats_.ticks += ticks;
    if (writeDrain_.active())
        stats_.writebackModeTicks += ticks;
    stats_.readQueueOccupancySum +=
        ticks * static_cast<std::uint64_t>(readQ_.size());
    stats_.writeQueueOccupancySum +=
        ticks * static_cast<std::uint64_t>(writeQ_.size());
    rng_.discard(refreshSched_->idleProbeDraws() * ticks);
    refreshSched_->skipTicks(firstTick, ticks);
    channel_.sampleActivitySpan(firstTick, ticks);
}

} // namespace dsarp

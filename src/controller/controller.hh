/**
 * @file
 * Per-channel memory controller.
 *
 * Implements the paper's controller (Table 1): 64/64-entry read/write
 * queues, FR-FCFS, closed-row policy, batched writes with a low
 * watermark, and a pluggable refresh scheduling policy. Arbitration each
 * tick: self-refresh exit for a sleeping rank with demand, urgent
 * refreshes, then demand commands (writes during writeback mode, reads
 * otherwise), then a precharge assist for blocked refreshes, then
 * self-refresh entry, then opportunistic refreshes.
 *
 * Wake contract (event-driven engine): the controller's decision changes
 * only when a command issues, a request arrives, or some command it
 * wants becomes legal. After each tick, arbitrationReadyAt() derives
 * from the state the tick left the earliest tick any arbitration step
 * can issue, the refresh policy reports its own readiness, and
 * nextWake() sleeps the controller until the earlier of the two; an
 * enqueue adds its own bank's candidates.
 *
 * The controller implements ControllerView so refresh policies can
 * observe queue occupancies (DARP) and idleness (elastic refresh), and
 * exposes the DRAM-side refresh state (SARP's shadow refresh-subarray
 * counters, Section 4.3.2, are realized by reading the modeled refresh
 * unit the controller mirrors).
 */

#ifndef DSARP_CONTROLLER_CONTROLLER_HH
#define DSARP_CONTROLLER_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "controller/queues.hh"
#include "controller/scheduler.hh"
#include "controller/write_drain.hh"
#include "dram/channel.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

/** A command with its issue tick, for the offline timing checker. */
struct TimedCommand
{
    Tick tick;
    Command cmd;
};

struct ControllerStats
{
    std::uint64_t readsEnqueued = 0;
    std::uint64_t writesEnqueued = 0;
    std::uint64_t readsCompleted = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t readLatencySum = 0;  ///< Arrival to data return, ticks.
    LatencyHistogram readLatency;      ///< Same samples, bucketed.
    std::uint64_t forwardedReads = 0;  ///< Served from the write queue.
    std::uint64_t writebackModeTicks = 0;
    std::uint64_t ticks = 0;
    std::uint64_t readQueueOccupancySum = 0;
    std::uint64_t writeQueueOccupancySum = 0;
};

class ChannelController : public ControllerView
{
  public:
    using ReadCallback =
        std::function<void(const Request &, Tick doneTick)>;

    ChannelController(ChannelId id, const MemConfig *cfg,
                      const TimingParams *timing, std::uint64_t seed);

    /** Enqueue a demand request; false when the relevant queue is full. */
    bool enqueueRead(const Request &req, Tick now);
    bool enqueueWrite(const Request &req, Tick now);

    bool readQueueFull() const { return readQ_.full(); }
    bool writeQueueFull() const { return writeQ_.full(); }

    /** Invoked when read data returns (at its data-burst end tick). */
    void setReadCallback(ReadCallback cb) { readCallback_ = std::move(cb); }

    /** Advance one DRAM cycle: refresh policy, arbitration, stats. */
    void tick(Tick now);

    /**
     * Earliest tick strictly after @p now at which this controller
     * could act differently than it just did: the minimum of the
     * arbitration's readiness (the earliest tick any command it would
     * try can become legal, see Channel::readyAt()), the readiness of
     * the requests enqueued since the tick (enqueueWake()), the refresh
     * policy's wake and pull-in readiness, and the instants a skipped
     * span's stats depend on (refresh ends, idle thresholds, tXS
     * exit-window ends). The arbitration's readiness is re-derived
     * from the state the tick left (arbitrationReadyAt()), whether
     * the tick issued a demand command, a precharge assist or
     * nothing. Legality flips of commands nobody wants are not
     * wakes, and neither are read deliveries (nextDelivery()).
     * Returns @p now, forcing the one-tick step, only after a refresh,
     * SRE or SRX: those move the refresh policy's own state, which
     * only its next urgent() call re-reads.
     */
    Tick nextWake(Tick now);

    /**
     * Earliest tick after @p now at which the requests enqueued since
     * the last tick() can change the arbitration's answer (kTickNever
     * when they cannot): their banks' FR-FCFS candidates when they
     * join the queue the pick serves, and the next tick when one
     * reaches the write drain's high watermark or targets a rank in
     * self-refresh. The event engine's enqueue hooks wake a dormant
     * controller here; nextWake() folds it in.
     */
    Tick enqueueWake(Tick now) const;

    /** True when the last tick() put a command on the bus. */
    bool issuedAtLastTick() const { return issued_ != Issued::kNothing; }

    /**
     * Deliver the read data that has arrived by @p now; tick() does
     * this before arbitrating. The event engine also calls it on its
     * own at a delivery inside an inert span: a delivery never changes
     * what the arbitration decides, so that tick stays inert and
     * skipTicks() accounts it with the rest of the span.
     */
    void deliverReads(Tick now);

    /** Earliest pending read-data delivery (kTickNever when none). */
    Tick nextDelivery() const;

    /**
     * Account the @p ticks skipped ticks [firstTick, firstTick+ticks)
     * for the event-driven engine: linear stat accrual (tick/occupancy/
     * writeback counters, activity sampling) plus a replay of the
     * per-tick RNG draws the opportunistic-refresh probe would have
     * made (RefreshScheduler::idleProbeDraws() per tick). Bit-identical
     * to ticking cycle by cycle across an inert span.
     */
    void skipTicks(Tick firstTick, Tick ticks);

    /**
     * True once, after a demand-queue pop that followed a rejected
     * enqueue: some core is spinning in fetch-retry against the full
     * queue, and its stalled-core certificate ends at the pop. The
     * event engine re-wakes every core at such ticks (reads the flag
     * destructively).
     */
    bool
    consumePoppedWithRejection()
    {
        const bool v = poppedWithRejection_;
        poppedWithRejection_ = false;
        return v;
    }

    /** @name ControllerView */
    /// @{
    int pendingDemands(RankId r, BankId b) const override;
    int pendingReads(RankId r, BankId b) const override;
    int pendingWrites(RankId r, BankId b) const override;
    int pendingDemandsRank(RankId r) const override;
    bool inWritebackMode() const override { return writeDrain_.active(); }
    Tick lastDemandActivity(RankId r) const override;
    ChannelId channelId() const override { return id_; }
    const Channel &dram() const override { return channel_; }
    Rng &schedulerRng() override { return rng_; }
    /// @}

    Channel &channel() { return channel_; }
    const ControllerStats &stats() const { return stats_; }
    const RefreshSchedStats &refreshStats() const
    {
        return refreshSched_->stats();
    }
    const RefreshScheduler &refreshScheduler() const
    {
        return *refreshSched_;
    }

    /** Attach a command log for the offline timing checker (or nullptr). */
    void setCommandLog(std::vector<TimedCommand> *log) { cmdLog_ = log; }

    /** Zero all measurement counters (queues and DRAM state persist). */
    void resetStats();

    ChannelId id() const { return id_; }

    /** FR-FCFS picks run since construction. An engine work counter,
     *  deliberately outside ControllerStats: it differs between the
     *  engines, which skip different numbers of ticks. */
    std::uint64_t picks() const { return picks_; }

  private:
    void arbitrate(Tick now);
    /** What the last tick() put on the bus, for nextWake(). */
    enum class Issued : std::uint8_t {
        kNothing,
        kAccess,        ///< A demand command or a precharge assist.
        kRefreshState,  ///< A refresh, SRE or SRX.
    };

    /** Issue @p cmd if legal now, recording it as @p kind. */
    bool tryIssue(const Command &cmd, Tick now, Issued kind);
    Command toCommand(const RefreshRequest &req) const;

    /** Banks [first, last] a refresh request targets. */
    std::pair<BankId, BankId> targetBanks(const RefreshRequest &req) const;

    /** First tick rank @p r has been idle long enough to enter
     *  self-refresh. */
    Tick
    srIdleAt(RankId r) const
    {
        return lastDemandActivity_[r] +
            static_cast<Tick>(cfg_->srIdleEntryCycles);
    }

    /** Demand that needs the rank awake: queued reads, or queued
     *  writes once a write drain is active. */
    bool srDemandPending(RankId r) const;

    /** The queue the pick serves: writes during writeback mode. */
    const RequestQueue &
    servedQueue() const
    {
        return writeDrain_.active() ? writeQ_ : readQ_;
    }

    /**
     * Earliest tick after a tick that issued no refresh, SRE or SRX at
     * which some arbitration step can issue, from the state the tick
     * left: the minimum readiness of SRX, the urgent refreshes and
     * their precharge assists, the FR-FCFS candidates
     * (FrFcfs::readyAt()) and SRE with its idle threshold, for the
     * queue the pick serves (nextWake() first checks that the write
     * drain stays as it is). Stops at the first step ready by the next
     * tick. The one derivation of the arbitration's readiness; the
     * opportunistic pull-in's is the policy's (pullInReadyAt()).
     */
    Tick arbitrationReadyAt(Tick now);

    /** Record a request just queued for enqueueWake(). */
    void noteEnqueue(const Request &req, Tick now);

    /** Issue the chosen demand command and retire its request if column. */
    void serveDemand(RequestQueue &queue, const CmdChoice &choice, Tick now);

    ChannelId id_;
    const MemConfig *cfg_;
    const TimingParams *timing_;
    Channel channel_;
    Rng rng_;

    RequestQueue readQ_;
    RequestQueue writeQ_;
    CandidateCache readScan_;   ///< The pick's and scans', per queue.
    CandidateCache writeScan_;
    WriteDrain writeDrain_;
    std::unique_ptr<RefreshScheduler> refreshSched_;

    struct PendingRead
    {
        Tick done;
        Request req;
    };
    std::vector<PendingRead> pendingReads_;

    std::vector<std::uint8_t> blockedActBank_;
    std::vector<std::uint8_t> blockedActRank_;
    std::vector<RefreshRequest> urgentScratch_;
    std::vector<Tick> lastDemandActivity_;

    ReadCallback readCallback_;
    ControllerStats stats_;
    std::vector<TimedCommand> *cmdLog_ = nullptr;

    /** @name Event-engine bookkeeping (see nextWake/skipTicks). */
    /// @{
    Issued issued_ = Issued::kNothing;  ///< See Issued.
    bool sendRejected_ = false;      ///< An enqueue bounced off a full queue.
    bool poppedWithRejection_ = false; ///< ...and a slot has freed since.
    /** @name Enqueues since tick(), for enqueueWake(). */
    /// @{
    bool enqueueSteps_ = false;  ///< One wants the next tick.
    /** Banks given a request in the queue the pick serves. */
    std::vector<std::pair<RankId, BankId>> enqueuedBanks_;
    /// @}
    std::uint64_t picks_ = 0;  ///< FR-FCFS picks run (see picks()).
    /// @}
};

} // namespace dsarp

#endif // DSARP_CONTROLLER_CONTROLLER_HH

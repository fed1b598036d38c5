/**
 * @file
 * Unit tests for FR-FCFS command selection: row-hit-first, oldest-first,
 * auto-precharge of the last row hit, refresh-blocked ACT suppression,
 * and the conflict-precharge phase. A differential test replays random
 * channel and queue states through the per-bank pick and through the
 * plain whole-queue scan it replaced, which must agree exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "controller/scheduler.hh"
#include "policy.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace dsarp;

namespace {

/** A duration read as an instant on a clock that started at tick 0. */
Tick
at(Cycles c)
{
    return Tick(0) + c;
}

class FrFcfsTest : public ::testing::Test
{
  protected:
    FrFcfsTest()
        : cfg_(), timing_(), queue_(64, 2, 8)
    {
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
        channel_ = std::make_unique<Channel>(&cfg_, &timing_);
        noBlockBank_.assign(16, 0);
        noBlockRank_.assign(2, 0);
    }

    Request
    req(std::uint64_t id, RankId r, BankId b, RowId row, int column = 0,
        bool is_write = false)
    {
        Request rq;
        rq.id = id;
        rq.isWrite = is_write;
        rq.loc.rank = r;
        rq.loc.bank = b;
        rq.loc.row = row;
        rq.loc.column = column;
        return rq;
    }

    CmdChoice
    pick(Tick now)
    {
        return FrFcfs::pick(queue_, *channel_, now, noBlockBank_,
                            noBlockRank_, 8, cache_);
    }

    MemConfig cfg_;
    TimingParams timing_;
    std::unique_ptr<Channel> channel_;
    RequestQueue queue_;
    CandidateCache cache_{16};
    std::vector<std::uint8_t> noBlockBank_;
    std::vector<std::uint8_t> noBlockRank_;
};

} // namespace

TEST_F(FrFcfsTest, EmptyQueuePicksNothing)
{
    EXPECT_FALSE(pick(0).valid);
}

TEST_F(FrFcfsTest, ClosedBankGetsAct)
{
    queue_.push(req(1, 0, 0, 42));
    const CmdChoice c = pick(0);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kAct);
    EXPECT_EQ(c.cmd.row, 42);
    EXPECT_EQ(c.queueIndex, -1);
}

TEST_F(FrFcfsTest, SingleRequestUsesAutoPrecharge)
{
    queue_.push(req(1, 0, 0, 42));
    channel_->issue(pick(0).cmd, 0);
    const CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kRdA);
    EXPECT_EQ(c.queueIndex, 0);
}

TEST_F(FrFcfsTest, RowHitBatchKeepsRowOpenUntilLast)
{
    queue_.push(req(1, 0, 0, 42, 0));
    queue_.push(req(2, 0, 0, 42, 1));
    channel_->issue(pick(0).cmd, 0);

    CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kRd) << "another hit is queued";
    channel_->issue(c.cmd, at(timing_.tRcd));
    queue_.pop(c.queueIndex);

    c = pick(at(timing_.tRcd + timing_.tCcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kRdA) << "last hit closes the row";
}

TEST_F(FrFcfsTest, RowHitPrioritizedOverOlderAct)
{
    // Older request to bank 1 (needs ACT), younger hit on bank 0.
    queue_.push(req(1, 0, 0, 42));
    channel_->issue(pick(0).cmd, 0);  // ACT bank 0 row 42.
    queue_.pop(0);
    queue_.push(req(2, 0, 1, 7));   // Older in queue now.
    queue_.push(req(3, 0, 0, 42));  // Row hit.
    const CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_TRUE(isColumnCmd(c.cmd.type));
    EXPECT_EQ(c.cmd.bank, 0);
}

TEST_F(FrFcfsTest, OldestActWins)
{
    queue_.push(req(1, 0, 3, 5));
    queue_.push(req(2, 0, 4, 6));
    const CmdChoice c = pick(0);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.bank, 3);
}

TEST_F(FrFcfsTest, BlockedBankSkipsToNextRequest)
{
    queue_.push(req(1, 0, 3, 5));
    queue_.push(req(2, 0, 4, 6));
    noBlockBank_[3] = 1;  // rank 0, bank 3 blocked for refresh drain.
    const CmdChoice c = pick(0);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.bank, 4);
}

TEST_F(FrFcfsTest, BlockedRankSkipsWholeRank)
{
    queue_.push(req(1, 0, 3, 5));
    queue_.push(req(2, 1, 4, 6));
    noBlockRank_[0] = 1;
    const CmdChoice c = pick(0);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.rank, 1);
}

TEST_F(FrFcfsTest, BlockedBankRowHitForcesAutoPrecharge)
{
    queue_.push(req(1, 0, 0, 42, 0));
    queue_.push(req(2, 0, 0, 42, 1));
    channel_->issue(pick(0).cmd, 0);
    noBlockBank_[0] = 1;  // Refresh wants bank 0: close asap.
    const CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kRdA)
        << "hits still drain but must auto-precharge";
}

TEST_F(FrFcfsTest, ConflictPrechargeForStrandedRow)
{
    // Open row 42 on bank 0 with no queued request for it (as when reads
    // are stranded by writeback mode), then queue a request for row 7.
    queue_.push(req(1, 0, 0, 42));
    channel_->issue(pick(0).cmd, 0);
    queue_.pop(0);
    queue_.push(req(2, 0, 0, 7));

    // Until tRAS the precharge is not legal and nothing else fits.
    EXPECT_FALSE(pick(at(timing_.tRcd)).valid);

    const CmdChoice c = pick(at(timing_.tRas));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kPre);
    channel_->issue(c.cmd, at(timing_.tRas));

    const CmdChoice c2 = pick(at(timing_.tRas + timing_.tRp));
    ASSERT_TRUE(c2.valid);
    EXPECT_EQ(c2.cmd.type, CommandType::kAct);
    EXPECT_EQ(c2.cmd.row, 7);
}

TEST_F(FrFcfsTest, NoPrechargeWhileQueueStillWantsRow)
{
    queue_.push(req(1, 0, 0, 42));
    channel_->issue(pick(0).cmd, 0);
    queue_.push(req(2, 0, 0, 7));
    // Request 1 (row 42) is still queued: the row must not be blown away.
    const CmdChoice c = pick(at(timing_.tRas));
    ASSERT_TRUE(c.valid);
    EXPECT_NE(c.cmd.type, CommandType::kPre);
}

TEST_F(FrFcfsTest, WritesPickWriteCommands)
{
    queue_.push(req(1, 0, 0, 42, 0, true));
    channel_->issue(pick(0).cmd, 0);
    const CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kWrA);
}

namespace {

/** Queued requests for (rank, bank, row), by a scan of the queue. */
int
scanRowCount(const RequestQueue &queue, RankId r, BankId b, RowId row)
{
    int n = 0;
    for (int i = 0; i < queue.size(); ++i) {
        const DecodedAddr &loc = queue.at(i).loc;
        n += loc.rank == r && loc.bank == b && loc.row == row;
    }
    return n;
}

/**
 * Reference FR-FCFS: every phase scans the whole queue in age order.
 * The oracle FrFcfs::pick, which walks the per-bank index instead,
 * must match choice for choice.
 */
CmdChoice
scanPick(const RequestQueue &queue, const Channel &channel, Tick now,
         const std::vector<std::uint8_t> &act_blocked_bank,
         const std::vector<std::uint8_t> &act_blocked_rank,
         int banks_per_rank)
{
    CmdChoice choice;
    const auto bankIdx = [&](const Request &req) {
        return req.loc.rank * banks_per_rank + req.loc.bank;
    };

    // Phase 1: oldest row hit whose column command is legal.
    for (int i = 0; i < queue.size(); ++i) {
        const Request &req = queue.at(i);
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        if (!bank.isOpen() || bank.openRow() != req.loc.row)
            continue;
        const bool auto_pre =
            scanRowCount(queue, req.loc.rank, req.loc.bank, req.loc.row) <=
                1 ||
            act_blocked_bank[bankIdx(req)] || act_blocked_rank[req.loc.rank];
        Command cmd;
        cmd.type = req.isWrite
            ? (auto_pre ? CommandType::kWrA : CommandType::kWr)
            : (auto_pre ? CommandType::kRdA : CommandType::kRd);
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        cmd.row = req.loc.row;
        cmd.column = req.loc.column;
        cmd.subarray = req.loc.subarray;
        if (channel.canIssue(cmd, now)) {
            choice.valid = true;
            choice.cmd = cmd;
            choice.queueIndex = i;
            return choice;
        }
    }

    // Phase 2: oldest legal ACT; one try per bank unless it refreshes.
    std::vector<bool> tried(act_blocked_bank.size(), false);
    for (int i = 0; i < queue.size(); ++i) {
        const Request &req = queue.at(i);
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        if (tried[bankIdx(req)])
            continue;
        if (!bank.refreshing(now))
            tried[bankIdx(req)] = true;
        if (!channel.rank(req.loc.rank).canActRankLevel(now) ||
            act_blocked_rank[req.loc.rank] || act_blocked_bank[bankIdx(req)])
            continue;
        if (bank.isOpen() || !bank.canAct(now, req.loc.row))
            continue;
        choice.valid = true;
        choice.cmd.type = CommandType::kAct;
        choice.cmd.rank = req.loc.rank;
        choice.cmd.bank = req.loc.bank;
        choice.cmd.row = req.loc.row;
        choice.cmd.subarray = req.loc.subarray;
        return choice;
    }

    // Phase 3: precharge a row nothing queued wants, oldest 16 only.
    for (int i = 0; i < std::min(queue.size(), 16); ++i) {
        const Request &req = queue.at(i);
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        if (!bank.isOpen() || bank.openRow() == req.loc.row ||
            scanRowCount(queue, req.loc.rank, req.loc.bank, bank.openRow()) >
                0) {
            continue;
        }
        Command cmd;
        cmd.type = CommandType::kPre;
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        if (channel.canIssue(cmd, now)) {
            choice.valid = true;
            choice.cmd = cmd;
            return choice;
        }
    }
    return choice;
}

/**
 * Reference readiness of scanPick()'s candidates, one Channel::readyAt()
 * each: every open bank's oldest hit per direction, the oldest request
 * of every closed, unblocked bank (every request, and the refresh end,
 * while a SARP bank refreshes), and the conflict precharges of the 16
 * oldest. FrFcfs::readyAt() must report exactly this when the pick
 * finds nothing.
 */
Tick
scanReadyAt(const RequestQueue &queue, const Channel &channel, Tick now,
            const std::vector<std::uint8_t> &act_blocked_bank,
            const std::vector<std::uint8_t> &act_blocked_rank,
            int banks_per_rank)
{
    Tick ready = kTickNever;
    std::vector<std::uint8_t> hit_seen(2 * act_blocked_bank.size(), 0);
    std::vector<std::uint8_t> act_tried(act_blocked_bank.size(), 0);
    for (int i = 0; i < queue.size(); ++i) {
        const Request &req = queue.at(i);
        const int idx = req.loc.rank * banks_per_rank + req.loc.bank;
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        Command cmd;
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        cmd.row = req.loc.row;
        if (bank.isOpen()) {
            std::uint8_t &seen = hit_seen[2 * idx + req.isWrite];
            if (bank.openRow() != req.loc.row || seen)
                continue;
            seen = 1;
            cmd.type = req.isWrite ? CommandType::kWr : CommandType::kRd;
            ready = std::min(ready, channel.readyAt(cmd, now));
            continue;
        }
        if (act_blocked_rank[req.loc.rank] || act_blocked_bank[idx] ||
            act_tried[idx]) {
            continue;
        }
        if (bank.refreshing(now) && bank.activatesWhileRefreshing())
            ready = std::min(ready, bank.refreshUntil());
        else
            act_tried[idx] = 1;
        cmd.type = CommandType::kAct;
        ready = std::min(ready, channel.readyAt(cmd, now));
    }
    for (int i = 0; i < std::min(queue.size(), 16); ++i) {
        const Request &req = queue.at(i);
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        if (!bank.isOpen() || bank.openRow() == req.loc.row ||
            scanRowCount(queue, req.loc.rank, req.loc.bank, bank.openRow()) >
                0) {
            continue;
        }
        Command cmd;
        cmd.type = CommandType::kPre;
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        ready = std::min(ready, channel.readyAt(cmd, now));
    }
    return ready;
}

void
expectSameChoice(const CmdChoice &got, const CmdChoice &want, Tick now)
{
    ASSERT_EQ(got.valid, want.valid) << "tick " << now;
    if (!want.valid)
        return;
    EXPECT_EQ(got.queueIndex, want.queueIndex) << "tick " << now;
    EXPECT_EQ(got.cmd.type, want.cmd.type) << "tick " << now;
    EXPECT_EQ(got.cmd.rank, want.cmd.rank) << "tick " << now;
    EXPECT_EQ(got.cmd.bank, want.cmd.bank) << "tick " << now;
    EXPECT_EQ(got.cmd.row, want.cmd.row) << "tick " << now;
    EXPECT_EQ(got.cmd.column, want.cmd.column) << "tick " << now;
    EXPECT_EQ(got.cmd.subarray, want.cmd.subarray) << "tick " << now;
    EXPECT_EQ(got.cmd.hidden, want.cmd.hidden) << "tick " << now;
    EXPECT_EQ(got.cmd.rowsOverride, want.cmd.rowsOverride) << "tick " << now;
}

} // namespace

namespace {

/** What one differential run exercised. */
struct DiffCoverage
{
    int column = 0;
    int act = 0;
    int pre = 0;
    int refreshingHits = 0;  ///< Request-ticks on refreshing banks.
    int blockedStates = 0;
    int highBankChoices = 0;  ///< Choices for banks 64 and up.
};

/**
 * Replay @p num_states random states of a SARP channel with @p ranks x
 * @p banks banks at 32Gb (the longest tRFC, so refreshes overlap many
 * picks) through FrFcfs::pick and scanPick, which must agree exactly.
 * @p policy (a SARP mechanism) only sets the configured refresh
 * mechanism: the channel is driven by the picks themselves plus random
 * REFpb/REFab/ACT/PRE commands in any mode; the queues fill and drain
 * at random with requests concentrated on three subarrays so row hits,
 * stranded rows and subarray conflicts with a refreshing bank all
 * recur.
 */
DiffCoverage
differentialRun(int ranks, int banks, const char *policy, int num_states,
                std::uint64_t seed)
{
    MemConfig cfg;
    cfg.density = Density::k32Gb;
    selectPolicy(cfg, policy);
    cfg.org.ranksPerChannel = ranks;
    cfg.org.banksPerRank = banks;
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    Channel channel(&cfg, &timing);
    const int rows_per_sa = cfg.org.rowsPerSubarray();
    RequestQueue queues[2] = {RequestQueue(64, ranks, banks),
                              RequestQueue(64, ranks, banks)};
    CandidateCache caches[2] = {CandidateCache(ranks * banks),
                                CandidateCache(ranks * banks)};
    std::vector<std::uint8_t> blocked_bank(ranks * banks, 0);
    std::vector<std::uint8_t> blocked_rank(ranks, 0);
    Rng rng(seed);
    std::uint64_t next_id = 1;
    int target_depth = 8;

    DiffCoverage cov;
    int states = 0;
    for (Tick now = 0; states < num_states; ++now) {
        // Queue churn: a random walk of each queue toward its target.
        if (now % 500 == 0)
            target_depth = 1 + static_cast<int>(rng.below(64));
        for (int w = 0; w < 2; ++w) {
            RequestQueue &q = queues[w];
            while (q.size() < target_depth && rng.below(4) != 0) {
                Request req;
                req.id = next_id++;
                // Mostly one direction per queue, as in the
                // controller, with a few strays so a bank can hold hits
                // of both directions.
                req.isWrite = (w == 1) != (rng.below(8) == 0);
                req.loc.rank = static_cast<RankId>(rng.below(ranks));
                req.loc.bank = static_cast<BankId>(rng.below(banks));
                req.loc.subarray = static_cast<SubarrayId>(rng.below(3));
                req.loc.row = req.loc.subarray * rows_per_sa +
                    static_cast<RowId>(rng.below(3));
                req.loc.column = static_cast<int>(rng.below(128));
                req.addr = rng.below(1u << 20) * 64;
                q.push(req);
            }
            if (!q.empty() && rng.below(8) == 0)
                q.pop(static_cast<int>(rng.below(q.size())));
        }
        if (rng.below(16) == 0) {
            std::fill(blocked_bank.begin(), blocked_bank.end(), 0);
            std::fill(blocked_rank.begin(), blocked_rank.end(), 0);
            if (rng.below(2) == 0)
                blocked_bank[rng.below(blocked_bank.size())] = 1;
            if (rng.below(4) == 0)
                blocked_rank[rng.below(ranks)] = 1;
        }
        const bool any_blocked =
            std::count(blocked_bank.begin(), blocked_bank.end(), 1) +
                std::count(blocked_rank.begin(), blocked_rank.end(), 1) >
            0;

        CmdChoice chosen[2];
        for (int w = 0; w < 2; ++w) {
            const RequestQueue &q = queues[w];
            const CmdChoice want =
                scanPick(q, channel, now, blocked_bank, blocked_rank, banks);
            chosen[w] = FrFcfs::pick(q, channel, now, blocked_bank,
                                     blocked_rank, banks, caches[w]);
            expectSameChoice(chosen[w], want, now);
            // The readiness scan agrees with the reference: legal now
            // when a command is, else exactly the reference instant.
            const Tick scan = FrFcfs::readyAt(q, channel, now, now,
                                              blocked_bank, blocked_rank,
                                              banks, caches[w]);
            if (want.valid) {
                EXPECT_LE(scan, now) << "tick " << now;
            } else {
                const Tick ref = scanReadyAt(q, channel, now, blocked_bank,
                                             blocked_rank, banks);
                EXPECT_EQ(scan, ref) << "tick " << now;
            }
            if (::testing::Test::HasFailure())
                return cov;
            ++states;
            cov.blockedStates += any_blocked;
            if (want.valid) {
                cov.column += isColumnCmd(want.cmd.type);
                cov.act += want.cmd.type == CommandType::kAct;
                cov.pre += want.cmd.type == CommandType::kPre;
                cov.highBankChoices += want.cmd.bank >= 64;
            }
            for (int i = 0; i < q.size(); ++i) {
                const DecodedAddr &loc = q.at(i).loc;
                cov.refreshingHits +=
                    channel.rank(loc.rank).bank(loc.bank).refreshing(now);
            }
        }

        // Advance the channel: usually a pick's command, sometimes a
        // refresh or a stray ACT/PRE, sometimes nothing.
        const std::uint64_t roll = rng.below(100);
        const int w = static_cast<int>(rng.below(2));
        if (roll < 70 && chosen[w].valid) {
            channel.issue(chosen[w].cmd, now);
            if (isColumnCmd(chosen[w].cmd.type))
                queues[w].pop(chosen[w].queueIndex);
        } else if (roll < 85) {
            Command cmd;
            cmd.type = rng.below(6) == 0 ? CommandType::kRefAb
                                         : CommandType::kRefPb;
            cmd.rank = static_cast<RankId>(rng.below(ranks));
            cmd.bank = static_cast<BankId>(rng.below(banks));
            if (channel.canIssue(cmd, now))
                channel.issue(cmd, now);
        } else if (roll < 95) {
            Command cmd;
            cmd.type = rng.below(2) == 0 ? CommandType::kAct
                                         : CommandType::kPre;
            cmd.rank = static_cast<RankId>(rng.below(ranks));
            cmd.bank = static_cast<BankId>(rng.below(banks));
            cmd.subarray = static_cast<SubarrayId>(rng.below(3));
            cmd.row = cmd.subarray * rows_per_sa +
                static_cast<RowId>(rng.below(4));
            if (channel.canIssue(cmd, now))
                channel.issue(cmd, now);
        }
    }
    return cov;
}

} // namespace

TEST(FrFcfsDifferential, MatchesQueueScanOnRandomStates)
{
    // Two ranks of eight banks, the paper's geometry.
    const DiffCoverage cov = differentialRun(2, 8, "SARPpb", 12000, 2024);
    if (HasFailure())
        return;

    // The run must have exercised every phase and the refresh and
    // blocking paths, or agreement proves little.
    EXPECT_GT(cov.column, 500);
    EXPECT_GT(cov.act, 500);
    EXPECT_GT(cov.pre, 20);
    EXPECT_GT(cov.refreshingHits, 1000);
    EXPECT_GT(cov.blockedStates, 1000);
}

TEST(FrFcfsDifferential, MatchesQueueScanOverSixtyFourBanks)
{
    // Two ranks of 80 banks: each rank's occupancy takes two bitmap
    // words, so the pick must walk both and keep age order across them.
    // At 80 banks tREFIpb falls below tRFCpb, so per-bank refresh is
    // not a valid configured mode; the test still issues REFpb.
    const DiffCoverage cov =
        differentialRun(2, 80, "SARPab", 12000, 2025);
    if (HasFailure())
        return;

    EXPECT_GT(cov.column, 500);
    EXPECT_GT(cov.act, 500);
    EXPECT_GT(cov.pre, 20);
    EXPECT_GT(cov.refreshingHits, 1000);
    EXPECT_GT(cov.blockedStates, 1000);
    EXPECT_GT(cov.highBankChoices, 500);
}

TEST(FrFcfsDifferential, EventEngineIsTheDefault)
{
    // The cycle loop stays selectable as the reference the engine
    // equivalence tests compare against.
    EXPECT_EQ(ExperimentConfig{}.engine, "event");
    EXPECT_EQ(SystemConfig{}.engine, "event");
    ExperimentConfig cfg;
    cfg.set("sim.engine", "cycle");
    EXPECT_EQ(cfg.engine, "cycle");
    EXPECT_EQ(cfg.toSystemConfig().engine, "cycle");
}

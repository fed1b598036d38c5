/**
 * @file
 * Unit tests for channel-level constraints: data-bus occupancy, read/write
 * turnaround, rank-switch gaps, and command dispatch bookkeeping.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "dram/channel.hh"
#include "refresh/registry.hh"

using namespace dsarp;

namespace {

/** A duration read as an instant on a clock that started at tick 0. */
Tick
at(Cycles c)
{
    return Tick(0) + c;
}

class ChannelTest : public ::testing::Test
{
  protected:
    ChannelTest()
    {
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
    }

    Command
    act(RankId r, BankId b, RowId row)
    {
        Command cmd;
        cmd.type = CommandType::kAct;
        cmd.rank = r;
        cmd.bank = b;
        cmd.row = row;
        return cmd;
    }

    Command
    col(CommandType type, RankId r, BankId b, int column = 0)
    {
        Command cmd;
        cmd.type = type;
        cmd.rank = r;
        cmd.bank = b;
        cmd.column = column;
        return cmd;
    }

    Command
    refresh(CommandType type, RankId r, BankId b = 0)
    {
        Command cmd;
        cmd.type = type;
        cmd.rank = r;
        cmd.bank = b;
        return cmd;
    }

    MemConfig cfg_;
    TimingParams timing_;
};

} // namespace

TEST_F(ChannelTest, ReadReturnsDataTick)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    const Tick t = at(timing_.tRcd);
    const Tick done = ch.issue(col(CommandType::kRdA, 0, 0), t);
    EXPECT_EQ(done, t + timing_.tCl + timing_.tBl);
    EXPECT_EQ(ch.stats().acts, 1u);
    EXPECT_EQ(ch.stats().reads, 1u);
}

TEST_F(ChannelTest, BackToBackReadsSameBankSpacedByTccd)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    const Tick t = at(timing_.tRcd);
    ch.issue(col(CommandType::kRd, 0, 0), t);
    EXPECT_FALSE(ch.canIssue(col(CommandType::kRd, 0, 0), t + 3));
    EXPECT_TRUE(ch.canIssue(col(CommandType::kRd, 0, 0), t + timing_.tCcd));
}

TEST_F(ChannelTest, ReadsAcrossBanksShareDataBus)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    ch.issue(act(0, 1, 6), at(timing_.tRrd));
    const Tick t = at(timing_.tRrd + timing_.tRcd);
    ch.issue(col(CommandType::kRd, 0, 0), t);
    // The second read's burst may not overlap the first: effectively
    // tBL spacing (tCCD = tBL here).
    EXPECT_FALSE(ch.canIssue(col(CommandType::kRd, 0, 1), t + 1));
    EXPECT_TRUE(
        ch.canIssue(col(CommandType::kRd, 0, 1), t + timing_.tBl));
}

TEST_F(ChannelTest, WriteToReadTurnaround)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    ch.issue(act(0, 1, 6), at(timing_.tRrd));
    const Tick tw = at(timing_.tRcd);
    ch.issue(col(CommandType::kWr, 0, 0), tw);
    const Tick data_end = tw + timing_.tCwl + timing_.tBl;
    // tWTR counts from the end of write data to the read command.
    EXPECT_FALSE(ch.canIssue(col(CommandType::kRd, 0, 1),
                             data_end + timing_.tWtr - Cycles(1)));
    EXPECT_TRUE(
        ch.canIssue(col(CommandType::kRd, 0, 1), data_end + timing_.tWtr));
}

TEST_F(ChannelTest, ReadToWriteTurnaround)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    ch.issue(act(0, 1, 6), at(timing_.tRrd));
    const Tick tr = at(timing_.tRcd);
    ch.issue(col(CommandType::kRd, 0, 0), tr);
    EXPECT_FALSE(
        ch.canIssue(col(CommandType::kWr, 0, 1), tr + timing_.tRtw - Cycles(1)));
    EXPECT_TRUE(
        ch.canIssue(col(CommandType::kWr, 0, 1), tr + timing_.tRtw));
}

TEST_F(ChannelTest, RankSwitchAddsTrtrs)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    ch.issue(act(1, 0, 6), 1);  // Different rank: no tRRD coupling.
    const Tick t = Tick(1) + timing_.tRcd;
    ch.issue(col(CommandType::kRd, 0, 0), t);
    // Same-rank back-to-back would be legal at t + tBL; the rank switch
    // adds tRTRS.
    EXPECT_FALSE(ch.canIssue(col(CommandType::kRd, 1, 0), t + timing_.tBl));
    EXPECT_TRUE(ch.canIssue(col(CommandType::kRd, 1, 0),
                            t + timing_.tBl + timing_.tRtrs));
}

TEST_F(ChannelTest, RefreshCommandsTracked)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(refresh(CommandType::kRefPb, 0, 2), 0);
    EXPECT_EQ(ch.stats().refPb, 1u);
    EXPECT_EQ(ch.stats().refPbCycles,
              static_cast<std::uint64_t>(timing_.tRfcPb.count()));
    ch.issue(refresh(CommandType::kRefAb, 1), 5);
    EXPECT_EQ(ch.stats().refAb, 1u);
    EXPECT_EQ(ch.stats().refAbCycles,
              static_cast<std::uint64_t>(timing_.tRfcAb.count()));
}

TEST_F(ChannelTest, RefreshOverrideChangesAccountedCycles)
{
    Channel ch(&cfg_, &timing_);
    Command cmd = refresh(CommandType::kRefAb, 0);
    cmd.tRfcOverride = Cycles(100);
    ch.issue(cmd, 0);
    EXPECT_EQ(ch.stats().refAbCycles, 100u);
}

TEST_F(ChannelTest, IndependentRanksActFreely)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 1), 0);
    // tRRD does not couple ranks.
    EXPECT_TRUE(ch.canIssue(act(1, 0, 1), 1));
}

TEST_F(ChannelTest, SampleActivityCountsRankTicks)
{
    Channel ch(&cfg_, &timing_);
    ch.sampleActivity(0);
    EXPECT_EQ(ch.stats().rankTotalTicks, 2u);
    EXPECT_EQ(ch.stats().rankActiveTicks, 0u);
    ch.issue(act(0, 0, 1), 0);
    ch.sampleActivity(1);
    EXPECT_EQ(ch.stats().rankTotalTicks, 4u);
    EXPECT_EQ(ch.stats().rankActiveTicks, 1u);
}

TEST_F(ChannelTest, ResetStatsClearsCounters)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 1), 0);
    ch.resetStats();
    EXPECT_EQ(ch.stats().acts, 0u);
}

// ---------------------------------------------------------------------
// Readiness property: Channel::readyAt() is never late, and exact
// wherever it is documented so.
// ---------------------------------------------------------------------

namespace {

constexpr int kNumTypes = 11;

/** Drives a random legal command stream through one channel and checks
 *  every command type's readiness against canIssue() on copies. */
class ReadinessDriver
{
  public:
    ReadinessDriver(const std::string &spec, const std::string &policy,
                    std::uint64_t seed)
        : rng_(seed)
    {
        cfg_.dramSpec = spec;
        cfg_.policy = policy;
        cfg_.density = Density::k32Gb;
        RefreshPolicyRegistry::instance().resolve(cfg_);
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
        ch_ = std::make_unique<Channel>(&cfg_, &timing_);
        if (timing_.banksPerGroup > 0)
            groups_ = cfg_.org.banksPerRank / timing_.banksPerGroup;
    }

    void
    run(int steps)
    {
        for (int i = 0; i < steps && !::testing::Test::HasFatalFailure();
             ++i) {
            // The stream: a command the bank's state makes plausible,
            // issued at its readiness when that is near.
            const Command cmd = plausibleCommand();
            const Tick ready = check(cmd);
            if (ready <= now_) {
                ch_->issue(cmd, now_);
            } else if (ready != kTickNever && ready - now_ <= 600 &&
                       rng_.chance(0.8)) {
                now_ = ready;
                if (ch_->canIssue(cmd, now_))
                    ch_->issue(cmd, now_);
            }
            // Coverage of every type, whatever the stream is doing.
            check(anyCommand(static_cast<CommandType>(rng_.below(kNumTypes))));
            if (rng_.below(200) == 0)
                enterSelfRefresh(cmd.rank);
            if (rng_.below(10) == 0)
                actBurstNearRefreshEnd(cmd.rank);
            now_ += rng_.below(4);
        }
    }

    /** Checks with a finite readiness after now, per command type. */
    std::array<int, kNumTypes> waited{};
    /** ...and of those, how many were checked exact at the bound. */
    std::array<int, kNumTypes> exact{};

  private:
    /** Far enough for every DRAM timing of the specs under test. */
    static constexpr Tick kHorizon = 1200;

    Tick
    check(const Command &cmd)
    {
        const Tick ready = ch_->readyAt(cmd, now_);
        std::ostringstream ctx;
        ctx << cfg_.dramSpec << "/" << cfg_.policy << " "
            << commandName(cmd.type) << " r" << cmd.rank << " b" << cmd.bank
            << " row" << cmd.row << " hidden=" << cmd.hidden
            << " now=" << now_ << " readyAt=" << ready;
        if (ready <= now_)
            return ready;

        // Pruning the in-flight refresh lists at later ticks is only
        // legal on a copy.
        Channel copy = *ch_;
        const Tick end = std::min(ready, now_ + kHorizon);
        for (Tick t = now_; t < end; ++t) {
            if (copy.canIssue(cmd, t)) {
                ADD_FAILURE() << "legal at " << t << " before " << ctx.str();
                return ready;
            }
        }
        if (ready >= now_ + kHorizon)
            return ready;
        const int type = static_cast<int>(cmd.type);
        ++waited[type];
        // Exact except for an ACT while a refresh inflates tRRD/tFAW:
        // there the refresh end is a lower bound.
        const Rank &rk = ch_->rank(cmd.rank);
        const bool inflated = cmd.type == CommandType::kAct &&
            rk.refreshBusyUntil() > now_;
        if (!inflated) {
            ++exact[type];
            EXPECT_TRUE(copy.canIssue(cmd, ready)) << "not exact: "
                                                   << ctx.str();
        }
        return ready;
    }

    /** Close the rank's open banks, then SRE, each at its readiness;
     *  the stream issues the SRX later. */
    void
    enterSelfRefresh(RankId r)
    {
        const Rank &rk = ch_->rank(r);
        if (rk.inSelfRefresh(now_))
            return;
        for (BankId b = 0; b < rk.numBanks(); ++b) {
            if (!rk.bank(b).isOpen())
                continue;
            Command pre = target(CommandType::kPre);
            pre.rank = r;
            pre.bank = b;
            issueWhenReady(pre);
        }
        Command sre = target(CommandType::kSrEnter);
        sre.rank = r;
        issueWhenReady(sre);
    }

    /** Fill the tRRD/tFAW windows just before an in-flight refresh
     *  ends, where the refresh-inflated windows outlast it. */
    void
    actBurstNearRefreshEnd(RankId r)
    {
        const Tick end = ch_->rank(r).nextRefreshEnd(now_);
        if (end == kTickNever)
            return;
        // Five back-to-back ACTs span about one tFAW: start them so the
        // refresh ends while the fifth waits.
        const Tick lead = 12 + rng_.below(32);
        if (end > now_ + lead)
            now_ = end - lead;
        int acts = 0;
        for (BankId b = 0; b < ch_->rank(r).numBanks() && acts < 6; ++b) {
            if (ch_->rank(r).bank(b).isOpen())
                continue;
            Command act = anyCommand(CommandType::kAct);
            act.rank = r;
            act.bank = b;
            issueWhenReady(act);
            ++acts;
        }
    }

    void
    issueWhenReady(const Command &cmd)
    {
        const Tick ready = check(cmd);
        if (ready == kTickNever)
            return;
        now_ = std::max(now_, ready);
        if (ch_->canIssue(cmd, now_))
            ch_->issue(cmd, now_);
    }

    Command
    target(CommandType type)
    {
        Command cmd;
        cmd.type = type;
        cmd.rank = static_cast<RankId>(rng_.below(cfg_.org.ranksPerChannel));
        cmd.bank = static_cast<BankId>(rng_.below(cfg_.org.banksPerRank));
        return cmd;
    }

    Command
    anyCommand(CommandType type)
    {
        Command cmd = target(type);
        if (cmd.type == CommandType::kAct) {
            cmd.row = static_cast<RowId>(rng_.below(cfg_.org.rowsPerBank));
            cmd.subarray = ch_->rank(cmd.rank).bank(cmd.bank).subarrayOf(
                cmd.row);
        } else if (cmd.type == CommandType::kRefSb && groups_ > 0) {
            cmd.bank = static_cast<BankId>(rng_.below(groups_));
        } else if (cmd.type == CommandType::kRefPb) {
            cmd.hidden = cfg_.hira && rng_.chance(0.5);
        }
        return cmd;
    }

    Command
    plausibleCommand()
    {
        Command cmd = target(CommandType::kAct);
        const Rank &rk = ch_->rank(cmd.rank);
        if (rk.inSelfRefresh(now_)) {
            cmd.type = CommandType::kSrExit;
            return cmd;
        }
        const double u = rng_.uniform();
        if (u < 0.01)
            return anyCommand(CommandType::kSrEnter);
        if (u < 0.03)
            return anyCommand(CommandType::kRefAb);
        if (u < 0.08 && groups_ > 0 && rng_.chance(0.5))
            return anyCommand(CommandType::kRefSb);
        if (u < 0.08)
            return anyCommand(CommandType::kRefPb);
        const Bank &bank = rk.bank(cmd.bank);
        if (!bank.isOpen())
            return anyCommand(CommandType::kAct);
        // Open bank: column commands, closing it now and then.
        const CommandType cols[] = {CommandType::kRd, CommandType::kWr,
                                    CommandType::kRdA, CommandType::kWrA,
                                    CommandType::kPre};
        cmd.type = cols[rng_.below(5)];
        cmd.row = bank.openRow();
        return cmd;
    }

    MemConfig cfg_;
    TimingParams timing_;
    std::unique_ptr<Channel> ch_;
    Rng rng_;
    Tick now_ = 0;
    int groups_ = 0;
};

void
expectReadiness(const std::string &spec, const std::string &policy)
{
    ReadinessDriver driver(spec, policy, 7);
    driver.run(6000);
    // Every command type waited at least once, and each was checked
    // exact at least once.
    for (int type = 0; type < kNumTypes; ++type) {
        const auto t = static_cast<CommandType>(type);
        if (t == CommandType::kRefSb &&
            spec.find("DDR5") == std::string::npos) {
            continue;
        }
        EXPECT_GT(driver.waited[type], 0)
            << spec << "/" << policy << " " << commandName(t);
        EXPECT_GT(driver.exact[type], 0)
            << spec << "/" << policy << " " << commandName(t);
    }
}

} // namespace

TEST(ChannelReadiness, Ddr3PerBank) { expectReadiness("DDR3-1333", "REFpb"); }

TEST(ChannelReadiness, Ddr3Sarp) { expectReadiness("DDR3-1333", "SARPpb"); }

TEST(ChannelReadiness, Ddr3Hira) { expectReadiness("DDR3-1333", "HiRA"); }

TEST(ChannelReadiness, Ddr5SameBank) { expectReadiness("DDR5-4800", "REFsb"); }

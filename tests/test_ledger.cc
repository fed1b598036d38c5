/**
 * @file
 * Unit tests for the refresh obligation ledger (the JEDEC postpone /
 * pull-in window and the erratum's data-integrity bound).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "refresh/ledger.hh"

using namespace dsarp;

TEST(Ledger, NothingOwedBeforeFirstAccrual)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(999);
    EXPECT_EQ(ledger.owed(0, 0), 0);
    EXPECT_FALSE(ledger.due(0, 0));
}

TEST(Ledger, AccruesOncePerPeriod)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(1000);
    EXPECT_EQ(ledger.owed(0, 0), 1);
    ledger.advanceTo(3999);
    EXPECT_EQ(ledger.owed(0, 0), 3);
    EXPECT_EQ(ledger.totalAccrued(), 3u);
}

TEST(Ledger, StaggerOffsetsUnits)
{
    RefreshLedger ledger(1, 4, Cycles(1000), Cycles(0), Cycles(100));
    ledger.advanceTo(1000);
    EXPECT_EQ(ledger.owed(0, 0), 1);
    EXPECT_EQ(ledger.owed(0, 1), 0);
    ledger.advanceTo(1100);
    EXPECT_EQ(ledger.owed(0, 1), 1);
    ledger.advanceTo(1300);
    EXPECT_EQ(ledger.owed(0, 3), 1);
}

TEST(Ledger, RefreshRetiresObligation)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(2500);
    EXPECT_EQ(ledger.owed(0, 0), 2);
    ledger.onRefresh(0, 0);
    EXPECT_EQ(ledger.owed(0, 0), 1);
    EXPECT_EQ(ledger.totalRetired(), 1u);
}

TEST(Ledger, ForceAtPostponeLimit)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.advanceTo(7999);
    EXPECT_FALSE(ledger.mustForce(0, 0));
    ledger.advanceTo(8000);
    EXPECT_EQ(ledger.owed(0, 0), 8);
    EXPECT_TRUE(ledger.mustForce(0, 0));
}

TEST(Ledger, PullInBoundedAtMinusEight)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(ledger.canPullIn(0, 0));
        ledger.onRefresh(0, 0);
    }
    EXPECT_EQ(ledger.owed(0, 0), -8);
    EXPECT_FALSE(ledger.canPullIn(0, 0));
}

TEST(Ledger, PullInCreatesSlack)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.onRefresh(0, 0);  // owed = -1.
    ledger.advanceTo(9000);  // 9 accruals.
    EXPECT_EQ(ledger.owed(0, 0), 8);
    EXPECT_TRUE(ledger.mustForce(0, 0)) << "slack was spent";
}

TEST(Ledger, AccruedBetween)
{
    RefreshLedger ledger(1, 2, Cycles(1000), Cycles(0), Cycles(100));
    // Unit (0,0) accrues at 1000, 2000, ...; unit (0,1) at 1100, 2100...
    EXPECT_FALSE(ledger.accruedBetween(0, 0, 0, 999));
    EXPECT_TRUE(ledger.accruedBetween(0, 0, 999, 1000));
    EXPECT_FALSE(ledger.accruedBetween(0, 0, 1000, 1999));
    EXPECT_TRUE(ledger.accruedBetween(0, 1, 1000, 1100));
    EXPECT_TRUE(ledger.accruedBetween(0, 0, 500, 2500));
}

TEST(Ledger, FractionalAccounting)
{
    RefreshLedger ledger(1, 1, Cycles(250), Cycles(0), Cycles(0), 8);
    ledger.setDenominator(4);
    ledger.advanceTo(250);
    EXPECT_EQ(ledger.owed(0, 0), 4) << "one accrual = 4 quarters";
    ledger.onPartialRefresh(0, 0, 1);
    EXPECT_EQ(ledger.owed(0, 0), 3);
    ledger.onRefresh(0, 0);  // Full slot retires 4 quarters.
    EXPECT_EQ(ledger.owed(0, 0), -1);
    EXPECT_FALSE(ledger.mustForce(0, 0));
}

TEST(Ledger, FractionalForceLimitScales)
{
    RefreshLedger ledger(1, 1, Cycles(250), Cycles(0), Cycles(0), 8);
    ledger.setDenominator(4);
    ledger.advanceTo(250 * 7);
    EXPECT_FALSE(ledger.mustForce(0, 0));
    ledger.advanceTo(250 * 8);
    EXPECT_TRUE(ledger.mustForce(0, 0));
}

TEST(Ledger, DenominatorChangeRescalesExistingBalances)
{
    // Regression: setDenominator used to be legal only on a pristine
    // ledger, and silently reinterpreted any existing balance against
    // the new denominator while canPullInParts() compared it to the
    // rescaled window. The REFsb + HiRA slice-pairing composition
    // (fractional accounting armed after pull-ins already happened)
    // exercises exactly this path.
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.onRefresh(0, 0);  // Two whole slots pulled in before the
    ledger.onRefresh(0, 0);  // first accrual (idle-channel warmup).
    EXPECT_EQ(ledger.owed(0, 0), -2);

    ledger.setDenominator(4);
    EXPECT_EQ(ledger.owed(0, 0), -8) << "balance rescaled to quarters";

    // The JEDEC window keeps its whole-slot meaning across the
    // change: 8 slots of pull-in total, 2 already spent -> exactly 6
    // more full slots may be pulled in, not 7 (which the unrescaled
    // balance would have allowed).
    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(ledger.canPullIn(0, 0)) << "slot " << i;
        ledger.onRefresh(0, 0);
    }
    EXPECT_EQ(ledger.owed(0, 0), -32);
    EXPECT_FALSE(ledger.canPullIn(0, 0));
    EXPECT_FALSE(ledger.canPullInParts(0, 0, 1));
}

TEST(Ledger, DenominatorChangeMidWindow)
{
    RefreshLedger ledger(1, 2, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.advanceTo(3000);  // Three accruals per unit.
    ledger.onRefresh(0, 0);
    EXPECT_EQ(ledger.owed(0, 0), 2);
    EXPECT_EQ(ledger.owed(0, 1), 3);

    ledger.setDenominator(2);
    EXPECT_EQ(ledger.owed(0, 0), 4) << "2 slots -> 4 halves";
    EXPECT_EQ(ledger.owed(0, 1), 6);

    // Accruals after the change add the new denominator per period.
    ledger.advanceTo(4000);
    EXPECT_EQ(ledger.owed(0, 0), 6);

    // Fractional retirement and the force threshold both use the new
    // denominator consistently (mustForce at 8 slots = 16 halves).
    ledger.onPartialRefresh(0, 0, 3);
    EXPECT_EQ(ledger.owed(0, 0), 3);
    EXPECT_FALSE(ledger.mustForce(0, 0));
    ledger.advanceTo(10000);
    EXPECT_TRUE(ledger.mustForce(0, 1));
}

TEST(Ledger, DenominatorChangeRefusesToTruncate)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.setDenominator(4);
    ledger.advanceTo(1000);
    ledger.onPartialRefresh(0, 0, 1);  // Balance now 3 quarters.
    EXPECT_DEATH(ledger.setDenominator(1), "truncate");
}

TEST(Ledger, MultiRankIndependence)
{
    RefreshLedger ledger(2, 8, Cycles(1000), Cycles(500), Cycles(10));
    ledger.advanceTo(5000);
    ledger.onRefresh(1, 5);
    EXPECT_EQ(ledger.owed(0, 5), ledger.owed(1, 5) + 1);
}

TEST(Ledger, NextAccrualMemoMatchesScanAcrossPauseResume)
{
    // nextAccrualTick() is a memo that lets advanceTo() return at once
    // on ticks with no accrual. Check it, and the accruals it gates,
    // against an independent per-unit model scanned in full at every
    // step, across pause/resume and denominator changes.
    constexpr int kRanks = 2;
    constexpr int kBanks = 4;
    constexpr Tick kPeriod = 97;
    RefreshLedger ledger(kRanks, kBanks, Cycles(97), Cycles(13), Cycles(7));

    std::vector<Tick> next(kRanks * kBanks);
    for (int r = 0; r < kRanks; ++r) {
        for (int b = 0; b < kBanks; ++b)
            next[r * kBanks + b] = kPeriod + 13 * r + 7 * b;
    }
    std::vector<Tick> paused_at(kRanks, kTickNever);
    std::uint64_t accrued = 0;

    Rng rng(3);
    Tick now = 0;
    int pauses = 0;
    int idle_advances = 0;
    for (int step = 0; step < 4000; ++step) {
        now += rng.below(4) == 0 ? rng.below(300) : rng.below(20);
        const bool accrues = ledger.nextAccrualTick() <= now;
        ledger.advanceTo(now);
        idle_advances += !accrues;
        for (int i = 0; i < kRanks * kBanks; ++i) {
            if (paused_at[i / kBanks] != kTickNever)
                continue;
            for (; next[i] <= now; next[i] += kPeriod)
                ++accrued;
        }

        const RankId r = static_cast<RankId>(rng.below(kRanks));
        if (rng.below(8) == 0) {
            if (paused_at[r] == kTickNever) {
                ledger.pauseRank(r, now);
                paused_at[r] = now;
                ++pauses;
            } else {
                ledger.resumeRank(r, now);
                for (int b = 0; b < kBanks; ++b)
                    next[r * kBanks + b] += now - paused_at[r];
                paused_at[r] = kTickNever;
            }
        }
        if (step == 1500)
            ledger.setDenominator(4);
        if (ledger.owed(r, 0) > 0)
            ledger.onRefresh(r, 0);

        Tick earliest = kTickNever;
        for (int i = 0; i < kRanks * kBanks; ++i) {
            if (paused_at[i / kBanks] == kTickNever)
                earliest = std::min(earliest, next[i]);
        }
        ASSERT_EQ(ledger.nextAccrualTick(), earliest) << "step " << step;
        ASSERT_EQ(ledger.totalAccrued(), accrued) << "step " << step;
    }
    // Both paths of advanceTo() and of pause/resume ran.
    EXPECT_GT(pauses, 100);
    EXPECT_GT(idle_advances, 1000);
    EXPECT_GT(accrued, 1000u);
}

/**
 * @file
 * Tests for the string-keyed refresh-policy registry: every paper
 * mechanism round-trips by name (and alias), unknown names fail with a
 * helpful error, resolving applies each bundle from a clean slate, and
 * -- the acceptance bar for the open API -- a custom policy registered
 * at runtime drives a full System with no factory/enum edits.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mock_view.hh"
#include "refresh/all_bank.hh"
#include "refresh/darp.hh"
#include "refresh/elastic.hh"
#include "refresh/registry.hh"
#include "sim/system.hh"

using namespace dsarp;

namespace {

/** Expected config bundle per canonical mechanism name. */
struct Expected
{
    const char *name;
    RefreshMode mode;
    bool sarp;
    bool hira;
};

/** The paper's eleven mechanisms, then the HiRA and DDR5 same-bank
 *  extensions. */
const std::vector<Expected> &
mechanisms()
{
    static const std::vector<Expected> table = {
        {"NoREF", RefreshMode::kNoRefresh, false, false},
        {"REFab", RefreshMode::kAllBank, false, false},
        {"REFpb", RefreshMode::kPerBank, false, false},
        {"Elastic", RefreshMode::kAllBank, false, false},
        {"DARP", RefreshMode::kPerBank, false, false},
        {"SARPab", RefreshMode::kAllBank, true, false},
        {"SARPpb", RefreshMode::kPerBank, true, false},
        {"DSARP", RefreshMode::kPerBank, true, false},
        {"FGR2x", RefreshMode::kFgr2x, false, false},
        {"FGR4x", RefreshMode::kFgr4x, false, false},
        {"AR", RefreshMode::kAllBank, false, false},
        {"HiRA", RefreshMode::kPerBank, false, true},
        {"REFsb", RefreshMode::kSameBank, false, false},
        {"HiRAsb", RefreshMode::kSameBank, false, true},
    };
    return table;
}

} // namespace

TEST(Registry, AllPaperMechanismsRegistered)
{
    const auto &registry = RefreshPolicyRegistry::instance();
    for (const Expected &mech : mechanisms()) {
        const auto *entry = registry.find(mech.name);
        ASSERT_NE(entry, nullptr) << mech.name;
        EXPECT_EQ(entry->name, mech.name);
        EXPECT_FALSE(entry->summary.empty()) << mech.name;
    }
}

TEST(Registry, NamesAreSortedAndCanonical)
{
    const auto names = RefreshPolicyRegistry::instance().names();
    EXPECT_GE(names.size(), 11u);
    for (std::size_t i = 1; i < names.size(); ++i)
        EXPECT_LT(names[i - 1], names[i]);
    // Aliases must not show up as separate mechanisms.
    for (const std::string &name : names)
        EXPECT_NE(name, "all_bank");
}

TEST(Registry, LookupIsCaseInsensitiveAndAliased)
{
    const auto &registry = RefreshPolicyRegistry::instance();
    EXPECT_EQ(registry.at("dsarp").name, "DSARP");
    EXPECT_EQ(registry.at("REFAB").name, "REFab");
    EXPECT_EQ(registry.at("all_bank").name, "REFab");
    EXPECT_EQ(registry.at("per_bank").name, "REFpb");
    EXPECT_EQ(registry.at("sarp_ab").name, "SARPab");
    EXPECT_EQ(registry.at("sarp_pb").name, "SARPpb");
    EXPECT_EQ(registry.at("none").name, "NoREF");
    EXPECT_EQ(registry.at("adaptive").name, "AR");
    EXPECT_FALSE(registry.has("bogus"));
    EXPECT_EQ(registry.find("bogus"), nullptr);
}

TEST(Registry, ResolveAppliesConfigBundle)
{
    for (const Expected &mech : mechanisms()) {
        MemConfig cfg;
        cfg.policy = mech.name;
        // Adversarial initial state: stale outputs of another bundle,
        // which resolve() must clear before applying this one.
        const RefreshMode stale = mech.mode == RefreshMode::kFgr4x
            ? RefreshMode::kSameBank
            : RefreshMode::kFgr4x;
        cfg.refresh = stale;    // lint: allow(bundle-output)
        cfg.sarp = !mech.sarp;  // lint: allow(bundle-output)
        cfg.hira = !mech.hira;  // lint: allow(bundle-output)
        // Twice: re-resolving (e.g. a config copied out of a built
        // System) must reproduce the same config.
        for (int pass = 0; pass < 2; ++pass) {
            RefreshPolicyRegistry::instance().resolve(cfg);
            EXPECT_EQ(cfg.policy, mech.name);
            EXPECT_EQ(cfg.refresh, mech.mode) << mech.name;
            EXPECT_EQ(cfg.sarp, mech.sarp) << mech.name;
            EXPECT_EQ(cfg.hira, mech.hira) << mech.name;
        }
    }
}

TEST(Registry, MakeDispatchesByName)
{
    MemConfig cfg;
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    MockView view(&cfg, &timing);
    const auto &registry = RefreshPolicyRegistry::instance();

    // The default MemConfig names REFab.
    auto by_default = registry.make(cfg, timing, view);
    EXPECT_NE(dynamic_cast<AllBankScheduler *>(by_default.get()), nullptr);

    MemConfig darp = cfg;
    darp.policy = "DARP";
    auto by_name = registry.make(darp, timing, view);
    EXPECT_NE(dynamic_cast<DarpScheduler *>(by_name.get()), nullptr);

    MemConfig elastic = cfg;
    elastic.policy = "elastic";  // Lookups are case-insensitive.
    auto any_case = registry.make(elastic, timing, view);
    EXPECT_NE(dynamic_cast<ElasticScheduler *>(any_case.get()), nullptr);
}

TEST(RegistryDeath, UnknownNameListsKnownMechanisms)
{
    MemConfig cfg;
    cfg.policy = "quantum-refresh";  // Not a registered mechanism.
    EXPECT_EXIT(RefreshPolicyRegistry::instance().resolve(cfg),
                testing::ExitedWithCode(1),
                "unknown refresh policy 'quantum-refresh'.*DSARP");
}

// ---------------------------------------------------------------------
// The open-API acceptance test: a policy defined and registered at
// runtime, outside src/refresh/, drives a full System by name.
// ---------------------------------------------------------------------

namespace {

/** A trivial custom policy: refreshes every bank of rank 0 on a fixed
 *  short period, tracking construction and issue counts. */
class TestPulseScheduler : public RefreshScheduler
{
  public:
    static int constructed;
    static int issuedCount;

    TestPulseScheduler(const MemConfig *cfg, const TimingParams *timing,
                       ControllerView *view)
        : RefreshScheduler(cfg, timing, view)
    {
        ++constructed;
    }

    void tick(Tick now) override
    {
        due_ = now % static_cast<Tick>((timing_->tRefiAb / 2).count()) == 0;
    }

    void
    urgent(Tick, std::vector<RefreshRequest> &out) override
    {
        if (!due_)
            return;
        RefreshRequest req;
        req.allBank = true;
        req.rank = 0;
        out.push_back(req);
    }

    bool opportunistic(Tick, RefreshRequest &) override { return false; }

    void
    onIssued(const RefreshRequest &, Tick) override
    {
        due_ = false;
        ++issuedCount;
        ++stats_.issued;
    }

  private:
    bool due_ = false;
};

int TestPulseScheduler::constructed = 0;
int TestPulseScheduler::issuedCount = 0;

const bool testPolicyRegistered [[maybe_unused]] =
    RefreshPolicyRegistry::instance().add(
        {"TestPulse", "test-local custom policy (registered at runtime)",
         // No bundle: the all-bank timing profile resolve() resets to
         // is all this policy needs; dispatch is by name.
         nullptr,
         [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
             return std::make_unique<TestPulseScheduler>(&c, &t, &v);
         }},
        {"test_pulse"});

} // namespace

TEST(Registry, RuntimeRegisteredPolicyDrivesASystem)
{
    ASSERT_TRUE(RefreshPolicyRegistry::instance().has("TestPulse"));

    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.policy = "test_pulse";  // Alias, mixed case welcome.
    TestPulseScheduler::constructed = 0;
    TestPulseScheduler::issuedCount = 0;

    System sys(cfg, std::vector<int>{0, 1});
    EXPECT_EQ(sys.config().mem.policy, "TestPulse");  // Canonicalised.
    EXPECT_EQ(sys.config().mem.refresh, RefreshMode::kAllBank);
    EXPECT_EQ(TestPulseScheduler::constructed,
              sys.config().mem.org.channels);

    sys.run(20000);
    EXPECT_GT(TestPulseScheduler::issuedCount, 0);

    std::uint64_t reads = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch)
        reads += sys.controller(ch).stats().readsCompleted;
    EXPECT_GT(reads, 0u);
}

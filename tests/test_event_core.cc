/**
 * @file
 * Event-engine equivalence suite: the skip-to-next-wake engine
 * (sim.engine=event) must be observationally indistinguishable from
 * the legacy cycle loop -- not approximately, bit for bit. Every case
 * runs the same seeded workload twice, once per engine, and asserts
 *
 *   - identical command logs (tick and every Command field),
 *   - identical per-core IPCs (exact doubles -- the RNG streams and
 *     retirement schedules must line up cycle for cycle),
 *   - identical channel stats, including the background-energy inputs
 *     (rank active/total ticks, srTicks) and the derived energy,
 *   - a clean offline-checker replay of the event run's log.
 *
 * The matrix mirrors test_checker_fuzz.cc: every registered DRAM spec
 * x {REFab, REFpb, DSARP, HiRA, REFsb}, with the same seed-derived
 * config knobs (density, geometry, core count, self-refresh arming),
 * so any divergence the fuzzer's space can produce is caught here as
 * a first-class diff rather than a downstream checker violation.
 *
 * The remaining registered mechanisms (DARP, SARPpb, Elastic, AR,
 * HiRAsb) run on one spec each, and the open-loop cases replay the
 * repository benchmark's operating points -- Poisson and bursty
 * arrivals with write drains active, where the engine's wakes differ
 * most from the cycle loop's ticks.
 *
 * DSARP_EVENT_SEEDS scales the seeds per (spec, mechanism) pair
 * (default 2; set it before the binary on the command line).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/spec.hh"
#include "sim/checker.hh"
#include "sim/energy.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workload/workload.hh"

using namespace dsarp;

namespace {

const char *const kMechs[] = {"REFab", "REFpb", "DSARP", "HiRA", "REFsb"};

/** Registered mechanisms outside kMechs, with a spec that supports
 *  each. */
const char *const kMoreMechs[][2] = {{"DARP", "DDR3-1333"},
                                     {"SARPpb", "DDR3-1333"},
                                     {"Elastic", "DDR3-1333"},
                                     {"AR", "DDR4-2400"},
                                     {"HiRAsb", "DDR5-4800"}};

/** One open-loop operating point of the repository benchmark. */
struct OpenPoint
{
    const char *mode;
    int rate;     ///< Requests per kilocycle.
    int readPct;
};

/** open-tail's named rate, and open-drain's named rate and a rate
 *  above it, where the write queue drains repeatedly. */
const OpenPoint kOpenPoints[] = {
    {"poisson", 350, 67}, {"bursty", 50, 33}, {"bursty", 100, 33}};

/** Everything an engine run can be observed by. */
struct RunObservation
{
    std::vector<std::vector<TimedCommand>> logs;
    std::vector<ChannelStats> channels;
    std::vector<double> ipc;
    std::vector<double> energyNj;
    std::vector<ControllerStats> controllers;
    Tick end{};
};

/** The seed-to-config derivation shared with the checker fuzzer, so
 *  both suites walk the same configuration space. */
SystemConfig
deriveConfig(const std::string &spec, const std::string &mech,
             std::uint64_t seed, bool self_refresh)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + (self_refresh ? 2 : 1));

    SystemConfig cfg;
    cfg.mem.dramSpec = spec;
    cfg.mem.policy = mech;
    cfg.mem.org.channels = 1;
    cfg.mem.org.subarraysPerBank = rng.chance(0.5) ? 8 : 4;
    const Density densities[] = {Density::k8Gb, Density::k16Gb,
                                 Density::k32Gb};
    cfg.mem.density = densities[rng.below(3)];
    if (mech == "REFsb" && rng.chance(0.5))
        cfg.mem.org.banksPerRank = 32;
    cfg.numCores = 2 + static_cast<int>(rng.below(3));
    if (self_refresh) {
        cfg.mem.srIdleEntryCycles =
            200 + static_cast<int>(rng.below(1200));
        cfg.numCores = 1 + static_cast<int>(rng.below(2));
    }
    cfg.seed = seed;
    cfg.enableChecker = true;
    return cfg;
}

/** A benchmark open-loop point on two channels at 32 Gb. */
SystemConfig
openConfig(const OpenPoint &p, const std::string &spec,
           const std::string &mech, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.mem.dramSpec = spec;
    cfg.mem.policy = mech;
    cfg.mem.density = Density::k32Gb;
    cfg.mem.org.channels = 2;
    cfg.traffic.mode = p.mode;
    cfg.traffic.ratePerKilocycle = p.rate;
    cfg.traffic.readPct = p.readPct;
    cfg.traffic.hotRowPct = 50.0;
    cfg.seed = seed;
    cfg.enableChecker = true;
    return cfg;
}

/** A closed-loop System on a seed-chosen workload, or the open-loop
 *  one cfg.traffic describes. */
std::unique_ptr<System>
makeSystem(const SystemConfig &cfg, std::uint64_t seed)
{
    if (cfg.traffic.enabled())
        return std::make_unique<System>(cfg);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    const auto workloads = makeWorkloads(1, cfg.numCores, seed);
    const Workload &w = workloads[rng.below(workloads.size())];
    return std::make_unique<System>(cfg, w.benchIdx);
}

RunObservation
runOnce(SystemConfig cfg, const std::string &engine, std::uint64_t seed)
{
    cfg.engine = engine;
    const std::unique_ptr<System> owned = makeSystem(cfg, seed);
    System &sys = *owned;
    sys.run(Tick(0) + 8 * sys.timing().tRefiAb);

    const EnergyParams &energy =
        DramSpecRegistry::instance().at(cfg.mem.dramSpec).energy;
    RunObservation obs;
    obs.end = sys.now();
    obs.ipc = sys.coreIpc();
    for (int ch = 0; ch < sys.numChannels(); ++ch) {
        obs.logs.push_back(sys.commandLog(ch));
        const ChannelStats &cs = sys.controller(ch).channel().stats();
        obs.channels.push_back(cs);
        obs.energyNj.push_back(
            channelEnergy(cs, sys.timing(), energy).totalNj());
        obs.controllers.push_back(sys.controller(ch).stats());
    }
    return obs;
}

/** Render one log entry for a first-divergence message. */
std::string
describe(const TimedCommand &tc)
{
    std::ostringstream os;
    os << "t=" << tc.tick << " " << commandName(tc.cmd.type) << " r"
       << tc.cmd.rank << " b" << tc.cmd.bank << " row" << tc.cmd.row
       << " col" << tc.cmd.column << " sa" << tc.cmd.subarray
       << " rfc=" << tc.cmd.tRfcOverride
       << " rows=" << tc.cmd.rowsOverride
       << " hidden=" << tc.cmd.hidden;
    return os.str();
}

bool
sameCommand(const TimedCommand &a, const TimedCommand &b)
{
    return a.tick == b.tick && a.cmd.type == b.cmd.type &&
           a.cmd.rank == b.cmd.rank && a.cmd.bank == b.cmd.bank &&
           a.cmd.row == b.cmd.row && a.cmd.column == b.cmd.column &&
           a.cmd.subarray == b.cmd.subarray &&
           a.cmd.tRfcOverride == b.cmd.tRfcOverride &&
           a.cmd.rowsOverride == b.cmd.rowsOverride &&
           a.cmd.hidden == b.cmd.hidden;
}

void
expectStatsEqual(const ChannelStats &c, const ChannelStats &e,
                 const std::string &ctx)
{
#define DSARP_EQ(field) EXPECT_EQ(c.field, e.field) << ctx << " " #field
    DSARP_EQ(acts);
    DSARP_EQ(reads);
    DSARP_EQ(writes);
    DSARP_EQ(pres);
    DSARP_EQ(refAb);
    DSARP_EQ(refPb);
    DSARP_EQ(refSb);
    DSARP_EQ(refPbHidden);
    DSARP_EQ(refAbCycles);
    DSARP_EQ(refPbCycles);
    DSARP_EQ(refSbCycles);
    DSARP_EQ(rankActiveTicks);
    DSARP_EQ(rankTotalTicks);
    DSARP_EQ(srEnter);
    DSARP_EQ(srExit);
    DSARP_EQ(srTicks);
#undef DSARP_EQ
}

void
expectControllerStatsEqual(const ControllerStats &c,
                           const ControllerStats &e, const std::string &ctx)
{
#define DSARP_EQ(field) EXPECT_EQ(c.field, e.field) << ctx << " " #field
    DSARP_EQ(readsEnqueued);
    DSARP_EQ(writesEnqueued);
    DSARP_EQ(readsCompleted);
    DSARP_EQ(writesIssued);
    DSARP_EQ(readLatencySum);
    DSARP_EQ(forwardedReads);
    DSARP_EQ(writebackModeTicks);
    DSARP_EQ(ticks);
    DSARP_EQ(readQueueOccupancySum);
    DSARP_EQ(writeQueueOccupancySum);
#undef DSARP_EQ
}

/** Run @p cfg on both engines and compare everything observable; the
 *  event run's observation lands in @p evtOut when given. */
void
expectEquivalent(const SystemConfig &cfg, std::uint64_t seed,
                 const std::string &context,
                 RunObservation *evtOut = nullptr)
{
    const RunObservation cyc = runOnce(cfg, "cycle", seed);
    const RunObservation evt = runOnce(cfg, "event", seed);
    if (evtOut)
        *evtOut = evt;

    std::ostringstream ctx;
    ctx << context << " density=" << densityName(cfg.mem.density)
        << " cores=" << cfg.numCores
        << " banks=" << cfg.mem.org.banksPerRank;

    ASSERT_EQ(cyc.end, evt.end) << ctx.str();
    ASSERT_EQ(cyc.logs.size(), evt.logs.size()) << ctx.str();

    for (std::size_t ch = 0; ch < cyc.logs.size(); ++ch) {
        const auto &cl = cyc.logs[ch];
        const auto &el = evt.logs[ch];
        // Find the first divergence instead of dumping both logs.
        const std::size_t n = std::min(cl.size(), el.size());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(sameCommand(cl[i], el[i]))
                << ctx.str() << " channel=" << ch << " index=" << i
                << "\n  cycle: " << describe(cl[i])
                << "\n  event: " << describe(el[i]);
        }
        ASSERT_EQ(cl.size(), el.size())
            << ctx.str() << " channel=" << ch
            << " (logs agree up to the shorter one)";
        EXPECT_GT(el.size(), 0u) << ctx.str();

        expectStatsEqual(cyc.channels[ch], evt.channels[ch],
                         ctx.str() + " channel=" +
                             std::to_string(ch));
        expectControllerStatsEqual(cyc.controllers[ch], evt.controllers[ch],
                                   ctx.str() + " channel=" +
                                       std::to_string(ch));
        // Exact double equality is intentional: both runs must feed
        // the model the same integer counters.
        EXPECT_EQ(cyc.energyNj[ch], evt.energyNj[ch])
            << ctx.str() << " channel=" << ch;
    }

    ASSERT_EQ(cyc.ipc.size(), evt.ipc.size()) << ctx.str();
    for (std::size_t i = 0; i < cyc.ipc.size(); ++i) {
        EXPECT_EQ(cyc.ipc[i], evt.ipc[i])
            << ctx.str() << " core=" << i;
    }
}

void
equivalentOne(const std::string &spec, const std::string &mech,
              std::uint64_t seed, bool self_refresh)
{
    std::ostringstream ctx;
    ctx << "spec=" << spec << " mech=" << mech << " seed=" << seed
        << " sr=" << self_refresh;
    expectEquivalent(deriveConfig(spec, mech, seed, self_refresh), seed,
                     ctx.str());
}

} // namespace

class EventEngineEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EventEngineEquivalence, BitIdenticalToCycleLoop)
{
    const std::string spec = GetParam();
    const bool sameBankSupported =
        DramSpecRegistry::instance().at(spec).banksPerGroup > 0;
    const std::uint64_t seeds = envKnob("DSARP_EVENT_SEEDS", 2);

    for (const char *mech : kMechs) {
        if (std::string(mech) == "REFsb" && !sameBankSupported)
            continue;
        for (std::uint64_t s = 1; s <= seeds; ++s) {
            equivalentOne(spec, mech, s, /*self_refresh=*/false);
            equivalentOne(spec, mech, s, /*self_refresh=*/true);
        }
    }
}

TEST(EventEngineEquivalence, RemainingMechanisms)
{
    const std::uint64_t seeds = envKnob("DSARP_EVENT_SEEDS", 2);
    for (const auto &[mech, spec] : kMoreMechs) {
        for (std::uint64_t s = 1; s <= seeds; ++s) {
            equivalentOne(spec, mech, s, /*self_refresh=*/false);
            equivalentOne(spec, mech, s, /*self_refresh=*/true);
        }
    }
}

TEST(EventEngineEquivalence, OpenLoopBenchmarkPoints)
{
    std::vector<std::pair<std::string, std::string>> runs;
    for (const char *mech : {"REFab", "REFpb", "DSARP"})
        runs.emplace_back(mech, "DDR3-1333");
    for (const auto &[mech, spec] : kMoreMechs)
        runs.emplace_back(mech, spec);
    for (const OpenPoint &p : kOpenPoints) {
        for (const auto &[mech, spec] : runs) {
            std::ostringstream ctx;
            ctx << "open " << p.mode << "@" << p.rate << " reads="
                << p.readPct << "% spec=" << spec << " mech=" << mech;
            RunObservation evt;
            expectEquivalent(openConfig(p, spec, mech, 1), 1, ctx.str(),
                             &evt);
            // The drain must actually run: that is where the pick
            // switches queues and write-refresh parallelization acts.
            std::uint64_t drain_ticks = 0;
            for (const ControllerStats &c : evt.controllers)
                drain_ticks += c.writebackModeTicks;
            EXPECT_GT(drain_ticks, 0u) << ctx.str();
        }
    }
}

TEST(EventEngineEquivalence, WakeCountRatchet)
{
    // The engine's work, deterministic counts: a controller wakes only
    // when some answer of its arbitration can change. The bounds are
    // the counts measured when post-issue and post-enqueue readiness
    // certificates replaced the forced step after every demand command
    // and every enqueue (that engine executed 26352 ticks and 26241
    // picks at the open point, 78563 and 78071 at the closed one);
    // lower them when the engine gets cheaper, never raise them to
    // admit a regression. A tick that issues nothing is a wasted wake,
    // ratcheted the same way.
    struct Point
    {
        const char *name;
        SystemConfig cfg;
        std::uint64_t maxControllerTicks;
        std::uint64_t maxPicks;
        std::uint64_t maxEmptyTicks;
    };
    SystemConfig open = openConfig(kOpenPoints[0], "DDR3-1333", "DSARP", 1);
    open.enableChecker = false;
    SystemConfig closed;
    closed.mem.dramSpec = "DDR3-1333";
    closed.mem.policy = "DSARP";
    closed.mem.density = Density::k32Gb;
    closed.numCores = 8;
    closed.seed = 1;
    const Point points[] = {{"open-tail", open, 14761, 14650, 329},
                            {"closed DSARP", closed, 42416, 41924, 1885}};
    for (const Point &p : points) {
        std::unique_ptr<System> sys;
        if (p.cfg.traffic.enabled())
            sys = std::make_unique<System>(p.cfg);
        else
            sys = std::make_unique<System>(
                p.cfg, makeWorkloads(1, p.cfg.numCores, 1)[0].benchIdx);
        sys->run(p.cfg.traffic.enabled() ? Tick(0) + 8 * sys->timing().tRefiAb
                                         : Tick(100000));
        const System::EngineCounters &n = sys->engineCounters();
        EXPECT_LE(n.controllerTicks, p.maxControllerTicks) << p.name;
        EXPECT_LE(n.picks, p.maxPicks) << p.name;
        EXPECT_LE(n.emptyTicks, p.maxEmptyTicks) << p.name;
        EXPECT_GT(n.picks, 0u) << p.name;
        EXPECT_GT(n.deliveries, 0u) << p.name;
    }
}

TEST(EventEngineEquivalence, CertificateInvalidations)
{
    // One run per change a certificate must see coming, each where it
    // happens often, checked cycle for cycle against the cycle loop
    // together with evidence that the run reached that change.
    struct Case
    {
        const char *what;
        SystemConfig cfg;
    };
    std::vector<Case> cases;

    // Tight watermarks: pops drain the write queue to the low mark
    // right after issuing, and enqueues reach the high mark.
    SystemConfig drain =
        openConfig({"bursty", 100, 33}, "DDR3-1333", "DSARP", 2);
    drain.mem.writeHighWatermark = 12;
    drain.mem.writeLowWatermark = 4;
    cases.push_back({"drain flips at a pop and at an enqueue", drain});

    // Deep read queues with no hot rows: banks open on rows nobody
    // wants, so pops keep moving banks into the conflict window.
    SystemConfig window =
        openConfig({"poisson", 520, 100}, "DDR3-1333", "REFpb", 3);
    window.traffic.hotRowPct = 0.0;
    cases.push_back({"a pop moves a bank into the conflict window", window});

    // Sparse demand with idle entry armed: SRE follows demand once the
    // rank has been idle long enough.
    SystemConfig sleep =
        openConfig({"bursty", 20, 67}, "DDR3-1333", "DSARP", 4);
    sleep.mem.srIdleEntryCycles = 300;
    cases.push_back({"SRE after demand", sleep});

    // SARP at saturation: younger requests activate in banks that are
    // refreshing.
    cases.push_back({"a younger SARP ACT in a refreshing bank",
                     openConfig({"poisson", 480, 67}, "DDR3-1333", "SARPpb",
                                5)});

    // DARP's write-refresh parallelization during drains.
    SystemConfig darp =
        openConfig({"bursty", 100, 33}, "DDR3-1333", "DARP", 6);
    darp.mem.darpWriteRefresh = true;
    cases.push_back({"DARP write-refresh during a drain", darp});

    for (const Case &c : cases) {
        RunObservation evt;
        expectEquivalent(c.cfg, c.cfg.seed, c.what, &evt);
        std::uint64_t drain_ticks = 0, pres = 0, sre = 0, refpb = 0;
        for (const ControllerStats &s : evt.controllers)
            drain_ticks += s.writebackModeTicks;
        for (const ChannelStats &s : evt.channels) {
            pres += s.pres;
            sre += s.srEnter;
            refpb += s.refPb;
        }
        if (c.cfg.traffic.readPct < 100) {
            EXPECT_GT(drain_ticks, 0u) << c.what;
        }
        if (c.cfg.mem.srIdleEntryCycles > 0) {
            EXPECT_GT(sre, 0u) << c.what;
        }
        if (c.cfg.traffic.hotRowPct == 0.0) {
            EXPECT_GT(pres, 0u) << c.what;
        }
        if (c.cfg.mem.policy != "DSARP") {
            EXPECT_GT(refpb, 0u) << c.what;
        }
    }
}

namespace {

std::string
specName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string out = info.param;
    for (char &c : out) {
        if (c == '-')
            c = '_';
    }
    return out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, EventEngineEquivalence,
    ::testing::ValuesIn(DramSpecRegistry::instance().names()), specName);

TEST(EventEngineEquivalence, EventRunPassesOfflineChecker)
{
    // One full checker replay per mechanism on the reference spec:
    // identical logs alone would also hide a shared bug, so the event
    // log is independently validated against the JEDEC constraints.
    for (const char *mech : kMechs) {
        const std::string spec =
            std::string(mech) == "REFsb" ? "DDR5-4800" : "DDR3-1333";
        SystemConfig cfg = deriveConfig(spec, mech, 1, false);
        cfg.engine = "event";
        Rng rng(1 * 0x9e3779b97f4a7c15ULL + 11);
        const auto workloads = makeWorkloads(1, cfg.numCores, 1);
        const Workload &w = workloads[rng.below(workloads.size())];
        System sys(cfg, w.benchIdx);
        sys.run(Tick(0) + 8 * sys.timing().tRefiAb);
        for (int ch = 0; ch < sys.numChannels(); ++ch) {
            const CheckerReport report = verifyCommandLog(
                sys.commandLog(ch), sys.config().mem, sys.timing(),
                sys.now());
            std::ostringstream detail;
            for (std::size_t i = 0;
                 i < report.violations.size() && i < 3; ++i) {
                detail << "\n  " << report.violations[i];
            }
            EXPECT_TRUE(report.ok())
                << "mech=" << mech << " channel=" << ch << detail.str();
            EXPECT_GT(report.commandsChecked, 0u) << "mech=" << mech;
        }
    }
}

TEST(EventEngineEquivalence, UnknownEngineRejected)
{
    SystemConfig cfg;
    cfg.engine = "warp";
    cfg.numCores = 1;
    const std::vector<int> bench = {0};
    EXPECT_DEATH(System(cfg, bench), "sim.engine");
}

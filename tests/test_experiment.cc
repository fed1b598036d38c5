/**
 * @file
 * Tests for the layered ExperimentConfig (key=value overrides from
 * code, files, and the environment, with named-key errors) and the
 * Simulation facade built on top of it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>

#include "sim/config_keys.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

TEST(ExperimentConfig, SetParsesEveryFieldKind)
{
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.trySet("policy", "REFpb"), "");
    EXPECT_EQ(cfg.trySet("densityGb", "16"), "");
    EXPECT_EQ(cfg.trySet("numCores", "4"), "");
    EXPECT_EQ(cfg.trySet("seed", "99"), "");
    EXPECT_EQ(cfg.trySet("darpWriteRefresh", "false"), "");
    EXPECT_EQ(cfg.trySet("enableChecker", "on"), "");

    EXPECT_EQ(cfg.policy, "REFpb");
    EXPECT_EQ(cfg.densityGb, 16);
    EXPECT_EQ(cfg.numCores, 4);
    EXPECT_EQ(cfg.seed, 99u);
    EXPECT_FALSE(cfg.darpWriteRefresh);
    EXPECT_TRUE(cfg.enableChecker);
}

TEST(ExperimentConfig, KeysAreCaseInsensitiveAndTrimmed)
{
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.trySet("NUMCORES", " 2 "), "");
    EXPECT_EQ(cfg.numCores, 2);
}

TEST(ExperimentConfig, UnknownKeyNamesItselfAndListsKnown)
{
    ExperimentConfig cfg;
    const std::string err = cfg.trySet("writeWatermark", "10");
    EXPECT_NE(err.find("unknown config key 'writeWatermark'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("writeHighWatermark"), std::string::npos) << err;
}

TEST(ExperimentConfig, BadValueNamesTheKey)
{
    ExperimentConfig cfg;
    const std::string err = cfg.trySet("numCores", "eight");
    EXPECT_NE(err.find("config key 'numCores'"), std::string::npos) << err;
    EXPECT_NE(err.find("expected an integer"), std::string::npos) << err;
    EXPECT_EQ(cfg.numCores, 8);  // Unchanged on error.

    const std::string bool_err = cfg.trySet("enableChecker", "maybe");
    EXPECT_NE(bool_err.find("config key 'enableChecker'"),
              std::string::npos)
        << bool_err;
}

TEST(ExperimentConfig, ValidateReportsEveryBadKey)
{
    ExperimentConfig cfg;
    cfg.policy = "nonesuch";
    cfg.densityGb = 12;
    cfg.intensityPct = 40;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("config key 'policy'"), std::string::npos) << err;
    EXPECT_NE(err.find("config key 'densityGb'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("config key 'intensityPct'"), std::string::npos)
        << err;
}

TEST(ExperimentConfig, ValidateDelegatesMemChecks)
{
    ExperimentConfig cfg;
    cfg.writeLowWatermark = 60;
    cfg.writeHighWatermark = 50;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("writeLowWatermark"), std::string::npos) << err;

    ExperimentConfig ok;
    EXPECT_EQ(ok.validate(), "");
}

TEST(ExperimentConfig, ConfigFileLayering)
{
    const std::string path =
        ::testing::TempDir() + "/dsarp_experiment_test.cfg";
    {
        std::ofstream out(path);
        out << "# an experiment preset\n"
            << "policy = SARPpb\n"
            << "densityGb=8   # inline comment\n"
            << "\n"
            << "numCores=2\n";
    }
    ExperimentConfig cfg;
    cfg.applyFile(path);
    EXPECT_EQ(cfg.policy, "SARPpb");
    EXPECT_EQ(cfg.densityGb, 8);
    EXPECT_EQ(cfg.numCores, 2);

    // Later layers (env, CLI) override earlier ones.
    cfg.set("densityGb", "32");
    EXPECT_EQ(cfg.densityGb, 32);
    std::remove(path.c_str());
}

TEST(ExperimentConfig, EnvOverridesViaDsarpSet)
{
    setenv("DSARP_SET", "policy=Elastic, numCores=4", 1);
    ExperimentConfig cfg;
    cfg.applyEnv();
    unsetenv("DSARP_SET");
    EXPECT_EQ(cfg.policy, "Elastic");
    EXPECT_EQ(cfg.numCores, 4);
}

TEST(ExperimentConfig, ToSystemConfigProjection)
{
    ExperimentConfig cfg;
    cfg.policy = "dsarp";
    cfg.densityGb = 16;
    cfg.retentionMs = 64;
    cfg.subarraysPerBank = 4;
    cfg.numCores = 2;
    cfg.writeLowWatermark = 16;
    cfg.writeHighWatermark = 40;
    cfg.maxOverlappedRefPb = 2;
    cfg.seed = 7;

    const SystemConfig sys = cfg.toSystemConfig();
    EXPECT_EQ(sys.mem.policy, "dsarp");
    EXPECT_EQ(sys.mem.density, Density::k16Gb);
    EXPECT_EQ(sys.mem.retentionMs, 64);
    EXPECT_EQ(sys.mem.org.subarraysPerBank, 4);
    EXPECT_EQ(sys.mem.writeLowWatermark, 16);
    EXPECT_EQ(sys.mem.writeHighWatermark, 40);
    EXPECT_EQ(sys.mem.maxOverlappedRefPb, 2);
    EXPECT_EQ(sys.numCores, 2);
    EXPECT_EQ(sys.seed, 7u);

    // The defaults are defaultSystem()'s: the MemConfig defaults, read
    // from it, except for the paper's headline point (DSARP, 32 Gb)...
    const ExperimentConfig defaults;
    EXPECT_EQ(defaults.policy, "DSARP");
    EXPECT_EQ(defaults.densityGb, 32);
    EXPECT_EQ(defaults.writeLowWatermark, 32);
    EXPECT_EQ(defaults.writeHighWatermark, 54);
    EXPECT_EQ(defaults.refabStaggerDivisor, 8);
    EXPECT_EQ(defaults.maxOverlappedRefPb, 1);
    const SystemConfig projected = defaults.toSystemConfig();
    EXPECT_EQ(projected.mem.writeLowWatermark, 32);
    EXPECT_EQ(projected.mem.writeHighWatermark, 54);
    EXPECT_EQ(projected.mem.maxOverlappedRefPb, 1);

    // ...an explicit 0 is an override like any other value...
    ExperimentConfig zero;
    zero.writeLowWatermark = 0;
    EXPECT_EQ(zero.validate(), "");
    EXPECT_EQ(zero.toSystemConfig().mem.writeLowWatermark, 0);

    // ...and a negative value, -1 included, is a named error, never a
    // fallback to the default.
    for (const int bad : {-1, -5}) {
        ExperimentConfig negative;
        negative.writeHighWatermark = bad;
        const std::string err = negative.validate();
        EXPECT_NE(err.find("'writeHighWatermark'"), std::string::npos)
            << err;
    }
}

namespace {

/** Where one key's value must land: a probe over the config it was set
 *  on and that config's projection. */
using KeyProbe =
    std::function<bool(const ExperimentConfig &, const SystemConfig &)>;

/** A valid non-default value per key, and the probe that finds it. */
struct KeyRow
{
    const char *value;
    KeyProbe reached;
};

/** One row per key in keys::kAllKeys. A new key without a row here
 *  fails EveryKeyReachesTheSystem. */
const std::map<std::string, KeyRow> &
keyRows()
{
    using E = ExperimentConfig;
    using S = SystemConfig;
    static const std::map<std::string, KeyRow> rows = {
        {keys::kPolicy, {"SARPpb", [](const E &, const S &s) {
             return s.mem.policy == "SARPpb"; }}},
        {keys::kDramSpec, {"DDR4-2400", [](const E &, const S &s) {
             return s.mem.dramSpec == "DDR4-2400"; }}},
        {keys::kDensityGb, {"16", [](const E &, const S &s) {
             return s.mem.density == Density::k16Gb; }}},
        {keys::kRetentionMs, {"64", [](const E &, const S &s) {
             return s.mem.retentionMs == 64; }}},
        {keys::kSubarraysPerBank, {"16", [](const E &, const S &s) {
             return s.mem.org.subarraysPerBank == 16; }}},
        {keys::kChannels, {"4", [](const E &, const S &s) {
             return s.mem.org.channels == 4; }}},
        {keys::kAddressMap, {"row-ch", [](const E &, const S &s) {
             return s.mem.addressMap == "row-ch"; }}},
        {keys::kChannelStagger, {"-1", [](const E &, const S &s) {
             return s.mem.channelStaggerCycles == -1; }}},
        {keys::kRanksPerChannel, {"4", [](const E &, const S &s) {
             return s.mem.org.ranksPerChannel == 4; }}},
        {keys::kBanksPerRank, {"16", [](const E &, const S &s) {
             return s.mem.org.banksPerRank == 16; }}},
        {keys::kReadQueueSize, {"32", [](const E &, const S &s) {
             return s.mem.readQueueSize == 32; }}},
        {keys::kWriteQueueSize, {"48", [](const E &, const S &s) {
             return s.mem.writeQueueSize == 48; }}},
        {keys::kWriteHighWatermark, {"40", [](const E &, const S &s) {
             return s.mem.writeHighWatermark == 40; }}},
        {keys::kWriteLowWatermark, {"16", [](const E &, const S &s) {
             return s.mem.writeLowWatermark == 16; }}},
        {keys::kRefabStaggerDivisor, {"2", [](const E &, const S &s) {
             return s.mem.refabStaggerDivisor == 2; }}},
        {keys::kMaxOverlappedRefPb, {"3", [](const E &, const S &s) {
             return s.mem.maxOverlappedRefPb == 3; }}},
        {keys::kTFawOverride, {"20", [](const E &, const S &s) {
             return s.mem.tFawOverride == 20; }}},
        {keys::kTRrdOverride, {"4", [](const E &, const S &s) {
             return s.mem.tRrdOverride == 4; }}},
        {keys::kDarpWriteRefresh, {"false", [](const E &, const S &s) {
             return !s.mem.darpWriteRefresh; }}},
        {keys::kHiraCoverage, {"0.5", [](const E &, const S &s) {
             return s.mem.hiraCoverage == 0.5; }}},
        {keys::kHiraDelay, {"7", [](const E &, const S &s) {
             return s.mem.hiraDelayCycles == 7; }}},
        {keys::kSameBankGroupSize, {"2", [](const E &, const S &s) {
             return s.mem.sameBankGroupSize == 2; }}},
        {keys::kSameBankPullIn, {"false", [](const E &, const S &s) {
             return !s.mem.sameBankPullIn; }}},
        {keys::kSrIdleEntry, {"300", [](const E &, const S &s) {
             return s.mem.srIdleEntryCycles == 300; }}},
        {keys::kFgrRate, {"2", [](const E &, const S &s) {
             return s.mem.fgrRate == 2; }}},
        {keys::kNumCores, {"2", [](const E &, const S &s) {
             return s.numCores == 2; }}},
        {keys::kSeed, {"9", [](const E &, const S &s) {
             return s.seed == 9; }}},
        {keys::kEnableChecker, {"true", [](const E &, const S &s) {
             return s.enableChecker; }}},
        // Run lengths and the workload mix are Simulation's, not the
        // SystemConfig's: they stay on the ExperimentConfig.
        {keys::kWarmupCycles, {"123", [](const E &e, const S &) {
             return e.warmupCycles == 123; }}},
        {keys::kMeasureCycles, {"456", [](const E &e, const S &) {
             return e.measureCycles == 456; }}},
        {keys::kWorkloadSeed, {"5", [](const E &e, const S &) {
             return e.workloadSeed == 5; }}},
        {keys::kIntensityPct, {"50", [](const E &e, const S &) {
             return e.intensityPct == 50; }}},
        {keys::kSimEngine, {"cycle", [](const E &, const S &s) {
             return s.engine == "cycle"; }}},
        {keys::kTrafficMode, {"poisson", [](const E &, const S &s) {
             return s.traffic.mode == "poisson"; }}},
        {keys::kTrafficRate, {"75", [](const E &, const S &s) {
             return s.traffic.ratePerKilocycle == 75.0; }}},
        {keys::kTrafficReadPct, {"50", [](const E &, const S &s) {
             return s.traffic.readPct == 50; }}},
        {keys::kTrafficHotRowPct, {"25", [](const E &, const S &s) {
             return s.traffic.hotRowPct == 25.0; }}},
        {keys::kTrafficHotRows, {"4", [](const E &, const S &s) {
             return s.traffic.hotRows == 4; }}},
        {keys::kTrafficBurstFactor, {"4", [](const E &, const S &s) {
             return s.traffic.burstFactor == 4.0; }}},
        {keys::kTrafficBurstLen, {"50", [](const E &, const S &s) {
             return s.traffic.burstLenCycles == 50; }}},
        {keys::kTrafficDiurnalPeriod, {"5000", [](const E &, const S &s) {
             return s.traffic.diurnalPeriod == 5000; }}},
        {keys::kTrafficDiurnalAmp, {"0.5", [](const E &, const S &s) {
             return s.traffic.diurnalAmp == 0.5; }}},
        {keys::kTrafficTrace, {"replay.trace", [](const E &, const S &s) {
             return s.traffic.tracePath == "replay.trace"; }}},
        {keys::kTenantCount, {"2", [](const E &, const S &s) {
             return s.traffic.tenants == 2; }}},
        {keys::kTenantPriorities, {"2,1", [](const E &, const S &s) {
             return s.traffic.tenantPriorities == "2,1"; }}},
    };
    return rows;
}

} // namespace

TEST(ExperimentConfig, EveryKeyReachesTheSystem)
{
    const ExperimentConfig defaults;
    const SystemConfig default_sys = defaults.toSystemConfig();
    for (const char *key : keys::kAllKeys) {
        const auto row = keyRows().find(key);
        ASSERT_NE(row, keyRows().end())
            << "config key '" << key << "' has no row in keyRows()";
        // The probe must tell the value apart from the default, or a
        // key that never reaches the system would pass.
        EXPECT_FALSE(row->second.reached(defaults, default_sys)) << key;

        ExperimentConfig cfg;
        ASSERT_EQ(cfg.trySet(key, row->second.value), "") << key;
        EXPECT_TRUE(row->second.reached(cfg, cfg.toSystemConfig()))
            << "config key '" << key << "' set to '" << row->second.value
            << "' does not reach toSystemConfig()";
    }
    // No stale rows, and kAllKeys is the key table.
    EXPECT_EQ(keyRows().size(), std::size(keys::kAllKeys));
    EXPECT_EQ(ExperimentConfig::knownKeys().size(),
              std::size(keys::kAllKeys));
}

namespace {

/** A directly built alone run: @p bench on one core with refresh and
 *  self-refresh off, the baseline Runner::aloneIpc() describes. */
double
directAloneIpc(SystemConfig sys, int bench, Tick warmup, Tick measure)
{
    sys.mem.policy = "NoREF";
    sys.mem.srIdleEntryCycles = 0;
    sys.numCores = 1;
    sys.enableChecker = false;
    System system(sys, std::vector<int>{bench});
    system.run(warmup);
    system.resetStats();
    system.run(measure);
    return system.coreIpc()[0];
}

} // namespace

TEST(Runner, AloneIpcCacheKeySeesEveryKeyTheAloneRunReads)
{
    // Runner::aloneIpc() memoizes baselines under a key it builds by
    // hand. A field the alone run reads but the key misses would serve
    // the cached baseline of another config, with no error: for every
    // key whose value changes a directly built alone run, the lookup
    // must return the changed IPC once the default's is cached.
    constexpr Tick kWarmup = 1000;
    constexpr Tick kMeasure = 5000;
    const int bench = benchmarkIndex("mcf-like");
    Runner runner(kWarmup, kMeasure);
    const SystemConfig defaults = ExperimentConfig{}.toSystemConfig();
    const double base = directAloneIpc(defaults, bench, kWarmup, kMeasure);
    ASSERT_EQ(runner.aloneIpc(bench, defaults), base);
    int changing = 0;
    for (const auto &[key, row] : keyRows()) {
        // The seed changes the alone run but is left out of the key on
        // purpose: the baseline counts as the benchmark's (see
        // Runner::aloneIpc()).
        if (key == keys::kSeed)
            continue;
        ExperimentConfig cfg;
        ASSERT_EQ(cfg.trySet(key, row.value), "") << key;
        // A value valid only beside other keys (a same-bank group size
        // needs a DDR5 spec) builds no system, and an open-loop run has
        // no alone baseline.
        const SystemConfig sys = cfg.toSystemConfig();
        if (!cfg.validate().empty() || sys.traffic.enabled())
            continue;
        const double ipc = directAloneIpc(sys, bench, kWarmup, kMeasure);
        if (ipc == base)
            continue;
        ++changing;
        EXPECT_EQ(runner.aloneIpc(bench, sys), ipc)
            << "config key '" << key << "' changes the alone run but "
            << "not Runner::aloneIpc()'s cache key";
    }
    // At these run lengths the spec, the channel, rank and bank counts
    // and both write watermarks change the alone run; fewer would mean
    // the run is too short to tell the keys apart.
    EXPECT_GE(changing, 6);
}

TEST(ExperimentConfig, MechanismNameCanonicalises)
{
    ExperimentConfig cfg;
    cfg.policy = "sarp_ab";
    EXPECT_EQ(cfg.mechanismName(), "SARPab");
}

TEST(Simulation, BuilderRunsTheFullPipeline)
{
    RunResult res = Simulation::builder()
                        .config({.policy = "REFab",
                                 .densityGb = 8,
                                 .numCores = 2,
                                 .warmupCycles = 2000,
                                 .measureCycles = 15000,
                                 .intensityPct = 100})
                        .build()
                        .run();
    ASSERT_EQ(res.ipc.size(), 2u);
    EXPECT_GT(res.ipc[0], 0.0);
    EXPECT_GT(res.ws, 0.0);
    EXPECT_GT(res.readsCompleted, 0u);
    EXPECT_GT(res.refAb, 0u);
    EXPECT_GT(res.energyPerAccessNj, 0.0);
}

TEST(Simulation, KeyValueOverridesReachTheSystem)
{
    Simulation sim = Simulation::builder()
                         .apply("policy=REFpb")
                         .set("numCores", "2")
                         .set("densityGb", "8")
                         .set("warmupCycles", "1000")
                         .set("measureCycles", "10000")
                         .build();
    EXPECT_EQ(sim.mechanismName(), "REFpb");
    EXPECT_EQ(sim.workload().benchIdx.size(), 2u);
    const RunResult res = sim.run();
    EXPECT_GT(res.refPb, 0u);  // Per-bank commands prove the override.
    EXPECT_EQ(res.refAb, 0u);
}

TEST(SimulationDeath, InvalidConfigNamesTheKey)
{
    EXPECT_EXIT(Simulation::builder()
                    .config({.policy = "REFab", .numCores = -3})
                    .build(),
                testing::ExitedWithCode(1), "numCores");
    EXPECT_EXIT(Simulation::builder().set("policy", "what").build(),
                testing::ExitedWithCode(1),
                "unknown refresh policy 'what'");
}

/**
 * @file
 * Every ExperimentConfig key, declared once.
 *
 * DSARP_CONFIG_KEYS is the only list of keys. Each row gives the
 * keys::k* constant, the key string, its value type (a dsarp::keytype
 * tag, sim/experiment.hh), the ExperimentConfig field, where
 * toSystemConfig() puts it, and the doc line --list-keys prints.
 * Expanding the list generates the constants below, the
 * ExperimentConfig fields, the trySet() parsers, knownKeys(),
 * keyListing() and toSystemConfig(). A row comes in one of three
 * kinds:
 *
 *   SYS(constant, key, Type, field, systemPath, doc)
 *       A flat ExperimentConfig field, projected to
 *       SystemConfig::systemPath. Its default is that path's value in
 *       defaultSystem().
 *   TRAFFIC(constant, key, Type, member, doc)
 *       ExperimentConfig::traffic.member, a TrafficConfig member with
 *       TrafficConfig's default, projected to SystemConfig::traffic.
 *   RUN(constant, key, Type, field, default, doc)
 *       A setting of the Simulation itself (run lengths, workload
 *       mix), never projected.
 *
 * Key strings are user-facing API: a typo in a validator or an error
 * message silently forks the vocabulary. All code that names a key
 * must use the keys::k* constants; tools/lint/lint.py rejects a bare
 * string literal that respells a key anywhere else under src/, and a
 * key declared twice here. Keys match case-insensitively, so they
 * must differ in more than case.
 */

#ifndef DSARP_SIM_CONFIG_KEYS_HH
#define DSARP_SIM_CONFIG_KEYS_HH

// clang-format off
#define DSARP_CONFIG_KEYS(SYS, TRAFFIC, RUN)                                  \
    SYS(kPolicy, "policy", Name, policy, mem.policy,                          \
        "a refresh mechanism name (case-insensitive; see --list-mechs)")      \
    SYS(kDramSpec, "dram.spec", Name, dramSpec, mem.dramSpec,                 \
        "a DRAM spec name (case-insensitive; see --list-specs)")              \
    SYS(kAddressMap, "address.map", Name, addressMap, mem.addressMap,         \
        "an address map name (case-insensitive; see --list-maps)")            \
    SYS(kDensityGb, "densityGb", Gb, densityGb, mem.density,                  \
        "DRAM chip density in Gb: 8, 16 or 32")                               \
    SYS(kRetentionMs, "retentionMs", Int, retentionMs, mem.retentionMs,       \
        "retention time in ms: 32 or 64")                                     \
    SYS(kSubarraysPerBank, "subarraysPerBank", Int, subarraysPerBank,         \
        mem.org.subarraysPerBank,                                             \
        "subarray groups per bank, a power of two")                           \
    SYS(kChannels, "channels", Int, channels, mem.org.channels,               \
        "memory channels (DIMMs; a sub-channel map multiplies them)")         \
    SYS(kRanksPerChannel, "ranksPerChannel", Int, ranksPerChannel,            \
        mem.org.ranksPerChannel, "ranks per channel")                         \
    SYS(kBanksPerRank, "banksPerRank", Int, banksPerRank,                     \
        mem.org.banksPerRank, "banks per rank")                               \
    SYS(kReadQueueSize, "readQueueSize", Int, readQueueSize,                  \
        mem.readQueueSize, "read-queue entries per channel")                  \
    SYS(kWriteQueueSize, "writeQueueSize", Int, writeQueueSize,               \
        mem.writeQueueSize, "write-queue entries per channel")                \
    SYS(kWriteHighWatermark, "writeHighWatermark", Int, writeHighWatermark,   \
        mem.writeHighWatermark,                                               \
        "write-queue occupancy that starts a write drain")                    \
    SYS(kWriteLowWatermark, "writeLowWatermark", Int, writeLowWatermark,      \
        mem.writeLowWatermark,                                                \
        "write-queue occupancy that ends a write drain")                      \
    SYS(kRefabStaggerDivisor, "refabStaggerDivisor", Int,                     \
        refabStaggerDivisor, mem.refabStaggerDivisor,                         \
        "REFab rank phase: rank r shifts by tREFIab / (divisor x ranks)")     \
    SYS(kMaxOverlappedRefPb, "maxOverlappedRefPb", Int, maxOverlappedRefPb,   \
        mem.maxOverlappedRefPb,                                               \
        "concurrent REFpb per rank; 1 = the LPDDR standard")                  \
    SYS(kTFawOverride, "tFawOverride", Int, tFawOverride, mem.tFawOverride,   \
        "tFAW in DRAM cycles; 0 = the datasheet value")                       \
    SYS(kTRrdOverride, "tRrdOverride", Int, tRrdOverride, mem.tRrdOverride,   \
        "tRRD in DRAM cycles; 0 = the datasheet value")                       \
    SYS(kDarpWriteRefresh, "darpWriteRefresh", Bool, darpWriteRefresh,        \
        mem.darpWriteRefresh,                                                 \
        "DARP's write-refresh parallelization; off isolates the "             \
        "out-of-order REFpb component")                                       \
    SYS(kHiraCoverage, "refresh.hiraCoverage", Real, hiraCoverage,            \
        mem.hiraCoverage,                                                     \
        "fraction of activations a HiRA refresh can hide beneath, in "        \
        "[0, 1]; -1 = the spec's")                                            \
    SYS(kHiraDelay, "refresh.hiraDelay", Int, hiraDelay,                      \
        mem.hiraDelayCycles,                                                  \
        "demand-ACT to hidden-refresh delay in cycles; 0 = the spec's "       \
        "tHiRA")                                                              \
    SYS(kSameBankGroupSize, "refresh.samebank.groupSize", Int,                \
        sameBankGroupSize, mem.sameBankGroupSize,                             \
        "banks per REFsb slice, dividing banksPerRank; 0 = the spec's "       \
        "bank group")                                                         \
    SYS(kSameBankPullIn, "refresh.samebank.pullIn", Bool, sameBankPullIn,     \
        mem.sameBankPullIn, "pull REFsb slices in while the channel idles")   \
    SYS(kSrIdleEntry, "refresh.selfRefresh.idleEntry", Int, srIdleEntry,      \
        mem.srIdleEntryCycles,                                                \
        "demand-idle cycles before a rank enters self-refresh (SRE); "        \
        "0 = off")                                                            \
    SYS(kFgrRate, "refresh.fgrRate", Int, fgrRate, mem.fgrRate,               \
        "fine-granularity refresh rate for any mechanism: 1, 2 or 4; "        \
        "0 = the profile's")                                                  \
    SYS(kChannelStagger, "refresh.channelStagger", Int, channelStagger,       \
        mem.channelStaggerCycles,                                             \
        "cross-channel refresh phase in cycles; 0 = off, -1 = tREFIab / "     \
        "channels")                                                           \
    SYS(kNumCores, "numCores", Int, numCores, numCores,                       \
        "closed-loop cores, one benchmark each")                              \
    SYS(kSeed, "seed", U64, seed, seed, "simulator RNG seed")                 \
    SYS(kEnableChecker, "enableChecker", Bool, enableChecker, enableChecker,  \
        "attach the timing-invariant checker")                                \
    SYS(kSimEngine, "sim.engine", Name, engine, engine,                       \
        "a simulation engine name: event (skips to the next deadline) or "    \
        "cycle (the reference loop)")                                         \
    TRAFFIC(kTrafficMode, "traffic.mode", Lower, mode,                        \
        "an arrival-process name (off/poisson/bursty/diurnal/trace)")         \
    TRAFFIC(kTrafficRate, "traffic.rate", Real, ratePerKilocycle,             \
        "mean arrivals per 1000 DRAM cycles, split across tenants")           \
    TRAFFIC(kTrafficReadPct, "traffic.readPct", Int, readPct,                 \
        "read share of generated requests, percent")                          \
    TRAFFIC(kTrafficHotRowPct, "traffic.hotRowPct", Real, hotRowPct,          \
        "percent of requests aimed at the tenant's hot rows")                 \
    TRAFFIC(kTrafficHotRows, "traffic.hotRows", Int, hotRows,                 \
        "hot-set size in rows per tenant")                                    \
    TRAFFIC(kTrafficBurstFactor, "traffic.burstFactor", Real, burstFactor,    \
        "bursty mode: ON-state rate multiplier")                              \
    TRAFFIC(kTrafficBurstLen, "traffic.burstLen", Int, burstLenCycles,        \
        "bursty mode: mean ON-burst length in cycles")                        \
    TRAFFIC(kTrafficDiurnalPeriod, "traffic.diurnalPeriod", Int,              \
        diurnalPeriod, "diurnal mode: modulation period in cycles")           \
    TRAFFIC(kTrafficDiurnalAmp, "traffic.diurnalAmp", Real, diurnalAmp,       \
        "diurnal mode: modulation amplitude in [0, 1]")                       \
    TRAFFIC(kTrafficTrace, "traffic.trace", Name, tracePath,                  \
        "a DRAMSim-style trace file path, replayed in trace mode")            \
    TRAFFIC(kTenantCount, "tenant.count", Int, tenants,                       \
        "tenants, each owning a disjoint slice of the address space")         \
    TRAFFIC(kTenantPriorities, "tenant.priorities", Text, tenantPriorities,   \
        "per-tenant injection priorities, comma-separated, highest "          \
        "served first; empty = all equal")                                    \
    RUN(kWarmupCycles, "warmupCycles", U64, warmupCycles, 0,                  \
        "warmup DRAM cycles; 0 = DSARP_BENCH_WARMUP, else 30000")             \
    RUN(kMeasureCycles, "measureCycles", U64, measureCycles, 0,               \
        "measured DRAM cycles; 0 = DSARP_BENCH_CYCLES, else 250000")          \
    RUN(kWorkloadSeed, "workloadSeed", U64, workloadSeed, 1,                  \
        "seed of the generated workload mix")                                 \
    RUN(kIntensityPct, "intensityPct", Int, intensityPct, 100,                \
        "memory-intensive share of the mix, percent: 0/25/50/75/100")
// clang-format on

/** Expands a row kind to nothing, for expansions that skip it. */
#define DSARP_KEY_SKIP(...)

namespace dsarp::keys {

#define DSARP_KEY_CONSTANT(constant, key, ...) \
    inline constexpr char constant[] = key;
DSARP_CONFIG_KEYS(DSARP_KEY_CONSTANT, DSARP_KEY_CONSTANT, DSARP_KEY_CONSTANT)
#undef DSARP_KEY_CONSTANT

/** Every key, in list order (tests, exhaustiveness checks). */
#define DSARP_KEY_ENTRY(constant, ...) constant,
inline constexpr const char *const kAllKeys[] = {
    DSARP_CONFIG_KEYS(DSARP_KEY_ENTRY, DSARP_KEY_ENTRY, DSARP_KEY_ENTRY)};
#undef DSARP_KEY_ENTRY

} // namespace dsarp::keys

#endif // DSARP_SIM_CONFIG_KEYS_HH

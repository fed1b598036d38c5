/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot paths:
 * address decode, FR-FCFS picks, and whole-system tick throughput per
 * refresh mechanism. These guard the simulation speed that the
 * experiment harnesses depend on.
 */

#include <benchmark/benchmark.h>

#include "controller/scheduler.hh"
#include "dram/address.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

void
BM_AddressDecode(benchmark::State &state)
{
    MemOrg org;
    AddressMap map(org);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.decode(addr));
        addr = (addr + 8191 * 64) % map.capacityBytes();
    }
}
BENCHMARK(BM_AddressDecode);

void
BM_AddressRoundTrip(benchmark::State &state)
{
    MemOrg org;
    AddressMap map(org);
    Addr addr = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.encode(map.decode(addr)));
        addr = (addr + 12345 * 64) % map.capacityBytes();
    }
}
BENCHMARK(BM_AddressRoundTrip);

/**
 * One FR-FCFS pick that finds nothing to issue, the common case under
 * load, with state.range(0) queued requests spread over all 16 banks
 * of two ranks. Four banks per rank were just activated (so tFAW
 * blocks every further ACT) and hold rows no request wants, so the
 * pick walks row-hit candidates, ACT candidates and conflict
 * precharges (still short of tRAS) and returns nothing. The state is
 * frozen at one tick, so every iteration repeats the same pick. The
 * three depths show how its cost grows with the queue: the pick walks
 * every request of an open bank to rule out a row hit.
 */
void
BM_FrFcfsPickNothingIssuable(benchmark::State &state)
{
    MemConfig cfg;
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    Channel channel(&cfg, &timing);
    const int ranks = cfg.org.ranksPerChannel;
    const int banks = cfg.org.banksPerRank;

    // Open banks 0-3 of each rank on row 1, as fast as tRRD allows.
    Tick now = 0;
    int opened[2] = {0, 0};
    while (opened[0] < 4 || opened[1] < 4) {
        for (RankId r = 0; r < ranks; ++r) {
            Command act;
            act.type = CommandType::kAct;
            act.rank = r;
            act.bank = opened[r];
            act.row = 1;
            if (opened[r] < 4 && channel.canIssue(act, now)) {
                channel.issue(act, now);
                ++opened[r];
                break;  // One command per tick.
            }
        }
        ++now;
    }

    RequestQueue queue(64, ranks, banks);
    const int depth = static_cast<int>(state.range(0));
    for (int i = 0; i < depth; ++i) {
        Request req;
        req.id = i;
        req.loc.rank = i % ranks;
        req.loc.bank = (i / ranks) % banks;
        req.loc.row = 100 + i;
        queue.push(req);
    }
    const std::vector<std::uint8_t> no_bank(ranks * banks, 0);
    const std::vector<std::uint8_t> no_rank(ranks, 0);
    CandidateCache cache(ranks * banks);
    if (FrFcfs::pick(queue, channel, now, no_bank, no_rank, banks, cache)
            .valid) {
        state.SkipWithError("set-up left a command issuable");
        return;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            FrFcfs::pick(queue, channel, now, no_bank, no_rank, banks,
                         cache));
    }
}
BENCHMARK(BM_FrFcfsPickNothingIssuable)->Arg(8)->Arg(32)->Arg(64);

void
SystemTicks(benchmark::State &state, const char *policy)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.mem.density = Density::k32Gb;
    cfg.mem.policy = policy;
    std::vector<int> mix;
    for (int c = 0; c < 8; ++c)
        mix.push_back(intensiveBenchmarks()[c % 11]);
    System sys(cfg, mix);
    sys.run(5000);  // Warm the queues.
    for (auto _ : state)
        sys.run(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}

void
BM_SystemTicks_NoRef(benchmark::State &state)
{
    SystemTicks(state, "NoREF");
}
BENCHMARK(BM_SystemTicks_NoRef);

void
BM_SystemTicks_RefAb(benchmark::State &state)
{
    SystemTicks(state, "REFab");
}
BENCHMARK(BM_SystemTicks_RefAb);

void
BM_SystemTicks_RefPb(benchmark::State &state)
{
    SystemTicks(state, "REFpb");
}
BENCHMARK(BM_SystemTicks_RefPb);

void
BM_SystemTicks_Dsarp(benchmark::State &state)
{
    SystemTicks(state, "DSARP");
}
BENCHMARK(BM_SystemTicks_Dsarp);

} // namespace

BENCHMARK_MAIN();

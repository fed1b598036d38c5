/**
 * @file
 * Wall-clock benchmark of the simulation engines over the fig13
 * all-mechanisms x all-specs grid, written to BENCH_sweep.json.
 *
 * Three timed passes over the same grid: the reference configuration
 * (cycle engine, one thread), the event engine on one thread, and the
 * event engine sharded across --jobs worker threads. The alone-IPC
 * cache is prewarmed before any pass so the baselines' simulation cost
 * is charged to none of them. Exits non-zero when the passes' results
 * differ or event x1 is less than kMinSpeedup times as fast as
 * cycle x1 in process CPU time, which is the CI perf-smoke gate (wall
 * time is reported beside it: on a shared host it moves with the
 * neighbours' load, CPU time much less).
 *
 * Flags: --grid fig13|smoke, --jobs N, --out FILE (plus the usual
 * DSARP_BENCH_* scale knobs).
 */

#include <chrono>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

namespace {

/**
 * Gate floor on the event x1 / cycle x1 speedup in process CPU time,
 * chosen from 12 smoke-grid runs at the CI scale knobs (50000 + 5000
 * cycles, one workload per category, --jobs 2) on a shared 4-thread
 * host: median 2.24, quartiles 2.16 / 2.52, lowest 1.76 (a run beside
 * a compile job; the lowest otherwise 2.08). CPU time spreads about as
 * wide as wall time on such a host, so the floor sits under the lowest
 * run.
 */
constexpr double kMinSpeedup = 1.70;

/** One (spec, mechanism, density) cell of the timed grid. */
struct GridPoint
{
    std::string spec;
    std::string mech;
    Density density;
};

/** One timed pass over the whole grid. */
struct PassResult
{
    std::string engine;
    int jobs = 0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;  ///< Process CPU time of the pass.
    double simCyclesPerSec = 0.0;
    std::vector<double> pointSeconds;
    double wsSum = 0.0;  ///< Fingerprint: identical across passes.
};

/** Process CPU time, all threads, in seconds. */
double
cpuSecondsNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Time one full pass over the grid. Each grid point shards its
 * workload list through SweepRunner, exactly like bench sweep() with
 * --jobs; per-point wall seconds land in PassResult::pointSeconds.
 */
PassResult
runPass(Runner &runner, const std::vector<GridPoint> &grid,
        const std::vector<Workload> &workloads, const char *engine,
        int jobs)
{
    PassResult pass;
    pass.engine = engine;
    pass.jobs = jobs;
    SweepRunner sharded(runner, jobs);
    const double c0 = cpuSecondsNow();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const GridPoint &gp = grid[i];
        std::fprintf(stderr, "  [%s %d] %s %s %s (%zu/%zu)%10s\r", engine,
                     jobs, gp.spec.c_str(), gp.mech.c_str(),
                     densityName(gp.density), i + 1, grid.size(), "");
        ExperimentConfig cfg = mechNamed(gp.mech, gp.density, gp.spec);
        cfg.engine = engine;
        const SystemConfig sys = cfg.toSystemConfig();
        const auto p0 = std::chrono::steady_clock::now();
        const auto results = sharded.run(sys, workloads);
        pass.pointSeconds.push_back(secondsSince(p0));
        for (const RunResult &r : results)
            pass.wsSum += r.ws;
    }
    pass.wallSeconds = secondsSince(t0);
    pass.cpuSeconds = cpuSecondsNow() - c0;
    std::fprintf(stderr, "%70s\r", "");
    const double simCycles =
        static_cast<double>(runner.warmupTicks() + runner.measureTicks()) *
        static_cast<double>(grid.size()) *
        static_cast<double>(workloads.size());
    pass.simCyclesPerSec =
        pass.wallSeconds > 0.0 ? simCycles / pass.wallSeconds : 0.0;
    return pass;
}

void
writeJsonPass(std::FILE *f, const PassResult &p, bool last)
{
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"jobs\": %d, "
                 "\"wall_seconds\": %.6f, \"cpu_seconds\": %.6f, "
                 "\"sim_cycles_per_sec\": %.1f, "
                 "\"ws_sum\": %.9f,\n     \"point_seconds\": [",
                 p.engine.c_str(), p.jobs, p.wallSeconds, p.cpuSeconds,
                 p.simCyclesPerSec, p.wsSum);
    for (std::size_t i = 0; i < p.pointSeconds.size(); ++i)
        std::fprintf(f, "%s%.6f", i ? ", " : "", p.pointSeconds[i]);
    std::fprintf(f, "]}%s\n", last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    banner("perf_sweep",
           "engine wall-clock over the fig13 mechanisms x specs grid");

    applyJobsFromArgs(argc, argv);
    // The sharded pass: --jobs N when given, else the acceptance
    // default of 4 workers.
    const int jobs = sweepJobs() > 1 ? sweepJobs() : 4;

    std::string grid_name = "fig13";
    std::string out_path = "BENCH_sweep.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--grid") == 0)
            grid_name = argv[i + 1];
        else if (std::strcmp(argv[i], "--out") == 0)
            out_path = argv[i + 1];
    }
    if (grid_name != "fig13" && grid_name != "smoke")
        DSARP_FATALF("--grid: '%s' is not \"fig13\" or \"smoke\"",
                     grid_name.c_str());

    // The grid. fig13: every registered spec x the fig13 mechanism
    // list (REFsb only where the spec supports it) x every density.
    // smoke: the two golden-baseline specs x three mechanisms x 8Gb,
    // small enough for a CI gate.
    std::vector<GridPoint> grid;
    const std::vector<const char *> fig13_mechs = {
        "REFab",  "REFpb", "Elastic", "DARP", "SARPab",
        "SARPpb", "DSARP", "HiRA",    "NoREF"};
    if (grid_name == "fig13") {
        for (const std::string &spec :
             DramSpecRegistry::instance().names()) {
            std::vector<std::string> mechs(fig13_mechs.begin(),
                                           fig13_mechs.end());
            if (specSupportsSameBank(spec))
                mechs.insert(mechs.begin() + 2, "REFsb");
            for (const std::string &mech : mechs)
                for (Density d : densities())
                    grid.push_back({spec, mech, d});
        }
    } else {
        for (const char *spec : {"DDR3-1333", "DDR5-4800"}) {
            std::vector<std::string> mechs = {"REFab", "DSARP", "NoREF"};
            if (specSupportsSameBank(spec))
                mechs.push_back("REFsb");
            for (const std::string &mech : mechs)
                grid.push_back({spec, mech, Density::k8Gb});
        }
    }

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);
    std::printf("grid: %s (%zu points x %zu workloads), jobs: %d, "
                "hardware threads: %u\n",
                grid_name.c_str(), grid.size(), workloads.size(), jobs,
                std::thread::hardware_concurrency());

    // Prewarm the process-wide alone-IPC cache so baseline simulation
    // cost is charged to no timed pass (the cache key ignores the
    // engine, so one pass would otherwise get it for free anyway).
    {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<GridPoint> warm;
        for (const GridPoint &gp : grid) {
            if (gp.mech == fig13_mechs.front())
                warm.push_back(gp);  // One mechanism per (spec, density).
        }
        parallelFor(jobs, warm.size(), [&](std::size_t i) {
            const SystemConfig sys =
                mechNamed("NoREF", warm[i].density, warm[i].spec)
                    .toSystemConfig();
            for (const Workload &w : workloads)
                for (int bench : w.benchIdx)
                    runner.aloneIpc(bench, sys);
        });
        std::printf("alone-IPC prewarm: %.2fs\n", secondsSince(t0));
    }

    // Pass 1 is the reference: the cycle-by-cycle engine on a single
    // thread.
    std::vector<PassResult> passes;
    passes.push_back(runPass(runner, grid, workloads, "cycle", 1));
    std::printf("cycle  x1: %8.2fs  (%.2e sim-cycles/sec)\n",
                passes.back().wallSeconds, passes.back().simCyclesPerSec);
    passes.push_back(runPass(runner, grid, workloads, "event", 1));
    std::printf("event  x1: %8.2fs  (%.2e sim-cycles/sec)\n",
                passes.back().wallSeconds, passes.back().simCyclesPerSec);
    passes.push_back(runPass(runner, grid, workloads, "event", jobs));
    std::printf("event x%-2d: %8.2fs  (%.2e sim-cycles/sec)\n", jobs,
                passes.back().wallSeconds, passes.back().simCyclesPerSec);

    const double cycle1 = passes[0].wallSeconds;
    const double event1 = passes[1].wallSeconds;
    const double eventJ = passes[2].wallSeconds;
    const double cycle1Cpu = passes[0].cpuSeconds;
    const double event1Cpu = passes[1].cpuSeconds;
    const bool identical = passes[0].wsSum == passes[1].wsSum &&
                           passes[0].wsSum == passes[2].wsSum;
    std::printf("speedup event x1 vs cycle x1: %.3fx (CPU time %.3fx)\n",
                cycle1 / event1, cycle1Cpu / event1Cpu);
    std::printf("speedup event x%d vs cycle x1: %.3fx\n", jobs,
                cycle1 / eventJ);
    std::printf("results identical across passes: %s\n",
                identical ? "yes" : "NO");

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        DSARP_FATALF("cannot write %s", out_path.c_str());
    std::fprintf(f, "{\n  \"bench\": \"perf_sweep\",\n");
    std::fprintf(f, "  \"grid\": \"%s\",\n", grid_name.c_str());
    std::fprintf(f, "  \"points\": %zu,\n", grid.size());
    std::fprintf(f, "  \"workloads_per_point\": %zu,\n", workloads.size());
    std::fprintf(f, "  \"warmup_cycles\": %llu,\n",
                 static_cast<unsigned long long>(runner.warmupTicks()));
    std::fprintf(f, "  \"measure_cycles\": %llu,\n",
                 static_cast<unsigned long long>(runner.measureTicks()));
    std::fprintf(f, "  \"jobs\": %d,\n", jobs);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"seed_cycle_x1_wall_seconds\": %.6f,\n", cycle1);
    std::fprintf(f, "  \"event_x1_wall_seconds\": %.6f,\n", event1);
    std::fprintf(f, "  \"event_xjobs_wall_seconds\": %.6f,\n", eventJ);
    std::fprintf(f, "  \"speedup_event_x1_vs_cycle_x1\": %.4f,\n",
                 cycle1 / event1);
    std::fprintf(f, "  \"speedup_event_xjobs_vs_cycle_x1\": %.4f,\n",
                 cycle1 / eventJ);
    std::fprintf(f, "  \"cpu_speedup_event_x1_vs_cycle_x1\": %.4f,\n",
                 cycle1Cpu / event1Cpu);
    std::fprintf(f, "  \"results_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"gate_min_speedup\": %.4f,\n", kMinSpeedup);
    const bool gate_ok =
        identical && cycle1Cpu >= event1Cpu * kMinSpeedup;
    std::fprintf(f, "  \"gate_pass\": %s,\n", gate_ok ? "true" : "false");
    std::fprintf(f, "  \"passes\": [\n");
    for (std::size_t i = 0; i < passes.size(); ++i)
        writeJsonPass(f, passes[i], i + 1 == passes.size());
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    if (!gate_ok) {
        std::fprintf(stderr,
                     "FAIL: event engine %.2fs vs cycle %.2fs of CPU "
                     "time (speedup floor %.2fx) or results diverged\n",
                     event1Cpu, cycle1Cpu, kMinSpeedup);
        return 1;
    }
    footer(runner);
    return 0;
}

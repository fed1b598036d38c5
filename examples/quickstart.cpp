/**
 * @file
 * Quickstart: the smallest end-to-end use of the library's public API.
 *
 * One Simulation per refresh mechanism: pick the mechanism by registry
 * name, build, run, read the metrics. Everything else -- workload
 * construction, warmup, measurement, the alone-run baseline, the
 * energy model -- is inside the facade.
 */

#include <cstdio>

#include "sim/simulation.hh"

using namespace dsarp;

int
main()
{
    std::printf("%-8s %10s %12s %14s\n", "mech", "WS", "energy/acc",
                "reads served");

    // A 50%-intensive 8-core mix on 32 Gb DRAM, the paper's middle
    // category. The same builder accepts any registered policy name --
    // including ones registered by user code.
    for (const char *mech : {"REFab", "REFpb", "DSARP", "NoREF"}) {
        RunResult res = Simulation::builder()
                            .config({.policy = mech,
                                     .densityGb = 32,
                                     .numCores = 8,
                                     .workloadSeed = 42,
                                     .intensityPct = 50})
                            .build()
                            .run();
        std::printf("%-8s %10.3f %10.1fnJ %14llu\n", mech, res.ws,
                    res.energyPerAccessNj,
                    static_cast<unsigned long long>(res.readsCompleted));
    }
    return 0;
}

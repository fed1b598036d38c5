/**
 * @file
 * Figure 14: DRAM energy per memory access for every mechanism and
 * density (Micron power-calculator methodology, per-spec IDD sets).
 *
 * Paper reference: DSARP cuts energy/access by 3.0/5.2/9.0% versus
 * REFab at 8/16/32 Gb, mostly by reducing static energy per access
 * through higher performance.
 *
 * Backend axis: --spec NAME (or DSARP_DRAM_SPEC) re-runs the figure
 * under any registered DRAM spec with that spec's own vdd/IDD energy
 * parameters -- the CI runs DDR4-2400 and LPDDR4-3200 legs so
 * spec-blind energy regressions fail loudly.
 *
 * Self-refresh axis: --sr-idle N arms the command-level SRE/SRX
 * idle-entry policy (refresh.selfRefresh.idleEntry) at N cycles on
 * every mechanism column, so the figure shows the IDD6 residency
 * savings *and* their performance price in one run.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    banner("Figure 14", "energy per access (nJ) by mechanism");

    // Backend axis: --spec NAME > DSARP_DRAM_SPEC > DDR3-1333 default.
    applyJobsFromArgs(argc, argv);
    const std::string spec = specFromArgs(argc, argv);
    if (!spec.empty())
        std::printf("[dram spec: %s]\n", spec.c_str());

    // Self-refresh axis: --sr-idle N (0 = the protocol stays off).
    const int srIdle = intFlag(argc, argv, "--sr-idle", 0, 0,
                               "a non-negative idle-entry cycle count");
    if (srIdle > 0) {
        std::printf("[self-refresh idle entry: %d cycles]\n", srIdle);
    }
    auto mech = [&](const std::string &name, Density d) {
        ExperimentConfig cfg = mechNamed(name, d, spec);
        cfg.srIdleEntry = srIdle;
        return cfg;
    };

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    std::printf("%-10s %7s %7s %8s %7s %7s %7s %7s %7s %10s\n", "density",
                "REFab", "REFpb", "Elastic", "DARP", "SARPab", "SARPpb",
                "DSARP", "NoREF", "DSARPvAB");
    for (Density d : densities()) {
        const auto refab =
            energyOf(sweep(runner, mech("REFab", d), workloads));
        std::printf("%-10s %7.2f", densityName(d), mean(refab));
        double dsarp_mean = 0.0;
        for (const char *name : {"REFpb", "Elastic", "DARP", "SARPab",
                                 "SARPpb", "DSARP", "NoREF"}) {
            const auto e =
                energyOf(sweep(runner, mech(name, d), workloads));
            if (std::string(name) == "DSARP")
                dsarp_mean = mean(e);
            std::printf(" %7.2f", mean(e));
        }
        std::printf(" %8.1f%%\n",
                    (1.0 - dsarp_mean / mean(refab)) * 100.0);
    }
    std::printf("\n[paper: DSARP reduces energy/access by 3.0/5.2/9.0%% "
                "vs REFab at 8/16/32Gb]\n");
    footer(runner);
    return 0;
}

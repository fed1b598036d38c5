/**
 * @file
 * Figure 13: average WS improvement over REFab for every evaluated
 * mechanism: REFpb, elastic refresh, DARP, SARPab, SARPpb, DSARP, and
 * the ideal no-refresh system.
 *
 * Paper reference: elastic refresh gains only ~1.8%; DSARP captures most
 * of the ideal (within 0.9/1.2/3.7% at 8/16/32 Gb).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    banner("Figure 13", "average WS improvement over REFab (%)");

    // Backend axis: --spec NAME > DSARP_DRAM_SPEC > DDR3-1333 default.
    applyJobsFromArgs(argc, argv);
    const std::string spec = specFromArgs(argc, argv);
    if (!spec.empty())
        std::printf("[dram spec: %s]\n", spec.c_str());
    // Topology axis: --channels N (0 = the library default of 2).
    const int channels = channelsFromArgs(argc, argv);
    if (channels > 0)
        std::printf("[channels: %d]\n", channels);

    const auto point = [&](const char *mech, Density d) {
        ExperimentConfig cfg = mechNamed(mech, d, spec);
        if (channels > 0)
            cfg.channels = channels;
        return cfg;
    };

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    // The REFsb column is meaningful only on same-bank-capable specs
    // (DDR5): fig13 gains it automatically when --spec selects one.
    std::vector<const char *> mechs = {"REFpb",  "Elastic", "DARP",
                                       "SARPab", "SARPpb",  "DSARP",
                                       "HiRA",   "NoREF"};
    if (specSupportsSameBank(spec))
        mechs.insert(mechs.begin() + 1, "REFsb");

    std::printf("%-10s", "density");
    for (const char *mech : mechs)
        std::printf(" %7s", mech);
    std::printf("\n");
    for (Density d : densities()) {
        const auto refab =
            wsOf(sweep(runner, point("REFab", d), workloads));
        std::printf("%-10s", densityName(d));
        for (const char *mech : mechs) {
            const auto ws =
                wsOf(sweep(runner, point(mech, d), workloads));
            std::printf(" %6.1f%%", gmeanPctOver(ws, refab));
        }
        std::printf("\n");
    }
    std::printf("\n[paper: Elastic ~1.8%% only; SARPab substantial; DSARP "
                "within 0.9/1.2/3.7%% of NoREF at 8/16/32Gb]\n");
    footer(runner);
    return 0;
}

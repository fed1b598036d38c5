/**
 * @file
 * Scenario: a DRAM architect deciding how many subarray groups per bank
 * to expose for SARP (the paper's Section 6.3 design question -- the
 * die-area overhead grows with subarray count, so the knee of the curve
 * matters).
 *
 * Sweeps subarrays-per-bank x density for SARPpb and prints the gain
 * over plain per-bank refresh, marking the knee (the smallest count
 * capturing >= 80% of the 64-subarray gain).
 */

#include <cstdio>
#include <vector>

#include "sim/simulation.hh"
#include "workload/workload.hh"

using namespace dsarp;

namespace {

/** Weighted speedup of one (mechanism, density, subarrays) point. */
double
wsOf(const char *mech, int density_gb, int subarrays,
     const Workload &workload)
{
    return Simulation::builder()
        .config({.policy = mech,
                 .densityGb = density_gb,
                 .subarraysPerBank = subarrays,
                 .numCores = 8})
        .workload(workload)
        .build()
        .run()
        .ws;
}

} // namespace

int
main()
{
    const Workload workload = makeIntensiveWorkloads(1, 8, 77)[0];
    const std::vector<int> counts = {1, 2, 4, 8, 16, 32, 64};

    std::printf("SARPpb gain over REFpb (%%) by subarrays-per-bank:\n\n");
    std::printf("%-10s", "density");
    for (int s : counts)
        std::printf(" %6d", s);
    std::printf("   knee\n");

    for (int gb : {8, 16, 32}) {
        std::vector<double> gains;
        for (int s : counts) {
            const double ws_base = wsOf("REFpb", gb, s, workload);
            const double ws_sarp = wsOf("SARPpb", gb, s, workload);
            gains.push_back((ws_sarp / ws_base - 1.0) * 100.0);
        }
        int knee = counts.back();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (gains[i] >= 0.8 * gains.back()) {
                knee = counts[i];
                break;
            }
        }
        char label[16];
        std::snprintf(label, sizeof(label), "%dGb", gb);
        std::printf("%-10s", label);
        for (double g : gains)
            std::printf(" %5.1f%%", g);
        std::printf("   %d\n", knee);
    }

    std::printf("\nThe paper evaluates 8 subarrays/bank (0.71%% die area) "
                "as the default design point;\ngains saturate beyond "
                "~16-32 subarrays (paper Table 5).\n");
    return 0;
}

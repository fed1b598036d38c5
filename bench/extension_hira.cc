/**
 * @file
 * Extension: HiRA (hidden row activation, Yağlıkçı et al., MICRO'22)
 * versus the paper's mechanisms, across every registered DRAM spec.
 *
 * HiRA extends the paper's core idea -- parallelizing refreshes with
 * accesses -- from idle-subarray scheduling (SARP) to overlapping a
 * refresh *beneath* an activation to a different subarray of the same
 * bank, with no chip modification. This bench compares HiRA against
 * the REFab baseline and the paper's headline DSARP on all five
 * registered backends, reporting weighted speedup, mean per-core IPC,
 * energy per access, and how many refreshes actually hid beneath
 * accesses.
 *
 * Each measured point is also emitted as one machine-readable JSON row
 * on stdout (prefix "JSON "), so sweeps can be collected into plots
 * without scraping the human tables.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "dram/spec.hh"

using namespace dsarp;
using namespace dsarp::bench;

namespace {

struct MechPoint
{
    double ws = 0.0;
    double ipc = 0.0;       ///< Mean per-core IPC across workloads.
    double energy = 0.0;    ///< Mean energy/access (nJ).
    double refPb = 0.0;     ///< Mean REFpb commands per run.
    double hidden = 0.0;    ///< Mean hidden refreshes per run.
};

MechPoint
measure(Runner &runner, const std::string &mech, const std::string &spec,
        Density d, const std::vector<Workload> &workloads,
        int fgrRate = 0)
{
    ExperimentConfig cfg = mechNamed(mech, d, spec);
    cfg.fgrRate = fgrRate;
    const auto results = sweep(runner, cfg, workloads);
    MechPoint p;
    for (const RunResult &r : results) {
        double ipc_sum = 0.0;
        for (double ipc : r.ipc)
            ipc_sum += ipc;
        p.ipc += ipc_sum / static_cast<double>(r.ipc.size());
        p.ws += r.ws;
        p.energy += r.energyPerAccessNj;
        p.refPb += static_cast<double>(r.refPb);
        p.hidden += static_cast<double>(r.refPbHidden);
    }
    const double n = static_cast<double>(results.size());
    p.ws /= n;
    p.ipc /= n;
    p.energy /= n;
    p.refPb /= n;
    p.hidden /= n;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Extension: HiRA",
           "hidden row activation vs REFab/DSARP per DRAM spec");

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);
    const Density d = Density::k32Gb;  // Longest refresh: biggest signal.

    std::printf("%-12s %9s %9s %9s %9s %9s %8s\n", "spec", "WS.REFab",
                "WS.DSARP", "WS.HiRA", "HiRAvAB", "hidden%", "E.HiRA");
    for (const std::string &spec : DramSpecRegistry::instance().names()) {
        const MechPoint refab =
            measure(runner, "REFab", spec, d, workloads);
        const MechPoint dsarp =
            measure(runner, "DSARP", spec, d, workloads);
        const MechPoint hira = measure(runner, "HiRA", spec, d, workloads);
        const double hidden_pct =
            hira.refPb > 0.0 ? 100.0 * hira.hidden / hira.refPb : 0.0;
        std::printf("%-12s %9.3f %9.3f %9.3f %8.1f%% %8.1f%% %8.2f\n",
                    spec.c_str(), refab.ws, dsarp.ws, hira.ws,
                    pctOver(hira.ws, refab.ws), hidden_pct, hira.energy);
        const std::pair<const char *, const MechPoint *> rows[] = {
            {"REFab", &refab}, {"DSARP", &dsarp}, {"HiRA", &hira}};
        for (const auto &[mech, p] : rows) {
            std::printf("JSON {\"bench\":\"extension_hira\","
                        "\"spec\":\"%s\",\"density\":\"%s\","
                        "\"mech\":\"%s\",\"ws\":%.4f,\"ipc\":%.4f,"
                        "\"energy_nj\":%.4f,\"refpb\":%.1f,"
                        "\"hidden\":%.1f}\n",
                        spec.c_str(), densityName(d), mech, p->ws,
                        p->ipc, p->energy, p->refPb, p->hidden);
        }
    }

    // HiRA under FGR rates (the PR-3 open item): DDR4-2400's native
    // tRFC1/tRFC2/tRFC4 divisors scale the per-bank refresh latency
    // while the command rate doubles/quadruples (refresh.fgrRate);
    // tHiRA and the coverage draws are rate-invariant device
    // characterization. More frequent refresh commands cost
    // performance, so the rate axis must order monotonically, and at
    // the same rate HiRA's out-of-order + hidden scheduling must beat
    // blocking all-bank FGR. 8 Gb: the only density where per-bank
    // refresh fits its command interval at the 4x rate.
    banner("HiRA x FGR", "DDR4-2400 per-bank HiRA on FGR-scaled timing");
    const Density d8 = Density::k8Gb;
    const std::string ddr4 = "DDR4-2400";
    const MechPoint hira1x = measure(runner, "HiRA", ddr4, d8, workloads);
    const MechPoint hira2x =
        measure(runner, "HiRA", ddr4, d8, workloads, 2);
    const MechPoint hira4x =
        measure(runner, "HiRA", ddr4, d8, workloads, 4);
    const MechPoint fgr2x = measure(runner, "FGR2x", ddr4, d8, workloads);
    const MechPoint fgr4x = measure(runner, "FGR4x", ddr4, d8, workloads);
    std::printf("%-12s %9s %9s %9s %9s %9s\n", "spec", "HiRA.1x",
                "HiRA.2x", "HiRA.4x", "FGR2x", "FGR4x");
    std::printf("%-12s %9.3f %9.3f %9.3f %9.3f %9.3f\n", ddr4.c_str(),
                hira1x.ws, hira2x.ws, hira4x.ws, fgr2x.ws, fgr4x.ws);
    const std::pair<const char *, const MechPoint *> fgr_rows[] = {
        {"HiRA@1x", &hira1x}, {"HiRA@2x", &hira2x}, {"HiRA@4x", &hira4x},
        {"FGR2x", &fgr2x},    {"FGR4x", &fgr4x}};
    for (const auto &[mech, p] : fgr_rows) {
        std::printf("JSON {\"bench\":\"extension_hira_fgr\","
                    "\"spec\":\"%s\",\"density\":\"%s\","
                    "\"mech\":\"%s\",\"ws\":%.4f,\"ipc\":%.4f,"
                    "\"energy_nj\":%.4f,\"hidden\":%.1f}\n",
                    ddr4.c_str(), densityName(d8), mech, p->ws, p->ipc,
                    p->energy, p->hidden);
    }
    // Asserted ordering, with 2% headroom for smoke-scale noise.
    // Blocking all-bank FGR degrades as the rate rises (the paper's
    // Figure 16 trend: tRFC shrinks by less than the rate), while
    // HiRA's out-of-order + hidden per-bank scheduling at the same
    // rate never loses to it. HiRA's own rate axis is deliberately
    // NOT forced monotone: at 8 Gb the shorter 2x/4x per-bank
    // commands hide *better*, so finer granularity can win -- the
    // interesting, density-dependent trade the JSON rows record.
    bool fgr_ok = true;
    if (fgr4x.ws > fgr2x.ws * 1.02) {
        std::printf("ORDERING VIOLATION: blocking FGR must not improve "
                    "with rate (2x %.3f, 4x %.3f)\n", fgr2x.ws,
                    fgr4x.ws);
        fgr_ok = false;
    }
    if (hira2x.ws < fgr2x.ws * 0.98 || hira4x.ws < fgr4x.ws * 0.98) {
        std::printf("ORDERING VIOLATION: HiRA at an FGR rate must not "
                    "lose to blocking FGR (2x %.3f vs %.3f, 4x %.3f vs "
                    "%.3f)\n",
                    hira2x.ws, fgr2x.ws, hira4x.ws, fgr4x.ws);
        fgr_ok = false;
    }

    std::printf("\n[HiRA hides per-bank refreshes beneath demand ACTs to "
                "other subarrays of the same bank -- no chip "
                "modification; WS lands between REFab and DSARP, and "
                "its IPC must not fall below the REFab baseline]\n");
    footer(runner);
    return fgr_ok ? 0 : EXIT_FAILURE;
}

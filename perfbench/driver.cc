/**
 * @file
 * Repository benchmark driver; run.py builds and invokes it.
 *
 * One process runs one named workload end to end:
 *
 *   1. set-up     build every grid point through Simulation::builder()
 *                 (registry names and key=value strings only), warm
 *                 the alone-IPC baselines, construct each System once;
 *   2. verify     one checker-enabled System per mechanism: the DRAM
 *                 protocol checker on every channel, request
 *                 conservation, and agreement with the facade's run;
 *   3. measure    (--trace 0) the grid once for the model metrics, then
 *                 again round-robin until --seconds have passed, every
 *                 repeat bit-identical to the first, for host speed,
 *                 with a host probe slice after every few runs;
 *   3'. trace     (--trace 1) the grid once, untraced System runs of
 *                 every mechanism at the traced points for the model
 *                 layer statistics, then untraced/traced pairs of the
 *                 traced points until --seconds have passed.
 *
 * Output: a human-readable report, then one JSON line with the host
 * context, the run counts and every metric with its unit.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/log.hh"
#include "dram/spec.hh"
#include "sim/checker.hh"
#include "sim/energy.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"
#include "workload/workload.hh"

using namespace dsarp;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The median of @p v, 0 when empty. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Samples the process's resident set (/proc/self/statm) every
 * kPeriod on a background thread for as long as it lives, so that the
 * peak inside a run shows, not only what is left when it returns.
 */
class RssSampler
{
  public:
    static constexpr std::chrono::milliseconds kPeriod{2};

    RssSampler() : thread_([this] { loop(); }) {}

    ~RssSampler()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** The largest sample, in MB, since the previous call. */
    double
    takePeakMb()
    {
        sample();
        const std::lock_guard<std::mutex> lock(mutex_);
        const double peak = peakMb_;
        peakMb_ = 0.0;
        return peak;
    }

    /** The resident set now, in MB (0 when unavailable). */
    double
    sample()
    {
        std::ifstream statm("/proc/self/statm");
        double pages = 0.0;
        double resident = 0.0;
        if (!(statm >> pages >> resident))
            return 0.0;
        const double mb = resident *
                          static_cast<double>(sysconf(_SC_PAGESIZE)) /
                          (1024.0 * 1024.0);
        const std::lock_guard<std::mutex> lock(mutex_);
        peakMb_ = std::max(peakMb_, mb);
        return mb;
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, kPeriod, [this] { return stop_; })) {
            lock.unlock();
            sample();
            lock.lock();
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    double peakMb_ = 0.0;
    std::thread thread_;
};

/** A "Vm...:" line of /proc/self/status in MB, 0 when unavailable. */
double
residentMb(const char *field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(status, line)) {
        if (line.compare(0, len, field) == 0)
            return std::stod(line.substr(len)) / 1024.0;
    }
    return 0.0;
}

// ---------------------------------------------------------------------
// Reference results.
// ---------------------------------------------------------------------

/**
 * Chang et al., HPCA 2014, Table 2: gmean weighted-speedup improvement
 * (%) at 32Gb, over REFpb and over REFab (the same values as the
 * bench/table2_summary.cc header).
 */
struct PaperCell
{
    const char *mech;
    const char *base;
    double pct;
};

constexpr PaperCell kTable2At32Gb[] = {
    {"DARP", "REFpb", 3.8},   {"SARPpb", "REFpb", 13.7},
    {"DSARP", "REFpb", 15.2}, {"DARP", "REFab", 8.3},
    {"SARPpb", "REFab", 18.6}, {"DSARP", "REFab", 20.2},
};

/** p99 read-latency limit for capacity_rate: 500 cycles, 750 ns at
 *  DDR3-1333. */
constexpr double kP99LimitCycles = 500.0;

/** A rung whose injector fell behind by more than this share of its
 *  arrivals has a growing backlog. */
constexpr double kBacklogGrowthLimit = 0.01;

/**
 * Host times are reported in reference seconds: scaled by kProbeRefS
 * over the median time of probeSlice(), run on the worker threads
 * between the measured runs, so that the host's own speed, which
 * drifts by tens of percent over minutes on shared virtual machines,
 * largely cancels out. A program change cannot move the probe.
 */
constexpr double kProbeRefS = 0.0125;

/**
 * How many times as much, in log terms, the simulator's speed moves as
 * the probe's when the host's speed changes. Measured on a shared
 * 4-vCPU host: the slope of log simulator speed on log probe speed was
 * 1.2-1.5 in 5-second windows over 150 s of interleaved runs, and 1.7
 * across a host slowdown that took open-drain's raw speed from 8.3 to
 * 5.5 Mcycle/s between two sets of runs.
 */
constexpr double kProbeElasticity = 1.5;

/** Measured runs between two probe slices on the grid's schedule. */
constexpr std::size_t kRunsPerProbe = 4;

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/**
 * closed-paper32: the paper's experiment. 8 closed-loop cores, 3 mixes
 * per intensity category, 32Gb DDR3-1333, 2 channels. Full queues make
 * the FR-FCFS pick and refresh scheduling dominate host time; the
 * alone-IPC baselines dominate set-up.
 *
 * open-tail: Poisson arrivals, 67% reads, 50% hot rows, rates up to
 * saturation. No cores, short queues, mostly idle ticks; mechanisms
 * separate at the p99.
 *
 * open-drain: bursty arrivals, 33% reads, named rate at DSARP's knee:
 * at 50 req/kcycle DSARP's median read latency is twice its 40 req/kcycle
 * value (82 against 36 cycles, 4 seeds) while p99 stays under the
 * limit (~410 cycles). The write queues sit near the drain watermark
 * (~39 of 64 entries at every rung), write drains take 7-8% of ticks
 * there (14% at 100), and bursts leave a backlog in the injector that
 * drains again between them (none at the named rate; a mean of 3.7
 * requests at 100, with no net growth).
 */
struct WorkloadDef
{
    std::string name;
    bool closed = false;
    std::vector<std::string> mechs;
    std::string mode;                ///< traffic.mode (open loop)
    int readPct = 0;
    int hotRowPct = 0;
    std::vector<int> rates;          ///< Rate ladder, req/kcycle.
    int namedRate = 0;               ///< Rate of read_p50/p99.
    /** Simulator seeds run at the named rate; the read-latency and
     *  energy metrics merge them, which damps the seed's hot-row
     *  placement. */
    int namedReplicas = 1;
    Tick warmup = 0;
    Tick measure = 0;
};

const std::vector<std::string> kAllMechs = {"REFab", "REFpb", "DARP",
                                            "SARPpb", "DSARP"};

bool
findWorkload(const std::string &name, WorkloadDef &w)
{
    if (name == "closed-paper32") {
        w.closed = true;
        w.mechs = kAllMechs;
        w.warmup = 20000;
        w.measure = 150000;
    } else if (name == "open-tail") {
        w.mechs = {"REFab", "REFpb", "DSARP"};
        w.mode = "poisson";
        w.readPct = 67;
        w.hotRowPct = 50;
        w.rates = {200, 250, 300, 350, 400, 425, 450, 475, 500};
        w.namedRate = 350;
        w.namedReplicas = 8;
        w.warmup = 20000;
        w.measure = 200000;
    } else if (name == "open-drain") {
        w.mechs = {"REFab", "REFpb", "DSARP"};
        w.mode = "bursty";
        w.readPct = 33;
        w.hotRowPct = 50;
        w.rates = {20, 30, 40, 50, 60, 70, 80, 100};
        w.namedRate = 50;
        // More seeds than open-tail: at the knee p50 moves more with
        // the seed.
        w.namedReplicas = 12;
        w.warmup = 20000;
        w.measure = 800000;
    } else {
        return false;
    }
    w.name = name;
    return true;
}

/** One grid point: a mechanism at one mix (closed) or rate (open). */
struct Point
{
    std::string mech;
    int mix = -1;   ///< Index into the mixes (closed loop).
    int rate = 0;   ///< req/kcycle (open loop).
    int replica = 0;  ///< 0: the --seed run; k > 0: a derived seed.
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int jobs = 1;
    bool setupOnly = false;
    double scale = 1.0;
    std::string inject;     ///< "", "signature" or "violation".
    std::string spansOut;
};

/** What the traced runs measured besides the tracer's aggregates. */
struct HostTrace
{
    SpanCost cost;            ///< The tracer's own cost per span.
    double tracedS = 0.0;     ///< Measure windows of the traced runs.
    double untracedS = 0.0;   ///< The same runs untraced.
    std::uint64_t calls = 0;  ///< Enqueue calls.
    std::uint64_t rejects = 0;
    std::vector<double> decodeNs;    ///< Batch timing per traced run.
    std::vector<double> traceNextNs;
};

class Bench
{
  public:
    Bench(const Args &args, const WorkloadDef &w) : a_(args), w_(w)
    {
        w_.warmup = std::max<Tick>(1000, static_cast<Tick>(
                                             w_.warmup * a_.scale));
        w_.measure = std::max<Tick>(5000, static_cast<Tick>(
                                              w_.measure * a_.scale));
        if (w_.closed)
            mixes_ = makeWorkloads(3, 8, a_.seed);
        for (const std::string &m : w_.mechs) {
            if (w_.closed) {
                for (std::size_t i = 0; i < mixes_.size(); ++i)
                    grid_.push_back({m, static_cast<int>(i), 0, 0});
            } else {
                for (int r : w_.rates)
                    grid_.push_back({m, -1, r, 0});
                for (int k = 1; k < w_.namedReplicas; ++k)
                    grid_.push_back({m, -1, w_.namedRate, k});
            }
        }
    }

    /** Build the grid's Simulations, warm baselines, build Systems. */
    void setup();
    /** Checker, conservation and facade agreement per mechanism. */
    void verify();
    /** The grid once, then (@p repeat) again until --seconds pass. */
    void runGrid(bool repeat);
    /** Model layer statistics and the traced/untraced pairs. */
    void trace();
    /** Print the report and the JSON result line. */
    void finish();

    bool ok() const { return failed_ == 0; }

  private:
    struct Metric
    {
        std::string name;
        std::string unit;
        double value;
    };

    Simulation makeSim(const Point &p, bool checker) const;
    System makeSystem(const Simulation &sim) const;
    std::size_t gridIndex(const Point &p) const;
    /** The points the traced run and the model layer runs use. */
    std::vector<Point> focusPoints(const std::string &mech) const;
    void fail(const std::string &what);
    void add(const std::string &name, const std::string &unit, double v);
    void addEndToEnd();
    void addFidelity();
    void addModelLayers(
        const std::map<std::string, std::vector<ModelStats>> &byMech);
    void addHostLayers(const Tracer &tracer, const HostTrace &h);
    void writeSpans(const Tracer &tracer) const;
    /** Reference seconds per host second (see kProbeRefS). */
    double
    hostScale() const
    {
        return std::pow(kProbeRefS / measureProbeS_, kProbeElasticity);
    }

    const Args &a_;
    WorkloadDef w_;
    std::vector<Workload> mixes_;
    std::vector<Point> grid_;
    std::vector<Simulation> sims_;
    std::vector<RunResult> round0_;
    std::vector<std::uint8_t> round0Ok_;
    std::vector<Point> verifyPoints_;
    std::vector<std::vector<std::uint64_t>> verifySigs_;

    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::mutex failMutex_;
    std::vector<std::string> failures_;
    RssSampler rss_;
    double verifyRssMb_ = 0.0;  ///< At the end of each verification run.
    double gridRssMb_ = 0.0;    ///< Peak during the untraced grid.

    double setupS_ = 0.0;
    double aloneS_ = 0.0;
    double buildMs_ = 0.0;
    double checkS_ = 0.0;
    double measureS_ = 0.0;
    double measureProbeS_ = 0.0; ///< Median probe slice in the grid.
    std::uint64_t measuredCycles_ = 0;
    std::uint64_t measuredRuns_ = 0;

    std::vector<Metric> metrics_;
};

/** The simulator seed of replica @p k: the --seed itself for k = 0,
 *  else a splitmix64 mix of the two. */
std::uint64_t
replicaSeed(std::uint64_t seed, int k)
{
    if (k == 0)
        return seed;
    std::uint64_t z =
        seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
fatalToException(const char *file, int line, const char *msg)
{
    throw std::runtime_error(std::string(msg) + " (" + file + ":" +
                             std::to_string(line) + ")");
}

Simulation
Bench::makeSim(const Point &p, bool checker) const
{
    Simulation::Builder b = Simulation::builder();
    b.set("policy", p.mech)
        .set("dram.spec", "DDR3-1333")
        .set("densityGb", "32")
        .set("channels", "2")
        .set("seed", std::to_string(replicaSeed(a_.seed, p.replica)))
        .set("warmupCycles", std::to_string(w_.warmup))
        .set("measureCycles", std::to_string(w_.measure));
    if (checker)
        b.set("enableChecker", "true");
    if (w_.closed) {
        b.set("numCores", "8").workload(
            mixes_[static_cast<std::size_t>(p.mix)]);
    } else {
        b.set("traffic.mode", w_.mode)
            .set("traffic.rate", std::to_string(p.rate))
            .set("traffic.readPct", std::to_string(w_.readPct))
            .set("traffic.hotRowPct", std::to_string(w_.hotRowPct));
    }
    return b.build();
}

System
Bench::makeSystem(const Simulation &sim) const
{
    const SystemConfig sys = sim.config().toSystemConfig();
    if (w_.closed)
        return System(sys, sim.workload().benchIdx);
    return System(sys);
}

std::size_t
Bench::gridIndex(const Point &p) const
{
    for (std::size_t i = 0; i < grid_.size(); ++i) {
        if (grid_[i].mech == p.mech && grid_[i].mix == p.mix &&
            grid_[i].rate == p.rate && grid_[i].replica == p.replica)
            return i;
    }
    return grid_.size();
}

std::vector<Point>
Bench::focusPoints(const std::string &mech) const
{
    // Closed loop: the first mix of every intensity category; open
    // loop: the named rate.
    std::vector<Point> out;
    if (w_.closed) {
        for (std::size_t i = 0; i < mixes_.size(); i += 3)
            out.push_back({mech, static_cast<int>(i), 0, 0});
    } else {
        out.push_back({mech, -1, w_.namedRate, 0});
    }
    return out;
}

void
Bench::fail(const std::string &what)
{
    ++failed_;
    const std::lock_guard<std::mutex> lock(failMutex_);
    failures_.push_back(what);
}

void
Bench::add(const std::string &name, const std::string &unit, double v)
{
    metrics_.push_back({name, unit, v});
}

// ---------------------------------------------------------------------
// Host speed probe.
// ---------------------------------------------------------------------

/**
 * Seconds one fixed loop takes on the calling thread: a walk of a
 * random cycle through 512 KiB (dependent loads) with integer mixing
 * between the loads. It shares no code with the simulator, so a change
 * to the program cannot move it; only the host can. Of walks through
 * 64 KiB, 512 KiB and 8 MiB interleaved with simulator runs on a
 * shared 4-vCPU host, this size followed the simulator's speed most
 * nearly one for one.
 */
double
probeSlice()
{
    constexpr std::uint32_t kEntries = 1u << 17;
    constexpr std::uint64_t kSteps = 2'000'000;
    // Sattolo's shuffle: one cycle through every entry, once per thread.
    thread_local const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> v(kEntries);
        for (std::uint32_t i = 0; i < kEntries; ++i)
            v[i] = i;
        std::uint64_t x = 0x2545f4914f6cdd1dULL;
        for (std::uint32_t i = kEntries - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(v[i], v[x % i]);
        }
        return v;
    }();
    const auto t0 = Clock::now();
    std::uint32_t idx = 0;
    std::uint64_t acc = 0;
    for (std::uint64_t k = 0; k < kSteps; ++k) {
        idx = next[idx];
        for (int r = 0; r < 2; ++r) {
            acc = (acc ^ idx) * 0x9e3779b97f4a7c15ULL;
            acc ^= acc >> 29;
        }
    }
    const double secs = secondsSince(t0);
    // Publishing the checksum keeps the loop from being optimised away.
    static std::atomic<std::uint64_t> checksum{0};
    checksum.fetch_xor(acc, std::memory_order_relaxed);
    return secs;
}

/**
 * Run probeSlice() on every worker thread until two slices in a row
 * agree within 10% (at most 100 slices): on virtualised hosts, threads
 * waking from idle run several times slower for up to a second, which
 * must not land in a timed phase.
 */
void
warmHost(int jobs)
{
    parallelFor(jobs, static_cast<std::size_t>(jobs), [](std::size_t) {
        double prev = probeSlice();
        for (int i = 0; i < 99; ++i) {
            const double cur = probeSlice();
            if (std::fabs(cur - prev) <= 0.1 * cur)
                return;
            prev = cur;
        }
    });
}

// ---------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------

void
Bench::setup()
{
    warmHost(a_.jobs);
    const auto t0 = Clock::now();
    for (const Point &p : grid_)
        sims_.push_back(makeSim(p, false));
    const double buildS = secondsSince(t0);

    const auto t1 = Clock::now();
    if (w_.closed) {
        // Every mechanism shares a mix's baselines (the alone runs are
        // refresh-free), so warming one mechanism's points covers all.
        for (std::size_t i = 0; i < mixes_.size(); ++i)
            sims_[i].prewarmBaselines(a_.jobs);
    }
    aloneS_ = secondsSince(t1);

    const auto t2 = Clock::now();
    for (const Simulation &sim : sims_) {
        const System sys = makeSystem(sim);
        (void)sys;
    }
    buildMs_ = (buildS + secondsSince(t2)) * 1e3;
    setupS_ = secondsSince(t0);
}

// ---------------------------------------------------------------------
// Verification pass.
// ---------------------------------------------------------------------

/** Requests in flight at one instant, as the requesters and the
 *  controllers see them. */
struct Inflight
{
    std::int64_t coreReads = 0;     ///< Sum of Core::outstandingReads.
    std::int64_t backlog = 0;       ///< Injector backlog.
    std::int64_t queuedWrites = 0;  ///< Controller write queues.
};

Inflight
inflight(const System &sys)
{
    Inflight f;
    for (int c = 0; c < sys.numCores(); ++c)
        f.coreReads += sys.core(c).outstandingReads();
    if (const TrafficInjector *inj = sys.injector())
        f.backlog = static_cast<std::int64_t>(inj->backlog());
    const MemOrg &org = sys.config().mem.org;
    for (int ch = 0; ch < sys.numChannels(); ++ch) {
        for (int r = 0; r < org.ranksPerChannel; ++r) {
            for (int b = 0; b < org.banksPerRank; ++b)
                f.queuedWrites += sys.controller(ch).pendingWrites(r, b);
        }
    }
    return f;
}

/** Conservation over a measure window that began at @p before. */
std::vector<std::string>
conservation(const System &sys, const ModelStats &s, const Inflight &before,
             const Inflight &after)
{
    std::vector<std::string> errs;
    std::int64_t readsIn = 0, readsDone = 0, writesIn = 0, writesOut = 0;
    for (const ControllerStats &c : s.ctl) {
        readsIn += static_cast<std::int64_t>(c.readsEnqueued +
                                             c.forwardedReads);
        readsDone += static_cast<std::int64_t>(c.readsCompleted);
        writesIn += static_cast<std::int64_t>(c.writesEnqueued);
        writesOut += static_cast<std::int64_t>(c.writesIssued);
    }
    if (writesIn - writesOut != after.queuedWrites - before.queuedWrites)
        errs.push_back("writes enqueued != issued + queued");
    if (sys.injector()) {
        std::int64_t gen = 0, inj = 0, injReads = 0, delivered = 0;
        for (std::size_t t = 0; t < s.tenants.size(); ++t) {
            gen += static_cast<std::int64_t>(s.tenants[t].generated);
            inj += static_cast<std::int64_t>(s.tenants[t].injected);
            injReads += static_cast<std::int64_t>(s.tenants[t].reads);
            delivered += static_cast<std::int64_t>(s.tenantLat[t].count());
        }
        if (gen - inj != after.backlog - before.backlog)
            errs.push_back("generated != injected + backlog");
        if (inj != readsIn + writesIn || injReads != readsIn)
            errs.push_back("injected != controller enqueues");
        if (delivered != readsDone)
            errs.push_back("reads delivered != reads completed");
    } else {
        std::int64_t issued = 0, wbs = 0;
        for (const CoreStats &c : s.cores) {
            issued += static_cast<std::int64_t>(c.readsIssued);
            wbs += static_cast<std::int64_t>(c.writebacksIssued);
        }
        if (issued != readsIn)
            errs.push_back("core reads issued != controller reads in");
        if (wbs != writesIn)
            errs.push_back("core writebacks != controller writes in");
        if (readsIn - readsDone != after.coreReads - before.coreReads)
            errs.push_back("reads enqueued != completed + in flight");
    }
    return errs;
}

/** The RunResult fields a System-level run must reproduce. */
std::vector<std::uint64_t>
resultSignature(const RunResult &r)
{
    std::vector<std::uint64_t> out;
    auto dbl = [&out](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        out.push_back(bits);
    };
    for (double v : r.ipc)
        dbl(v);
    dbl(r.energyPerAccessNj);
    out.insert(out.end(), {r.readLatency.count(), r.readLatency.min(),
                           r.readLatency.max(), r.readsCompleted,
                           r.writesIssued, r.refAb, r.refPb, r.refSb,
                           r.refOverlapTicks});
    dbl(r.readLatency.mean());
    for (const TenantResult &t : r.tenants) {
        out.insert(out.end(), {t.generated, t.injected, t.reads});
        dbl(t.p99);
    }
    return out;
}

/** The same fields, derived from a System's statistics. */
std::vector<std::uint64_t>
resultSignature(const System &sys, const ModelStats &s)
{
    RunResult r;
    r.ipc = sys.coreIpc();
    const EnergyParams &energy =
        DramSpecRegistry::instance().at(sys.config().mem.dramSpec).energy;
    double nj = 0.0;
    double accesses = 0.0;
    for (std::size_t ch = 0; ch < s.chan.size(); ++ch) {
        const ChannelStats &cs = s.chan[ch];
        nj += channelEnergy(cs, sys.timing(), energy).totalNj();
        accesses += static_cast<double>(cs.reads + cs.writes);
        r.refAb += cs.refAb;
        r.refPb += cs.refPb;
        r.refSb += cs.refSb;
        r.refOverlapTicks += cs.refOverlapTicks;
        r.readsCompleted += s.ctl[ch].readsCompleted;
        r.writesIssued += s.ctl[ch].writesIssued;
        r.readLatency.merge(s.ctl[ch].readLatency);
    }
    r.energyPerAccessNj = accesses > 0.0 ? nj / accesses : 0.0;
    for (std::size_t t = 0; t < s.tenants.size(); ++t) {
        TenantResult tr;
        tr.generated = s.tenants[t].generated;
        tr.injected = s.tenants[t].injected;
        tr.reads = s.tenantLat[t].count();
        tr.p99 = s.tenantLat[t].percentile(99.0);
        r.tenants.push_back(tr);
    }
    return resultSignature(r);
}

void
Bench::verify()
{
    const auto t0 = Clock::now();
    // The heaviest point per mechanism: the last all-intensive mix, or
    // the top of the rate ladder, where the open loop is overloaded.
    std::vector<Point> points;
    for (const std::string &m : w_.mechs) {
        if (w_.closed)
            points.push_back({m, static_cast<int>(mixes_.size()) - 1, 0, 0});
        else
            points.push_back({m, -1, w_.rates.back(), 0});
    }
    std::vector<std::vector<std::uint64_t>> sigs(points.size());
    // Serial: the checker's command logs dominate peak memory, and one
    // log at a time keeps that peak independent of thread timing.
    parallelFor(1, points.size(), [&](std::size_t i) {
        ++attempted_;
        const std::string tag = "verify " + points[i].mech;
        try {
            const Simulation sim = makeSim(points[i], true);
            System sys = makeSystem(sim);
            sys.run(w_.warmup);
            const Inflight before = inflight(sys);
            sys.resetStats();
            sys.run(w_.measure);
            const ModelStats s = snapshot(sys);
            bool ok = true;
            for (const std::string &e :
                 conservation(sys, s, before, inflight(sys))) {
                fail(tag + ": conservation: " + e);
                ok = false;
            }
            for (int ch = 0; ch < sys.numChannels(); ++ch) {
                const std::vector<TimedCommand> &log = sys.commandLog(ch);
                if (log.empty()) {
                    fail(tag + ": empty command log");
                    ok = false;
                }
                std::vector<TimedCommand> seeded;
                if (a_.inject == "violation" && i == 0 && ch == 0) {
                    // Seeded fault: re-issue the first ACT one cycle
                    // later, to a bank that is now open.
                    seeded = log;
                    for (std::size_t k = 0; k < seeded.size(); ++k) {
                        if (seeded[k].cmd.type == CommandType::kAct) {
                            TimedCommand dup = seeded[k];
                            ++dup.tick;
                            seeded.insert(seeded.begin() +
                                              static_cast<long>(k) + 1,
                                          dup);
                            break;
                        }
                    }
                }
                const CheckerReport rep = verifyCommandLog(
                    seeded.empty() ? log : seeded, sys.config().mem,
                    sys.timing(), sys.now());
                if (!rep.ok()) {
                    fail(tag + ": checker: " + rep.violations.front());
                    ok = false;
                }
            }
            // Sampled here, with the System and its full command logs
            // alive, rather than by the background sampler, which
            // catches or misses the instants when a log's vector holds
            // its old and new buffers depending on its timing.
            verifyRssMb_ = std::max(verifyRssMb_, rss_.sample());
            if (ok)
                sigs[i] = resultSignature(sys, s);
        } catch (const std::exception &e) {
            fail(tag + ": " + e.what());
        }
    });
    checkS_ = secondsSince(t0);
    // Hand the freed command logs back to the system, so that the
    // grid's resident set is the grid's own.
    malloc_trim(0);
    verifyPoints_ = std::move(points);
    verifySigs_ = std::move(sigs);
}

// ---------------------------------------------------------------------
// The untraced grid.
// ---------------------------------------------------------------------

void
Bench::runGrid(bool repeat)
{
    const std::size_t n = grid_.size();
    const std::size_t rounds = repeat ? 256 : 1;
    round0_.assign(n, RunResult{});
    round0Ok_.assign(n, 0);
    std::vector<std::uint64_t> repeatDigest(n * rounds, 0);
    std::vector<std::uint8_t> repeatRan(n * rounds, 0);
    std::vector<double> busyS(n * rounds, 0.0);
    // One round: every grid point, with a probe slice (kNoPoint) after
    // every kRunsPerProbe of them.
    constexpr std::size_t kNoPoint = ~std::size_t{0};
    std::vector<std::size_t> schedule;
    for (std::size_t p = 0; p < n; ++p) {
        schedule.push_back(p);
        if (p % kRunsPerProbe == kRunsPerProbe - 1)
            schedule.push_back(kNoPoint);
    }
    const std::size_t m = schedule.size();
    std::vector<double> probeS(m * rounds, 0.0);
    const Tick cyclesPerRun = w_.warmup + w_.measure;

    warmHost(a_.jobs);  // After the serial verification.
    rss_.takePeakMb();
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(a_.seconds));
    // Items are claimed in index order, so round r + 1 starts only
    // once every item of round r is taken; round 0 always runs whole.
    parallelFor(a_.jobs, m * rounds, [&](std::size_t item) {
        const std::size_t round = item / m;
        if (round > 0 && Clock::now() >= deadline)
            return;
        const std::size_t p = schedule[item % m];
        if (p == kNoPoint) {
            probeS[item] = probeSlice();
            return;
        }
        const std::size_t i = round * n + p;
        ++attempted_;
        try {
            const auto r0 = Clock::now();
            RunResult res = sims_[p].run();
            busyS[i] = secondsSince(r0);
            if (i < n) {
                round0_[p] = std::move(res);
                round0Ok_[p] = 1;
            } else {
                repeatDigest[i] = digest(resultSignature(res));
                repeatRan[i] = 1;
            }
        } catch (const std::exception &e) {
            fail(grid_[p].mech + " run: " + e.what());
        }
    });
    gridRssMb_ = rss_.takePeakMb();
    // Host time of the runs: the time each one took, summed over the
    // runs and spread over the worker threads. This leaves out the
    // probe slices and the threads idling at the end of the window.
    measuredRuns_ = 0;
    measureS_ = 0.0;
    for (double b : busyS) {
        if (b > 0.0) {
            ++measuredRuns_;
            measureS_ += b;
        }
    }
    measureS_ /= static_cast<double>(
        std::min<std::size_t>(static_cast<std::size_t>(a_.jobs), n));
    measuredCycles_ = measuredRuns_ * cyclesPerRun;
    std::vector<double> probes;
    for (double v : probeS) {
        if (v > 0.0)
            probes.push_back(v);
    }
    measureProbeS_ = median(probes);
    for (std::size_t i = n; i < n * rounds; ++i) {
        const std::size_t p = i % n;
        if (repeatRan[i] && round0Ok_[p] &&
            repeatDigest[i] != digest(resultSignature(round0_[p])))
            fail(grid_[p].mech + ": repeated run differs from the first");
    }
    for (std::size_t v = 0; v < verifyPoints_.size(); ++v) {
        const std::size_t g = gridIndex(verifyPoints_[v]);
        if (g < n && round0Ok_[g] && !verifySigs_[v].empty() &&
            verifySigs_[v] != resultSignature(round0_[g])) {
            fail("verify " + verifyPoints_[v].mech +
                 ": checker-enabled System run differs from the "
                 "Simulation run");
        }
    }
}

// ---------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------

void
Bench::trace()
{
    // Model layer statistics: untraced System runs of every mechanism
    // at the traced points.
    std::vector<Point> pts;
    for (const std::string &m : kAllMechs) {
        for (const Point &p : focusPoints(m))
            pts.push_back(p);
    }
    std::vector<ModelStats> stats(pts.size());
    std::vector<std::uint8_t> statsOk(pts.size(), 0);
    parallelFor(a_.jobs, pts.size(), [&](std::size_t i) {
        ++attempted_;
        try {
            const Simulation sim = makeSim(pts[i], false);
            System sys = makeSystem(sim);
            sys.run(w_.warmup);
            sys.resetStats();
            sys.run(w_.measure);
            stats[i] = snapshot(sys);
            statsOk[i] = 1;
            const std::size_t g = gridIndex(pts[i]);
            if (g < grid_.size() && round0Ok_[g] &&
                resultSignature(sys, stats[i]) !=
                    resultSignature(round0_[g])) {
                fail(pts[i].mech +
                     ": System run differs from the Simulation run");
            }
        } catch (const std::exception &e) {
            fail(pts[i].mech + " layer run: " + e.what());
        }
    });
    std::map<std::string, std::vector<ModelStats>> byMech;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (statsOk[i])
            byMech[pts[i].mech].push_back(stats[i]);
    }
    addModelLayers(byMech);

    // Host layer times: untraced and traced runs of DSARP's traced
    // points, alternated until --seconds have passed. Serial, so the
    // spans time one thread's work.
    Tracer tracer;
    HostTrace host;
    host.cost = calibrateSpans();
    const std::vector<Point> traced = focusPoints("DSARP");
    const auto t0 = Clock::now();
    for (int pass = 0; pass == 0 || secondsSince(t0) < a_.seconds;
         ++pass) {
        for (std::size_t k = 0; k < traced.size(); ++k) {
            ++attempted_;
            try {
                const Simulation sim = makeSim(traced[k], false);
                System sys = makeSystem(sim);
                sys.run(w_.warmup);
                sys.resetStats();
                const auto u0 = Clock::now();
                sys.run(w_.measure);
                host.untracedS += secondsSince(u0);
                const std::vector<std::uint64_t> want =
                    signature(snapshot(sys));

                const TracedRun run = runTraced(
                    sim.config().toSystemConfig(),
                    w_.closed ? sim.workload().benchIdx : std::vector<int>{},
                    w_.warmup, w_.measure, tracer);
                host.tracedS += run.measureWallS;
                host.calls += run.enqueueCalls;
                host.rejects += run.enqueueRejects;
                host.decodeNs.push_back(run.decodeBatchNs);
                host.traceNextNs.push_back(run.traceNextBatchNs);
                std::vector<std::uint64_t> got = signature(run.stats);
                if (a_.inject == "signature" && pass == 0 && k == 0)
                    got.front() ^= 1;  // Seeded fault for the self-test.
                if (got != want) {
                    fail("traced run differs from the untraced run "
                         "(untraced " +
                         std::to_string(digest(want)) + ", traced " +
                         std::to_string(digest(got)) + ")");
                }
            } catch (const std::exception &e) {
                fail(std::string("traced run: ") + e.what());
            }
        }
    }
    addHostLayers(tracer, host);
    writeSpans(tracer);
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** gmean over mixes of WS(mech) / WS(base), as a percentage gain. */
double
gmeanGainPct(const std::vector<double> &ws, const std::vector<double> &base)
{
    std::vector<double> r;
    for (std::size_t i = 0; i < ws.size(); ++i)
        r.push_back(ws[i] / base[i]);
    return (gmean(r) - 1.0) * 100.0;
}

void
Bench::addEndToEnd()
{
    add("setup_s", "s", setupS_ * hostScale());
    add("sim_mcycles_per_s", "Mcycle/s",
        static_cast<double>(measuredCycles_) / 1e6 / measureS_ /
            hostScale());
    // The grid's resident set, sampled every RssSampler::kPeriod while
    // --jobs Systems run. The verification pass's (one checker-enabled
    // System and its command logs) is sim.check_rss_mb: it is larger,
    // but it is set by where the logs' lengths fall against the
    // allocator's growth steps, so it moves by ~15% from seed to seed.
    // The kernel's high-water mark (VmHWM) is printed beside them.
    add("peak_rss_mb", "MB", gridRssMb_);
    std::printf("resident set: sampled peak %.2f MB in the verification "
                "pass, %.2f MB in the grid; high-water mark %.2f MB\n",
                verifyRssMb_, gridRssMb_, residentMb("VmHWM:"));

    // DSARP's energy per access, access-weighted over all its runs, and
    // its read latency, merged over its runs (at the named rate when
    // open loop).
    LatencyHistogram lat;
    double nj = 0.0;
    double accesses = 0.0;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
        if (grid_[i].mech != "DSARP" || !round0Ok_[i])
            continue;
        const RunResult &r = round0_[i];
        const double acc =
            static_cast<double>(r.readsCompleted + r.writesIssued);
        nj += r.energyPerAccessNj * acc;
        accesses += acc;
        if (w_.closed || grid_[i].rate == w_.namedRate)
            lat.merge(r.readLatency);
    }
    add("energy_nj_per_access", "nJ", ratio(nj, accesses));
    add("read_p50_cyc", "cycle", lat.percentile(50.0));
    add("read_p99_cyc", "cycle", lat.percentile(99.0));
    std::printf("DSARP read latency: p50 %.1f, p99 %.1f cycles over %llu "
                "reads%s\n",
                lat.percentile(50.0), lat.percentile(99.0),
                static_cast<unsigned long long>(lat.count()),
                w_.closed ? " (all mixes)"
                          : (" at " + std::to_string(w_.namedRate) +
                             " req/kcycle, " +
                             std::to_string(w_.namedReplicas) + " seeds")
                                .c_str());
}

void
Bench::addFidelity()
{
    double wsGain = 0.0, gap = 0.0, paperErr = 0.0, capacity = 0.0;
    if (w_.closed) {
        std::map<std::string, std::vector<double>> ws;
        for (std::size_t i = 0; i < grid_.size(); ++i)
            ws[grid_[i].mech].push_back(round0Ok_[i] ? round0_[i].ws : 0.0);
        bool complete = true;
        for (std::size_t i = 0; i < grid_.size(); ++i)
            complete = complete && round0Ok_[i] && round0_[i].ws > 0.0;
        if (complete) {
            std::printf("\nTable 2, 32Gb gmean WS gain (measured vs paper, "
                        "%zu mixes)\n",
                        mixes_.size());
            for (const PaperCell &c : kTable2At32Gb) {
                const double got = gmeanGainPct(ws[c.mech], ws[c.base]);
                std::printf("  %-7s over %-6s %7.2f%%  paper %5.1f%%  "
                            "diff %+6.2f pp\n",
                            c.mech, c.base, got, c.pct, got - c.pct);
                paperErr += std::fabs(got - c.pct) /
                            static_cast<double>(std::size(kTable2At32Gb));
            }
            wsGain = gmeanGainPct(ws["DSARP"], ws["REFpb"]);
            gap = wsGain - gmeanGainPct(ws["SARPpb"], ws["REFpb"]);
        }
    } else {
        // Highest rung where DSARP meets the p99 limit with no growing
        // backlog, interpolated on p99 toward the first rung that
        // misses the limit.
        std::printf("\nDSARP rate ladder (p99 limit %.0f cycles)\n",
                    kP99LimitCycles);
        double prevRate = 0.0, prevP99 = 0.0;
        bool prevOk = false, done = false;
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            if (grid_[i].mech != "DSARP" || grid_[i].replica != 0 ||
                !round0Ok_[i])
                continue;
            const RunResult &r = round0_[i];
            const double p99 = r.readLatency.percentile(99.0);
            const TenantResult &t = r.tenants.front();
            const double behind = ratio(
                static_cast<double>(t.generated) -
                    static_cast<double>(t.injected),
                static_cast<double>(t.generated));
            const bool okRung = p99 <= kP99LimitCycles &&
                                behind <= kBacklogGrowthLimit;
            std::printf("  %4d req/kcycle  p50 %7.1f  p99 %8.1f  "
                        "backlog growth %6.3f  %s\n",
                        grid_[i].rate, r.readLatency.percentile(50.0), p99,
                        behind, okRung ? "meets" : "misses");
            const double rate = grid_[i].rate;
            if (done)
                continue;
            if (okRung) {
                capacity = rate;
            } else {
                if (prevOk && behind <= kBacklogGrowthLimit &&
                    p99 > prevP99) {
                    capacity = prevRate + (rate - prevRate) *
                                              (kP99LimitCycles - prevP99) /
                                              (p99 - prevP99);
                }
                done = true;
            }
            prevRate = rate;
            prevP99 = p99;
            prevOk = okRung;
        }
    }
    add("ws_gain_dsarp_pct", "%", wsGain);
    add("dsarp_minus_sarppb_pp", "pp", gap);
    add("paper_err_pp", "pp", paperErr);
    add("capacity_rate", "req/kcycle", capacity);
}

void
Bench::addModelLayers(
    const std::map<std::string, std::vector<ModelStats>> &byMech)
{
    double ticks = 0, rq = 0, wq = 0, wb = 0, latSum = 0, reads = 0;
    double cmds = 0, acts = 0, cols = 0, refBusy = 0, bankTicks = 0;
    double overlap = 0, ipc = 0, nCores = 0, stall = 0, cpu = 0;
    const auto it = byMech.find("DSARP");
    const std::vector<ModelStats> none;
    for (const ModelStats &s : it == byMech.end() ? none : it->second) {
        for (std::size_t ch = 0; ch < s.ctl.size(); ++ch) {
            const ControllerStats &c = s.ctl[ch];
            const ChannelStats &d = s.chan[ch];
            ticks += static_cast<double>(c.ticks);
            rq += static_cast<double>(c.readQueueOccupancySum);
            wq += static_cast<double>(c.writeQueueOccupancySum);
            wb += static_cast<double>(c.writebackModeTicks);
            latSum += static_cast<double>(c.readLatencySum);
            reads += static_cast<double>(c.readsCompleted);
            cmds += static_cast<double>(d.acts + d.reads + d.writes +
                                        d.pres + d.refAb + d.refPb +
                                        d.refSb + d.srEnter + d.srExit);
            acts += static_cast<double>(d.acts);
            cols += static_cast<double>(d.reads + d.writes);
            // The workloads keep the default geometry.
            const double banks = ExperimentConfig{}.banksPerRank;
            refBusy += static_cast<double>(d.refAbCycles) * banks +
                       static_cast<double>(d.refPbCycles);
            bankTicks += static_cast<double>(d.rankTotalTicks) * banks;
            overlap += static_cast<double>(d.refOverlapTicks);
        }
        for (const CoreStats &c : s.cores) {
            ipc += c.ipc();
            nCores += 1;
            stall += static_cast<double>(c.readStallCycles);
            cpu += static_cast<double>(c.cpuCycles);
        }
    }
    // The injector over the whole grid, where the backlog grows past
    // saturation.
    double backlog = 0, runs = 0, gen = 0, inj = 0;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
        if (!round0Ok_[i])
            continue;
        for (const TenantResult &t : round0_[i].tenants) {
            backlog += t.avgBacklog;
            runs += 1;
            gen += static_cast<double>(t.generated);
            inj += static_cast<double>(t.injected);
        }
    }
    add("controller.readq_mean", "entries", ratio(rq, ticks));
    add("controller.writeq_mean", "entries", ratio(wq, ticks));
    add("controller.wb_mode_frac", "fraction", ratio(wb, ticks));
    add("controller.read_lat_mean_cyc", "cycle", ratio(latSum, reads));
    add("core.ipc_mean", "instr/cycle", ratio(ipc, nCores));
    add("core.read_stall_frac", "fraction", ratio(stall, cpu));
    add("workload.backlog_mean", "req", ratio(backlog, runs));
    add("workload.injected_frac", "fraction", ratio(inj, gen));
    add("dram.cmd_per_cycle", "cmd/cycle", ratio(cmds, ticks));
    add("dram.row_hit_rate", "fraction",
        cols > 0.0 ? std::max(0.0, 1.0 - acts / cols) : 0.0);
    add("dram.ref_busy_frac", "fraction", ratio(refBusy, bankTicks));
    add("dram.ref_overlap_frac", "fraction", ratio(overlap, ticks));

    for (const std::string &m : kAllMechs) {
        double t = 0, issued = 0, post = 0, pulled = 0, forced = 0;
        const auto mi = byMech.find(m);
        for (const ModelStats &s : mi == byMech.end() ? none : mi->second) {
            for (std::size_t ch = 0; ch < s.ref.size(); ++ch) {
                t += static_cast<double>(s.ctl[ch].ticks);
                issued += static_cast<double>(s.ref[ch].issued);
                post += static_cast<double>(s.ref[ch].postponed);
                pulled += static_cast<double>(s.ref[ch].pulledIn);
                forced += static_cast<double>(s.ref[ch].forced);
            }
        }
        add("refresh.issued_per_kcycle." + m, "1/kcycle",
            ratio(issued * 1000.0, t));
        add("refresh.postponed_frac." + m, "fraction", ratio(post, issued));
        add("refresh.pulled_in_frac." + m, "fraction",
            ratio(pulled, issued));
        add("refresh.forced_frac." + m, "fraction", ratio(forced, issued));
    }
}

void
Bench::addHostLayers(const Tracer &tracer, const HostTrace &h)
{
    // Self times have the tracer's own cost (calibrated on empty spans)
    // taken out, and shares are of the untraced wall time of the same
    // runs, so the layers' shares need not add up to one: the rest is
    // System::run's own loop plus what the calibration misses.
    const auto &L = tracer.layers();
    const double untracedNs = h.untracedS * 1e9;
    auto self = [&](Layer l) { return tracer.correctedSelfNs(l, h.cost); };
    auto meanSelf = [&](Layer l) {
        return ratio(self(l), static_cast<double>(L[l].count));
    };
    auto share = [&](std::initializer_list<Layer> ls) {
        double s = 0.0;
        for (Layer l : ls)
            s += self(l);
        return ratio(s, untracedNs);
    };

    std::printf("\nTraced run: %.3f s traced vs %.3f s untraced "
                "(measure windows); an empty span costs %.1f ns, %.1f "
                "of them inside the span\n",
                h.tracedS, h.untracedS, h.cost.pairNs, h.cost.insideNs);
    std::printf("  %-20s %12s %10s %10s %10s %10s %9s\n", "span", "calls",
                "raw self", "self ns", "raw p50", "raw p99", "share");
    double accounted = 0.0;
    for (int l = 0; l < kNumLayers; ++l) {
        const Layer layer = static_cast<Layer>(l);
        const LayerAgg &a = L[static_cast<std::size_t>(l)];
        accounted += self(layer);
        std::printf("  %-20s %12llu %10.1f %10.1f %10.0f %10.0f %8.2f%%\n",
                    layerName(layer),
                    static_cast<unsigned long long>(a.count),
                    ratio(a.selfNs, static_cast<double>(a.count)),
                    meanSelf(layer), a.selfHist.percentile(50.0),
                    a.selfHist.percentile(99.0), 100.0 * share({layer}));
    }
    const double loop = 1.0 - ratio(accounted, untracedNs);
    std::printf("  layer self times = %.2f%% of the untraced wall; the "
                "other %.2f%% is the tick loop and uncorrected tracer "
                "cost\n",
                100.0 * (1.0 - loop), 100.0 * loop);
    const double decodeNs = median(h.decodeNs);
    const double nextNs = median(h.traceNextNs);
    std::printf("  batch timings (untraced, tight loop): decode %.2f ns, "
                "trace next %.2f ns\n",
                decodeNs, nextNs);

    add("controller.tick_ns", "ns", meanSelf(kControllerTick));
    add("controller.tick_share", "fraction", share({kControllerTick}));
    add("controller.enqueue_ns", "ns", meanSelf(kEnqueue));
    add("controller.enqueue_reject_frac", "fraction",
        ratio(static_cast<double>(h.rejects), static_cast<double>(h.calls)));
    add("core.tick_self_ns", "ns", meanSelf(kCoreTick));
    add("core.trace_next_ns", "ns", nextNs);
    add("core.tick_share", "fraction",
        share({kCoreTick, kTraceNext, kReadComplete}));
    add("workload.inject_self_ns", "ns", meanSelf(kInjectorTick));
    add("workload.inject_share", "fraction", share({kInjectorTick}));
    add("dram.decode_ns", "ns", decodeNs);
    add("sim.loop_share", "fraction", loop);
    add("sim.trace_overhead_pct", "%",
        (ratio(h.tracedS, h.untracedS) - 1) * 100);
    add("sim.setup.alone_s", "s", aloneS_);
    add("sim.setup.build_ms", "ms", buildMs_);
    add("sim.check_s", "s", checkS_);
    add("sim.check_rss_mb", "MB", verifyRssMb_);
}

void
Bench::writeSpans(const Tracer &tracer) const
{
    if (a_.spansOut.empty())
        return;
    std::ofstream out(a_.spansOut);
    out << "{\"workload\": \"" << w_.name << "\", \"layers\": {";
    for (int l = 0; l < kNumLayers; ++l) {
        const LayerAgg &a = tracer.layers()[static_cast<std::size_t>(l)];
        out << (l ? ", " : "") << "\"" << layerName(static_cast<Layer>(l))
            << "\": {\"count\": " << a.count << ", \"total_ns\": "
            << a.totalNs << ", \"self_ns\": " << a.selfNs
            << ", \"self_p50_ns\": " << a.selfHist.percentile(50.0)
            << ", \"self_p99_ns\": " << a.selfHist.percentile(99.0) << "}";
    }
    out << "}, \"span_fields\": [\"name\", \"parent\", \"start_ns\", "
           "\"end_ns\"], \"spans\": [";
    const auto &raw = tracer.raw();
    for (std::size_t i = 0; i < raw.size(); ++i) {
        out << (i ? ",\n" : "\n") << "[\"" << layerName(raw[i].layer)
            << "\", " << raw[i].parent << ", " << raw[i].startNs << ", "
            << raw[i].endNs << "]";
    }
    out << "]}\n";
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

void
Bench::finish()
{
    // run.py takes the median of the raw set-up times of several
    // processes and scales it with this run's host_scale.
    add("setup_raw_s", "s", setupS_);
    if (!a_.setupOnly) {
        // run.py keeps the metrics BENCHMARK.json lists for the mode.
        addEndToEnd();
        addFidelity();
        add("host_scale", "ratio", hostScale());
        add("sim_raw_mcycles_per_s", "Mcycle/s",
            static_cast<double>(measuredCycles_) / 1e6 / measureS_);
    }
    add("fail_frac", "fraction",
        ratio(static_cast<double>(failed_.load()),
              static_cast<double>(attempted_.load())));

    std::printf("\nset-up %.3f s (alone baselines %.3f s, build %.1f ms); "
                "verification %.3f s\n",
                setupS_, aloneS_, buildMs_, checkS_);
    if (!a_.setupOnly) {
        std::printf("measured %llu runs, %.1f Mcycles in %.3f s per "
                    "worker thread, median probe slice %.4f s; host "
                    "times below are scaled to a %.4f s slice\n",
                    static_cast<unsigned long long>(measuredRuns_),
                    static_cast<double>(measuredCycles_) / 1e6, measureS_,
                    measureProbeS_, kProbeRefS);
    }
    if (!round0_.empty()) {
        // Equal digests across runs of one seed mean bit-identical
        // model results.
        std::vector<std::uint64_t> all;
        for (std::size_t i = 0; i < round0_.size(); ++i) {
            const std::vector<std::uint64_t> sig =
                resultSignature(round0_[i]);
            all.insert(all.end(), sig.begin(), sig.end());
            std::uint64_t ws = 0;
            std::memcpy(&ws, &round0_[i].ws, sizeof(ws));
            all.push_back(ws);
            all.push_back(round0Ok_[i]);
        }
        std::printf("model digest %016llx over %zu grid runs\n",
                    static_cast<unsigned long long>(digest(all)),
                    round0_.size());
    }
    std::printf("runs attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(attempted_.load()),
                static_cast<unsigned long long>(failed_.load()));
    for (std::size_t i = 0; i < failures_.size() && i < 10; ++i)
        std::printf("  FAIL %s\n", failures_[i].c_str());
    std::printf("\n");
    for (const Metric &m : metrics_)
        std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(attempted_.load()),
                static_cast<unsigned long long>(failed_.load()));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
}

// ---------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --jobs N [--setup-only] "
                 "[--scale F] [--inject signature|violation] "
                 "[--spans FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--jobs")
                a.jobs = std::stoi(v);
            else if (k == "--scale")
                a.scale = std::stod(v);
            else if (k == "--inject")
                a.inject = v;
            else if (k == "--spans")
                a.spansOut = v;
            else
                usage(("unknown option " + k).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + k + ": " + v).c_str());
        }
    }
    if (a.jobs < 1 || a.seconds <= 0.0 || a.scale <= 0.0)
        usage("--jobs, --seconds and --scale must be positive");
    if (!a.inject.empty() && a.inject != "signature" &&
        a.inject != "violation")
        usage("--inject takes signature or violation");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench_driver: refusing an unoptimised build "
                         "(configure with CMAKE_BUILD_TYPE=Release)\n");
    return 2;
#endif
    const Args args = parseArgs(argc, argv);
    WorkloadDef w;
    if (!findWorkload(args.workload, w))
        usage(("unknown workload '" + args.workload + "'").c_str());
    setFatalHandler(&fatalToException);

    std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"hardware_concurrency\": %u, \"jobs\": %d, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"default_engine\": \"%s\"}}\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                std::thread::hardware_concurrency(), args.jobs,
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                ExperimentConfig{}.engine.c_str());

    Bench bench(args, w);
    bench.setup();
    if (args.setupOnly) {
        bench.finish();
        return 0;
    }
    bench.verify();
    bench.runGrid(!args.trace);
    if (args.trace)
        bench.trace();
    bench.finish();
    return bench.ok() ? 0 : 1;
}

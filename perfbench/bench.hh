/**
 * @file
 * Shared pieces of the repository benchmark driver: the flattened model
 * statistics of one run (compared bit for bit between the untraced and
 * traced paths), and the span tracer plus the traced system replica
 * that times each layer from outside through its public interface.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "controller/controller.hh"
#include "core/core.hh"
#include "sim/system.hh"
#include "workload/arrival.hh"

namespace perfbench {

using dsarp::Tick;

/** Every model statistic one run produces, per component. */
struct ModelStats
{
    std::vector<dsarp::ControllerStats> ctl;
    std::vector<dsarp::ChannelStats> chan;
    std::vector<dsarp::RefreshSchedStats> ref;
    std::vector<dsarp::CoreStats> cores;
    std::vector<dsarp::TrafficInjector::TenantStats> tenants;
    std::vector<dsarp::LatencyHistogram> tenantLat;
};

/** Statistics of a dsarp::System after its measurement window. */
ModelStats snapshot(const dsarp::System &sys);

/** All fields of @p s as integers (doubles by bit pattern), in a fixed
 *  order; two runs agree exactly iff their signatures are equal. */
std::vector<std::uint64_t> signature(const ModelStats &s);

/** FNV-1a digest of a signature, for printing. */
std::uint64_t digest(const std::vector<std::uint64_t> &sig);

/** The layer boundaries the traced run times. */
enum Layer : std::uint8_t
{
    kControllerTick,  ///< ChannelController::tick (refresh + FR-FCFS + DRAM)
    kInjectorTick,    ///< TrafficInjector::tick
    kCoreTick,        ///< Core::tick
    kTraceNext,       ///< TraceSource::next (SyntheticTrace)
    kDecode,          ///< AddressMap::decode in the enqueue hooks
    kEnqueue,         ///< ChannelController::enqueueRead/Write
    kReadComplete,    ///< Core::onReadComplete from the read callback
    kNumLayers
};

const char *layerName(Layer l);

/** One recorded span; times in ns from the tracer's origin. */
struct RawSpan
{
    Layer layer;
    std::int32_t parent;  ///< Index into the raw sample, -1 for a root.
    std::uint64_t startNs;
    std::uint64_t endNs;
};

/** Per-layer aggregate: call count, direct child spans, total and self
 *  time, self-time distribution. */
struct LayerAgg
{
    std::uint64_t count = 0;
    std::uint64_t children = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
    dsarp::LatencyHistogram selfHist;  ///< Self time per call, ns.
};

/**
 * The tracer's own cost per span, measured on empty spans. A span's
 * measured duration includes @c insideNs of it; each of its direct
 * children adds @c pairNs - @c insideNs more to its self time.
 */
struct SpanCost
{
    double insideNs = 0.0;
    double pairNs = 0.0;
};

/**
 * Nested span recorder. begin()/end() must pair in LIFO order (the
 * layers call each other synchronously). Self time is a span's
 * duration minus the durations of its direct children;
 * correctedSelfNs() also takes out the tracer's own cost. Aggregates
 * accumulate only while enabled; a bounded sample of raw spans (every
 * span of one tick in kSampleEvery) is kept for export.
 */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;
    static constexpr std::size_t kMaxRaw = 1 << 15;
    static constexpr Tick kSampleEvery = 512;

    Tracer() : origin_(Clock::now()) {}

    void setEnabled(bool on) { enabled_ = on; }
    void setTick(Tick t) { sampling_ = enabled_ && t % kSampleEvery == 0; }

    void
    begin(Layer l)
    {
        if (!enabled_)
            return;
        if (!stack_.empty())
            ++stack_.back().children;
        stack_.push_back({l, Clock::now(), 0.0, -1, 0});
        if (sampling_ && raw_.size() < kMaxRaw) {
            stack_.back().raw = static_cast<std::int32_t>(raw_.size());
            raw_.push_back({l, rawParent(), 0, 0});
        }
    }

    void end();

    const std::array<LayerAgg, kNumLayers> &layers() const { return agg_; }
    const std::vector<RawSpan> &raw() const { return raw_; }

    /** Self time of layer @p l with the tracer's own cost taken out. */
    double
    correctedSelfNs(Layer l, const SpanCost &c) const
    {
        const LayerAgg &a = agg_[l];
        return std::max(0.0, a.selfNs -
                                 static_cast<double>(a.count) * c.insideNs -
                                 static_cast<double>(a.children) *
                                     (c.pairNs - c.insideNs));
    }

  private:
    struct Open
    {
        Layer layer;
        Clock::time_point start;
        double childNs;
        std::int32_t raw;
        std::uint32_t children;
    };

    std::int32_t
    rawParent() const
    {
        return stack_.size() >= 2 ? stack_[stack_.size() - 2].raw : -1;
    }

    Clock::time_point origin_;
    bool enabled_ = false;
    bool sampling_ = false;
    std::vector<Open> stack_;
    std::array<LayerAgg, kNumLayers> agg_{};
    std::vector<RawSpan> raw_;
};

/** The cost of an empty span, the median over a few batches (run on
 *  the thread that traces). */
SpanCost calibrateSpans();

/** Result of one traced run. */
struct TracedRun
{
    ModelStats stats;
    double measureWallS = 0.0;  ///< Host seconds of the measure window.
    std::uint64_t enqueueCalls = 0;
    std::uint64_t enqueueRejects = 0;
    /** Untraced batch timings of the calls too short for a span:
     *  AddressMap::decode over the addresses the run sent, and
     *  SyntheticTrace::next on fresh copies of the cores' traces
     *  (0 without cores). ns per call. */
    double decodeBatchNs = 0.0;
    double traceNextBatchNs = 0.0;
};

/**
 * Rebuild the system of @p cfg from its public layer classes and run
 * it in System::runCycle's order, timing every layer call into
 * @p tracer during the measure window. Closed-loop when @p benchIdx is
 * non-empty (one catalogue benchmark per core), open-loop otherwise.
 */
TracedRun runTraced(const dsarp::SystemConfig &cfg,
                    const std::vector<int> &benchIdx, Tick warmup,
                    Tick measure, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

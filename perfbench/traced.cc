#include <algorithm>
#include <atomic>
#include <cstring>

#include "bench.hh"
#include "core/trace.hh"
#include "dram/address.hh"
#include "dram/timing.hh"
#include "refresh/registry.hh"
#include "workload/benchmark.hh"

namespace perfbench {

using namespace dsarp;

const char *
layerName(Layer l)
{
    switch (l) {
    case kControllerTick: return "controller.tick";
    case kInjectorTick: return "workload.inject";
    case kCoreTick: return "core.tick";
    case kTraceNext: return "core.trace_next";
    case kDecode: return "dram.decode";
    case kEnqueue: return "controller.enqueue";
    case kReadComplete: return "core.read_complete";
    case kNumLayers: break;
    }
    return "?";
}

void
Tracer::end()
{
    if (!enabled_)
        return;
    const Clock::time_point now = Clock::now();
    const Open open = stack_.back();
    stack_.pop_back();
    const double dur =
        std::chrono::duration<double, std::nano>(now - open.start).count();
    const double self = std::max(0.0, dur - open.childNs);
    LayerAgg &a = agg_[open.layer];
    ++a.count;
    a.children += open.children;
    a.totalNs += dur;
    a.selfNs += self;
    a.selfHist.add(static_cast<std::uint64_t>(self));
    if (!stack_.empty())
        stack_.back().childNs += dur;
    if (open.raw >= 0) {
        RawSpan &r = raw_[static_cast<std::size_t>(open.raw)];
        r.startNs = static_cast<std::uint64_t>(
            std::chrono::duration<double, std::nano>(open.start - origin_)
                .count());
        r.endNs = static_cast<std::uint64_t>(
            std::chrono::duration<double, std::nano>(now - origin_)
                .count());
    }
}

SpanCost
calibrateSpans()
{
    constexpr int kBatches = 5;
    constexpr int kPairs = 100000;
    std::vector<double> inside, pair;
    for (int b = 0; b < kBatches; ++b) {
        Tracer t;
        t.setEnabled(true);
        const auto t0 = Tracer::Clock::now();
        for (int i = 0; i < kPairs; ++i) {
            t.begin(kDecode);
            t.end();
        }
        const double wallNs = std::chrono::duration<double, std::nano>(
                                  Tracer::Clock::now() - t0)
                                  .count();
        pair.push_back(wallNs / kPairs);
        inside.push_back(t.layers()[kDecode].totalNs / kPairs);
    }
    std::sort(inside.begin(), inside.end());
    std::sort(pair.begin(), pair.end());
    return {inside[kBatches / 2], pair[kBatches / 2]};
}

ModelStats
snapshot(const System &sys)
{
    ModelStats s;
    for (int ch = 0; ch < sys.numChannels(); ++ch) {
        const ChannelController &ctl = sys.controller(ch);
        s.ctl.push_back(ctl.stats());
        s.chan.push_back(ctl.dram().stats());
        s.ref.push_back(ctl.refreshStats());
    }
    for (int c = 0; c < sys.numCores(); ++c)
        s.cores.push_back(sys.core(c).stats());
    if (const TrafficInjector *inj = sys.injector()) {
        for (int t = 0; t < inj->tenants(); ++t) {
            s.tenants.push_back(inj->tenantStats(t));
            s.tenantLat.push_back(sys.tenantLatency(t));
        }
    }
    return s;
}

namespace {

void
pushDouble(std::vector<std::uint64_t> &out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    out.push_back(bits);
}

void
pushHist(std::vector<std::uint64_t> &out, const LatencyHistogram &h)
{
    out.push_back(h.count());
    out.push_back(h.min());
    out.push_back(h.max());
    pushDouble(out, h.mean());
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
        if (h.bucket(i) != 0) {
            out.push_back(static_cast<std::uint64_t>(i));
            out.push_back(h.bucket(i));
        }
    }
}

} // namespace

std::vector<std::uint64_t>
signature(const ModelStats &s)
{
    std::vector<std::uint64_t> out;
    for (const ControllerStats &c : s.ctl) {
        out.insert(out.end(),
                   {c.readsEnqueued, c.writesEnqueued, c.readsCompleted,
                    c.writesIssued, c.readLatencySum, c.forwardedReads,
                    c.writebackModeTicks, c.ticks, c.readQueueOccupancySum,
                    c.writeQueueOccupancySum});
        pushHist(out, c.readLatency);
    }
    for (const ChannelStats &c : s.chan) {
        out.insert(out.end(),
                   {c.acts, c.reads, c.writes, c.pres, c.refAb, c.refPb,
                    c.refSb, c.refPbHidden, c.refAbCycles, c.refPbCycles,
                    c.refSbCycles, c.rankActiveTicks, c.rankTotalTicks,
                    c.srEnter, c.srExit, c.srTicks, c.refOverlapTicks});
    }
    for (const RefreshSchedStats &r : s.ref)
        out.insert(out.end(), {r.postponed, r.pulledIn, r.forced, r.issued});
    for (const CoreStats &c : s.cores) {
        out.insert(out.end(),
                   {c.instructionsRetired, c.cpuCycles, c.readsIssued,
                    c.writebacksIssued, c.readStallCycles});
    }
    for (const TrafficInjector::TenantStats &t : s.tenants) {
        out.insert(out.end(), {t.generated, t.injected, t.reads,
                               t.backlogSum, t.ticks});
    }
    for (const LatencyHistogram &h : s.tenantLat)
        pushHist(out, h);
    return out;
}

std::uint64_t
digest(const std::vector<std::uint64_t> &sig)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t w : sig) {
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

namespace {

/** RAII span. */
class Span
{
  public:
    Span(Tracer &t, Layer l) : t_(t) { t_.begin(l); }
    ~Span() { t_.end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
};

/** Times every record fetch of the trace it wraps. */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(TraceSource &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    TraceRecord
    next() override
    {
        const Span span(tracer_, kTraceNext);
        return inner_.next();
    }

  private:
    TraceSource &inner_;
    Tracer &tracer_;
};

/**
 * The components System builds, wired the way System::build() wires
 * them for the cycle engine, with a span around every layer call. The
 * seeds, construction order, hook bodies and tick order follow
 * sim/system.cc, so the model statistics match a System run exactly.
 */
class TracedSystem
{
  public:
    TracedSystem(const SystemConfig &cfg, const std::vector<int> &benchIdx,
                 Tracer &tracer, TracedRun &out)
        : cfg_(cfg), benchIdx_(benchIdx), tracer_(tracer), out_(out)
    {
        RefreshPolicyRegistry::instance().resolve(cfg_.mem);
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_.mem);
        map_ = AddressMapRegistry::instance().make(cfg_.mem.addressMap,
                                                   cfg_.mem.org);

        const bool openLoop = cfg_.traffic.enabled();
        const auto &table = benchmarkTable();
        if (!openLoop) {
            for (int c = 0; c < cfg_.numCores; ++c) {
                traces_.push_back(std::make_unique<SyntheticTrace>(
                    table[static_cast<std::size_t>(benchIdx[c])].profile,
                    *map_, c, partitions(), cfg_.seed + 0x1000 * (c + 1)));
                timed_.push_back(
                    std::make_unique<TimedTrace>(*traces_.back(), tracer_));
            }
        } else {
            tenantLat_.resize(static_cast<std::size_t>(cfg_.traffic.tenants));
        }

        refBusyUntil_.assign(cfg_.mem.org.channels, 0);
        for (ChannelId ch = 0; ch < cfg_.mem.org.channels; ++ch) {
            ctls_.push_back(std::make_unique<ChannelController>(
                ch, &cfg_.mem, &timing_, cfg_.seed));
            ctls_.back()->channel().setRefreshSpanCallback(
                [this, ch](Tick start, Tick end) {
                    onRefreshSpan(ch, start, end);
                });
            if (openLoop) {
                ctls_.back()->setReadCallback(
                    [this](const Request &req, Tick done) {
                        tenantLat_[static_cast<std::size_t>(req.core)].add(
                            done - req.arrival);
                    });
            } else {
                ctls_.back()->setReadCallback(
                    [this](const Request &req, Tick) {
                        const Span span(tracer_, kReadComplete);
                        cores_[static_cast<std::size_t>(req.core)]
                            ->onReadComplete(req.id);
                    });
            }
        }

        if (openLoop) {
            injector_ = std::make_unique<TrafficInjector>(cfg_.traffic,
                                                          *map_, cfg_.seed);
            injector_->bind(
                [this](const Request &r) { return send(r, false); },
                [this](const Request &r) { return send(r, true); });
            return;
        }
        for (int c = 0; c < cfg_.numCores; ++c) {
            cores_.push_back(std::make_unique<Core>(
                c, &cfg_.core, timed_[static_cast<std::size_t>(c)].get()));
            cores_.back()->bind(
                [this, c](std::uint64_t id, Addr addr) {
                    Request req;
                    req.id = id;
                    req.core = c;
                    req.isWrite = false;
                    req.addr = addr;
                    return send(req, false);
                },
                [this, c](Addr addr) {
                    Request req;
                    req.id = 0;
                    req.core = c;
                    req.isWrite = true;
                    req.addr = addr;
                    return send(req, true);
                });
        }
    }

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    void
    run(Tick ticks)
    {
        const Tick end = now_ + ticks;
        while (now_ < end) {
            tracer_.setTick(now_);
            for (auto &ctl : ctls_) {
                const Span span(tracer_, kControllerTick);
                ctl->tick(now_);
            }
            if (injector_) {
                const Span span(tracer_, kInjectorTick);
                injector_->tick(now_);
            }
            for (auto &core : cores_) {
                const Span span(tracer_, kCoreTick);
                core->tick();
            }
            ++now_;
        }
    }

    void
    resetStats()
    {
        for (auto &core : cores_)
            core->resetStats();
        if (injector_)
            injector_->resetStats();
        for (auto &hist : tenantLat_)
            hist.reset();
        for (auto &ctl : ctls_)
            ctl->resetStats();
    }

    ModelStats
    stats() const
    {
        ModelStats s;
        for (const auto &ctl : ctls_) {
            s.ctl.push_back(ctl->stats());
            s.chan.push_back(ctl->dram().stats());
            s.ref.push_back(ctl->refreshStats());
        }
        for (const auto &core : cores_)
            s.cores.push_back(core->stats());
        if (injector_) {
            for (int t = 0; t < injector_->tenants(); ++t) {
                s.tenants.push_back(injector_->tenantStats(t));
                s.tenantLat.push_back(
                    tenantLat_[static_cast<std::size_t>(t)]);
            }
        }
        return s;
    }

    /** Mean ns of AddressMap::decode over the addresses sent. */
    double
    decodeBatchNs() const
    {
        if (addrs_.empty())
            return 0.0;
        constexpr int kReps = 4;
        std::uint64_t sink = 0;
        const auto t0 = Tracer::Clock::now();
        for (int rep = 0; rep < kReps; ++rep) {
            for (Addr a : addrs_) {
                const DecodedAddr d = map_->decode(a);
                sink += d.row + static_cast<std::uint64_t>(d.column) +
                        d.bank + d.channel;
            }
        }
        const double ns = std::chrono::duration<double, std::nano>(
                              Tracer::Clock::now() - t0)
                              .count();
        publish(sink);
        return ns / (kReps * static_cast<double>(addrs_.size()));
    }

    /** Mean ns of SyntheticTrace::next on fresh copies of the cores'
     *  traces (same profile and seed), 0 without cores. */
    double
    traceNextBatchNs() const
    {
        if (traces_.empty())
            return 0.0;
        constexpr int kNexts = 20000;
        const auto &table = benchmarkTable();
        std::uint64_t sink = 0;
        double ns = 0.0;
        for (int c = 0; c < cfg_.numCores; ++c) {
            SyntheticTrace trace(
                table[static_cast<std::size_t>(benchIdx_[c])].profile,
                *map_, c, partitions(), cfg_.seed + 0x1000 * (c + 1));
            const auto t0 = Tracer::Clock::now();
            for (int i = 0; i < kNexts; ++i) {
                const TraceRecord r = trace.next();
                sink += r.readAddr + static_cast<std::uint64_t>(r.gap);
            }
            ns += std::chrono::duration<double, std::nano>(
                      Tracer::Clock::now() - t0)
                      .count();
        }
        publish(sink);
        return ns / (static_cast<double>(kNexts) * cfg_.numCores);
    }

  private:
    static constexpr std::size_t kMaxAddrs = 1 << 16;

    int partitions() const { return std::max(8, cfg_.numCores); }

    /** Keeps a batch loop's results live. */
    static void
    publish(std::uint64_t v)
    {
        static std::atomic<std::uint64_t> sink{0};
        sink.fetch_xor(v, std::memory_order_relaxed);
    }

    /** The body of System's enqueue hooks: decode, then enqueue. The
     *  open-loop injector pre-sets arrival; the cores' hooks stamp it. */
    bool
    send(Request req, bool write)
    {
        if (addrs_.size() < kMaxAddrs)
            addrs_.push_back(req.addr);
        {
            const Span span(tracer_, kDecode);
            req.loc = map_->decode(req.addr);
        }
        if (!injector_)
            req.arrival = now_;
        ChannelController &ctl =
            *ctls_[static_cast<std::size_t>(req.loc.channel)];
        bool ok = false;
        {
            const Span span(tracer_, kEnqueue);
            ok = write ? ctl.enqueueWrite(req, now_)
                       : ctl.enqueueRead(req, now_);
        }
        ++out_.enqueueCalls;
        if (!ok)
            ++out_.enqueueRejects;
        return ok;
    }

    /** Cross-channel refresh-overlap billing, as System::onRefreshSpan. */
    void
    onRefreshSpan(ChannelId ch, Tick start, Tick end)
    {
        const std::size_t c = static_cast<std::size_t>(ch);
        if (end <= refBusyUntil_[c])
            return;
        const Tick s = std::max(start, refBusyUntil_[c]);
        Tick others = 0;
        for (std::size_t o = 0; o < refBusyUntil_.size(); ++o) {
            if (o != c)
                others = std::max(others, refBusyUntil_[o]);
        }
        if (others > s)
            ctls_[c]->channel().addRefOverlapTicks(std::min(end, others) -
                                                    s);
        refBusyUntil_[c] = end;
    }

    SystemConfig cfg_;
    std::vector<int> benchIdx_;
    Tracer &tracer_;
    TracedRun &out_;
    TimingParams timing_;
    std::unique_ptr<AddressMap> map_;
    Tick now_ = 0;
    std::vector<std::unique_ptr<SyntheticTrace>> traces_;
    std::vector<std::unique_ptr<TimedTrace>> timed_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<TrafficInjector> injector_;
    std::vector<LatencyHistogram> tenantLat_;
    std::vector<std::unique_ptr<ChannelController>> ctls_;
    std::vector<Tick> refBusyUntil_;
    std::vector<Addr> addrs_;  ///< The first kMaxAddrs addresses sent.
};

} // namespace

TracedRun
runTraced(const SystemConfig &cfg, const std::vector<int> &benchIdx,
          Tick warmup, Tick measure, Tracer &tracer)
{
    TracedRun out;
    TracedSystem sys(cfg, benchIdx, tracer, out);
    sys.run(warmup);
    sys.resetStats();
    out.enqueueCalls = 0;
    out.enqueueRejects = 0;
    tracer.setEnabled(true);
    const auto t0 = Tracer::Clock::now();
    sys.run(measure);
    out.measureWallS =
        std::chrono::duration<double>(Tracer::Clock::now() - t0).count();
    tracer.setEnabled(false);
    out.stats = sys.stats();
    out.decodeBatchNs = sys.decodeBatchNs();
    out.traceNextBatchNs = sys.traceNextBatchNs();
    return out;
}

} // namespace perfbench

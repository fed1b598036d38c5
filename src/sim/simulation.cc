#include "sim/simulation.hh"

#include "common/log.hh"
#include "dram/address.hh"
#include "sim/config_keys.hh"
#include "refresh/registry.hh"
#include "sim/parallel.hh"

namespace dsarp {

Simulation::Builder &
Simulation::Builder::config(const ExperimentConfig &cfg)
{
    cfg_ = cfg;
    return *this;
}

Simulation::Builder &
Simulation::Builder::set(const std::string &key, const std::string &value)
{
    cfg_.set(key, value);
    return *this;
}

Simulation::Builder &
Simulation::Builder::apply(const std::string &assignment)
{
    cfg_.applyOverride(assignment);
    return *this;
}

Simulation::Builder &
Simulation::Builder::configFile(const std::string &path)
{
    cfg_.applyFile(path);
    return *this;
}

Simulation::Builder &
Simulation::Builder::env()
{
    cfg_.applyEnv();
    return *this;
}

Simulation::Builder &
Simulation::Builder::workload(const Workload &w)
{
    haveWorkload_ = true;
    workload_ = w;
    return *this;
}

Simulation::Builder &
Simulation::Builder::traces(const std::vector<TraceSource *> &sources)
{
    traces_ = sources;
    return *this;
}

Simulation
Simulation::Builder::build()
{
    const std::string errors = cfg_.validate();
    if (!errors.empty())
        DSARP_FATALF("invalid experiment: %s", errors.c_str());

    if (cfg_.traffic.enabled()) {
        if (haveWorkload_ || !traces_.empty()) {
            DSARP_FATALF("Simulation: workload()/traces() are mutually "
                         "exclusive with config key '%s'=%s",
                         keys::kTrafficMode, cfg_.traffic.mode.c_str());
        }
        return Simulation(cfg_, Workload{}, {});
    }

    if (!traces_.empty()) {
        if (haveWorkload_)
            DSARP_FATAL("Simulation: workload() and traces() are "
                        "mutually exclusive");
        if (static_cast<int>(traces_.size()) != cfg_.numCores) {
            DSARP_FATALF("Simulation: %zu trace sources for config key "
                         "'numCores'=%d; need exactly one per core",
                         traces_.size(), cfg_.numCores);
        }
        return Simulation(cfg_, Workload{}, traces_);
    }

    Workload workload = workload_;
    if (haveWorkload_) {
        if (static_cast<int>(workload.benchIdx.size()) != cfg_.numCores) {
            DSARP_FATALF("Simulation: workload has %zu benchmarks for "
                         "config key 'numCores'=%d",
                         workload.benchIdx.size(), cfg_.numCores);
        }
    } else {
        // One mix per category; pick the requested intensity.
        for (const Workload &w :
             makeWorkloads(1, cfg_.numCores, cfg_.workloadSeed)) {
            if (w.categoryPct == cfg_.intensityPct)
                workload = w;
        }
    }
    return Simulation(cfg_, workload, {});
}

const std::string &
Simulation::dramSpecName() const
{
    return spec_->name;
}

Simulation::Simulation(ExperimentConfig cfg, Workload workload,
                       std::vector<TraceSource *> traces)
    : cfg_(std::move(cfg)),
      spec_(&DramSpecRegistry::instance().at(cfg_.dramSpec)),
      workload_(std::move(workload)), traces_(std::move(traces)),
      runner_(cfg_.warmupCycles > 0
                  ? cfg_.warmupCycles
                  : envKnob("DSARP_BENCH_WARMUP", 30000),
              cfg_.measureCycles > 0
                  ? cfg_.measureCycles
                  : envKnob("DSARP_BENCH_CYCLES", 250000))
{
    // Canonicalise so config() and every SystemConfig projected from
    // it carry the registry spelling, not the user's alias/case.
    cfg_.dramSpec = spec_->name;
    cfg_.addressMap =
        AddressMapRegistry::instance().at(cfg_.addressMap).name;
}

MemOrg
Simulation::resolvedOrg() const
{
    SystemConfig sys = cfg_.toSystemConfig();
    RefreshPolicyRegistry::instance().resolve(sys.mem);
    sys.mem.finalize();
    return sys.mem.org;
}

RunResult
Simulation::run()
{
    const SystemConfig sys = cfg_.toSystemConfig();
    if (cfg_.traffic.enabled())
        return runner_.runTraffic(sys);
    if (!traces_.empty())
        return runner_.run(sys, traces_);
    return runner_.run(sys, workload_);
}

void
Simulation::prewarmBaselines(int jobs)
{
    // Traffic runs have no cores, so no alone-IPC baseline to warm.
    if (cfg_.traffic.enabled() || !traces_.empty())
        return;
    const SystemConfig sys = cfg_.toSystemConfig();
    parallelFor(jobs, workload_.benchIdx.size(), [&](std::size_t i) {
        runner_.aloneIpc(workload_.benchIdx[i], sys);
    });
}

} // namespace dsarp

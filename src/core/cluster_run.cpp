#include "core/cluster_run.hpp"

#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "sim/random.hpp"

namespace lmas::core {

namespace {

/// Every workload divides by the node counts and the record size.
const asu::MachineParams& checked(const asu::MachineParams& machine) {
  if (machine.num_hosts == 0 || machine.num_asus == 0) {
    throw std::invalid_argument(
        "MachineParams: need at least one host and one ASU (got " +
        std::to_string(machine.num_hosts) + " hosts, " +
        std::to_string(machine.num_asus) + " ASUs)");
  }
  if (machine.record_bytes == 0) {
    throw std::invalid_argument("MachineParams.record_bytes must be >= 1");
  }
  return machine;
}

}  // namespace

ClusterRun::ClusterRun(const asu::MachineParams& machine,
                       std::string trace_file)
    : trace_file_(std::move(trace_file)), cluster_(eng_, checked(machine)) {
  if (!trace_file_.empty()) eng_.tracer().enable();
}

ClusterRun::~ClusterRun() = default;

void ClusterRun::start(const fault::FaultPlan& faults, std::uint64_t seed,
                       const LoadManagerConfig& lm, bool stop_when_idle) {
  if (!faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        cluster_, faults, sim::Rng(seed).stream(sim::stream_id("faults")));
    eng_.spawn(injector_->run(), "fault-injector");
  }
  if (lm.mode == LoadManagerMode::Off) return;
  monitor_ = std::make_unique<LoadMonitor>(cluster_, lm.period);
  if (lm.mode == LoadManagerMode::Manage) {
    manager_ = std::make_unique<LoadManager>(eng_, lm);
    monitor_->set_observer(
        [m = manager_.get()](const LoadSample& s) { m->on_sample(s); });
  }
  monitor_->start(stop_when_idle);
}

void ClusterRun::finish(RunReport& rep, bool latency_summaries) {
  if (manager_) {
    rep.lm_managed = true;
    rep.lm_migrations = manager_->migrations();
    rep.lm_router_switches = manager_->router_switches();
    rep.lm_events = manager_->events();
    rep.lm_decisions = manager_->decisions();
  }
  rep.metrics = eng_.metrics().snapshot();
  if (latency_summaries) rep.histograms = eng_.metrics().latency_summaries();
  rep.sim_events = eng_.events_processed();
  rep.digest = eng_.digest();
  if (!trace_file_.empty()) eng_.tracer().write_chrome_trace(trace_file_);
}

void lm_blocks_to_json(obs::Json& j, const RunReport& rep) {
  obs::Json lm_events = obs::Json::array();
  for (const auto& e : rep.lm_events) {
    obs::Json entry = obs::Json::object();
    entry["time"] = e.time;
    entry["what"] = e.what;
    lm_events.push_back(std::move(entry));
  }
  j["lm_events"] = std::move(lm_events);
  // The placer decision journal is present iff the run constructed a
  // manager (config-driven: mode == Manage), so serial and parallel
  // sweeps emit identically shaped artifacts.
  if (rep.lm_managed) {
    obs::Json placer = obs::Json::array();
    for (const auto& d : rep.lm_decisions) {
      obs::Json entry = obs::Json::object();
      entry["time"] = d.time;
      entry["client"] = d.client;
      entry["instance"] = d.instance;
      entry["from"] = d.from;
      entry["to"] = d.to;
      entry["mode"] = std::string(migration_mode_name(d.mode));
      entry["bytes"] = d.bytes;
      entry["est_stall_seconds"] = d.est_stall;
      entry["gain_seconds"] = d.gain;
      placer.push_back(std::move(entry));
    }
    j["placer"] = std::move(placer);
  }
}

}  // namespace lmas::core

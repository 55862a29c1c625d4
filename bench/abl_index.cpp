/// Ablation J — two-level distributed B+-tree maintenance (Section 4.2):
/// the host layer serves the upper levels online while lower-level
/// maintenance runs at the ASUs either per-operation (online random I/O)
/// or as shipped batch jobs. Batching amortizes the storage-side I/O and
/// leaves more ASU capacity for lookups. Writes BENCH_abl_index.json:
/// one row per (insert ratio, mode) cell; ok iff every lookup matched the
/// oracle and every final tree holds every insert.

#include <cstdio>

#include "bench_json.hpp"
#include "core/core.hpp"
#include "obs/report.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace obs = lmas::obs;

int main() {
  asu::MachineParams mp;
  mp.num_hosts = 1;
  mp.num_asus = 8;

  std::printf("# Ablation J: distributed B+-tree maintenance, online vs "
              "batched (8 ASUs, 100k initial keys)\n");
  std::printf("%-14s %-9s %10s %14s %10s %8s\n", "insert ratio", "mode",
              "makespan", "lookup lat(us)", "inserts", "batches");

  obs::BenchReport report("abl_index");
  report.results() = obs::Json::array();
  bool all_ok = true;
  for (const double ratio : {0.2, 0.5, 0.8}) {
    for (const auto mode : {core::MaintenanceMode::Online,
                            core::MaintenanceMode::Batched}) {
      core::DistBTreeConfig cfg;
      cfg.initial_keys = 100000;
      cfg.operations = 8000;
      cfg.insert_ratio = ratio;
      cfg.clients = 4;
      cfg.batch_size = 256;
      cfg.maintenance = mode;
      cfg.seed = 42;
      const auto r = core::run_dist_btree(mp, cfg);
      const bool ok = r.lookups_ok && r.final_state_ok;
      all_ok &= ok;
      const char* name =
          mode == core::MaintenanceMode::Online ? "online" : "batched";
      std::printf("%-14.1f %-9s %9.3fs %14.0f %10zu %8zu\n", ratio, name,
                  r.makespan, r.mean_lookup_latency * 1e6, r.inserts,
                  r.batches_shipped);
      obs::Json row = obs::Json::object();
      row["insert_ratio"] = ratio;
      row["mode"] = name;
      row["makespan"] = r.makespan;
      row["mean_lookup_latency"] = r.mean_lookup_latency;
      row["inserts"] = double(r.inserts);
      row["batches_shipped"] = double(r.batches_shipped);
      row["ok"] = ok;
      report.results().push_back(std::move(row));
    }
  }
  std::printf("# validation: %s\n",
              all_ok ? "all lookups matched the oracle; final trees "
                       "contain every insert"
                     : "FAILURES");
  return lmas::benchio::finish(report, all_ok);
}

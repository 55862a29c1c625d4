/// Ablation E — distributed R-tree organization (Figure 5): partition vs
/// stripe across a sweep of concurrent clients. Striping executes every
/// query on all ASUs in parallel (bounded latency); partitioning sends
/// each query to the few ASUs owning its region (concurrent searches
/// spread out, so aggregate throughput is higher). Writes
/// BENCH_abl_rtree.json: one row per (clients, layout) cell; ok iff every
/// distributed result matches the centralized tree.

#include <cstdio>

#include "bench_json.hpp"
#include "gis/gis.hpp"
#include "obs/report.hpp"

namespace gis = lmas::gis;
namespace asu = lmas::asu;
namespace obs = lmas::obs;

int main() {
  asu::MachineParams mp;
  mp.num_hosts = 1;
  mp.num_asus = 16;

  std::printf("# Ablation E: distributed R-tree, partition vs stripe vs hybrid "
              "(16 ASUs, 100k rects)\n");
  std::printf("%-9s %-11s %13s %12s %10s %8s\n", "clients", "layout",
              "mean lat(us)", "max lat(us)", "qps", "asus/q");

  obs::BenchReport report("abl_rtree");
  report.results() = obs::Json::array();
  bool all_ok = true;
  for (const unsigned clients : {1u, 4u, 16u, 64u}) {
    for (const auto layout :
         {gis::RTreeLayout::Partition, gis::RTreeLayout::Stripe,
          gis::RTreeLayout::Hybrid}) {
      gis::RTreeSimConfig cfg;
      cfg.layout = layout;
      cfg.num_rects = 100000;
      cfg.clients = clients;
      cfg.queries_per_client = 256 / clients;
      cfg.query_extent = clients == 1 ? 0.08f : 0.02f;
      cfg.seed = 42;
      const auto r = gis::run_rtree_sim(mp, cfg);
      all_ok &= r.results_match_oracle;
      std::printf("%-9u %-11s %13.0f %12.0f %10.0f %8.1f\n", clients,
                  gis::rtree_layout_name(layout), r.mean_latency * 1e6,
                  r.max_latency * 1e6, r.throughput_qps,
                  r.mean_asus_per_query);
      obs::Json row = obs::Json::object();
      row["clients"] = clients;
      row["layout"] = gis::rtree_layout_name(layout);
      row["mean_latency"] = r.mean_latency;
      row["max_latency"] = r.max_latency;
      row["throughput_qps"] = r.throughput_qps;
      row["mean_asus_per_query"] = r.mean_asus_per_query;
      row["ok"] = r.results_match_oracle;
      report.results().push_back(std::move(row));
    }
  }
  std::printf("# validation: %s\n",
              all_ok ? "all distributed results match the centralized tree"
                     : "ORACLE MISMATCH");
  return lmas::benchio::finish(report, all_ok);
}

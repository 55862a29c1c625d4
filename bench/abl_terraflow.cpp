/// Ablation F — TerraFlow phase placement (Section 4.1). Steps 1 and 2
/// (grid restructure, sort by elevation) parallelize onto ASUs; step 3
/// (watershed coloring by time-forward processing) depends on ordering
/// and stays sequential. The table shows per-step costs from the declared
/// cost model as ASUs are added, plus a real (executed) watershed run for
/// correctness grounding. Writes BENCH_abl_terraflow.json: the grounding
/// run's counts and one row per D; ok iff the grounding run found one
/// watershed per local minimum and labelled every cell.

#include <cstdio>

#include "bench_json.hpp"
#include "gis/gis.hpp"
#include "obs/report.hpp"

namespace gis = lmas::gis;
namespace asu = lmas::asu;
namespace obs = lmas::obs;

int main() {
  // Real execution first: the numbers below model THIS computation.
  auto grid = gis::make_fractal(512, 512, 42);
  gis::TerraFlowStats st;
  const auto colors = gis::watershed_labels(grid, &st);
  const bool ok = st.watersheds == gis::count_local_minima(grid) &&
                  colors.size() == grid.cells();
  std::printf("# Ablation F: TerraFlow phases, active vs passive "
              "placement\n");
  std::printf("# grounding run: 512x512 fractal terrain -> %zu watersheds "
              "(%zu tf-messages, sort runs %zu) %s\n",
              st.watersheds, st.messages_sent, st.sort.runs_formed,
              ok ? "[ok]" : "[FAIL]");
  obs::BenchReport report("abl_terraflow");
  report.params()["watersheds"] = double(st.watersheds);
  report.params()["tf_messages"] = double(st.messages_sent);
  report.results() = obs::Json::array();

  std::printf("\n# modeled phase costs, 16M cells, alpha=64 "
              "(host-seconds)\n");
  std::printf("%-5s %12s %12s %12s %12s %10s %10s %9s\n", "D",
              "restr.pass", "restr.act", "sort.pass", "sort.act",
              "watershed", "tot.act", "speedup");
  for (const unsigned d : {4u, 8u, 16u, 32u, 64u}) {
    asu::MachineParams mp;
    mp.num_hosts = 1;
    mp.num_asus = d;
    const auto m = gis::terraflow_phase_model(mp, std::size_t(1) << 24, 64);
    std::printf("%-5u %11.2fs %11.2fs %11.2fs %11.2fs %9.2fs %9.2fs %8.2fx\n",
                d, m.step1_passive, m.step1_active, m.step2_passive,
                m.step2_active, m.step3, m.total_active(),
                m.total_passive() / m.total_active());
    obs::Json row = obs::Json::object();
    row["asus"] = d;
    row["step1_passive"] = m.step1_passive;
    row["step1_active"] = m.step1_active;
    row["step2_passive"] = m.step2_passive;
    row["step2_active"] = m.step2_active;
    row["step3"] = m.step3;
    row["speedup"] = m.total_passive() / m.total_active();
    report.results().push_back(std::move(row));
  }
  std::printf("# steps 1-2 scale with D; step 3 is the serial floor "
              "(time-forward ordering dependence)\n");
  return lmas::benchio::finish(report, ok);
}

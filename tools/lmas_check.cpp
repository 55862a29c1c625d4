// Conformance driver: golden-run regression and property suites.
//
//   lmas_check golden              compare fresh runs against the pinned file
//   lmas_check regolden [path]     re-run all cases and rewrite the pinned file
//   lmas_check property [options]  run property suites
//       --suite NAME               one suite instead of all
//       --cases N                  cases per suite (default: suite default)
//       --seed S                   base seed (default 0)
//   lmas_check list                list suites and golden cases
//
// Reproducing a CI failure: every falsified property prints a repro line of
// the form
//   LMAS_CHECK_SEED=0x... LMAS_CHECK_SIZE=... lmas_check property --suite S
// which re-runs exactly that one shrunk case. See EXPERIMENTS.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/golden.hpp"
#include "check/suites.hpp"
#include "obs/report.hpp"
#include "par/executor.hpp"

namespace {

using namespace lmas;

int usage() {
  std::fprintf(stderr,
               "usage: lmas_check golden\n"
               "       lmas_check regolden [path]\n"
               "       lmas_check property [--suite NAME] [--cases N] "
               "[--seed S]\n"
               "       lmas_check list\n");
  return 2;
}

int cmd_golden() {
  const std::string path = check::default_golden_path();
  const auto pinned = check::load_goldens(path);
  if (!pinned) {
    std::fprintf(stderr,
                 "lmas_check: cannot load pinned goldens from %s\n"
                 "  (generate them with: lmas_check regolden)\n",
                 path.c_str());
    return 1;
  }
  // Golden cases are independent engines, so they sweep in parallel
  // (LMAS_JOBS, like the benches); map_ordered keeps the pinned order.
  const auto& cases = check::golden_cases();
  par::Executor ex;
  const std::vector<check::GoldenResult> fresh =
      par::map_ordered<check::GoldenResult>(ex, cases.size(), [&](
          std::size_t i) { return check::run_golden_case(cases[i]); });
  const auto mismatches = check::compare_goldens(*pinned, fresh);
  if (mismatches.empty()) {
    std::printf("golden: %zu cases conformant (%s)\n", fresh.size(),
                path.c_str());
    return 0;
  }
  for (const auto& m : mismatches) {
    std::fprintf(stderr, "golden MISMATCH %s: %s\n", m.name.c_str(),
                 m.detail.c_str());
  }
  std::fprintf(stderr,
               "\n%zu of %zu golden cases drifted. If this change is "
               "intentional, regenerate and commit the pinned file:\n"
               "  lmas_check regolden   (or: make regolden)\n",
               mismatches.size(), fresh.size());
  return 1;
}

int cmd_regolden(const char* path_arg) {
  const std::string path =
      path_arg ? std::string(path_arg) : check::default_golden_path();
  std::vector<check::GoldenResult> fresh;
  for (const auto& c : check::golden_cases()) {
    fresh.push_back(check::run_golden_case(c));
    const auto& r = fresh.back();
    std::printf("  %-24s digest=%s events=%llu ok=%d\n", r.name.c_str(),
                obs::digest_to_string(r.digest).c_str(),
                static_cast<unsigned long long>(r.sim_events), int(r.ok));
    if (!r.ok) {
      std::fprintf(stderr,
                   "lmas_check: refusing to pin a failing run (%s)\n",
                   r.name.c_str());
      return 1;
    }
  }
  if (!check::write_goldens(path, fresh)) {
    std::fprintf(stderr, "lmas_check: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("regolden: wrote %zu cases to %s\n", fresh.size(),
              path.c_str());
  return 0;
}

int cmd_property(int argc, char** argv) {
  const char* only = nullptr;
  std::size_t cases = 0;  // 0 = suite default
  std::uint64_t seed = 0;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--suite") && i + 1 < argc) {
      only = argv[++i];
    } else if (!std::strcmp(argv[i], "--cases") && i + 1 < argc) {
      cases = std::strtoull(argv[++i], nullptr, 0);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else {
      return usage();
    }
  }
  // forall() itself honors LMAS_CHECK_CASES (it wins over --cases, like
  // the other LMAS_CHECK_* repro overrides); mirror that here so the
  // printed per-suite count matches what actually runs.
  if (const char* e = std::getenv("LMAS_CHECK_CASES")) {
    cases = std::strtoull(e, nullptr, 0);
  }
  bool matched = false;
  for (const auto& s : check::all_suites()) {
    if (only && s.name != only) continue;
    matched = true;
    const std::size_t n = cases ? cases : s.default_cases;
    if (std::getenv("LMAS_CHECK_SEED")) {
      std::printf("property %-14s pinned case ... ",
                  std::string(s.name).c_str());
    } else {
      std::printf("property %-14s %zu cases ... ",
                  std::string(s.name).c_str(), n);
    }
    std::fflush(stdout);
    if (auto failure = s.run(n, seed)) {
      std::printf("FAIL\n");
      std::fprintf(stderr, "%s\n", failure->describe().c_str());
      return 1;
    }
    std::printf("ok\n");
  }
  if (!matched) {
    std::fprintf(stderr, "lmas_check: unknown suite '%s' (see: list)\n",
                 only ? only : "");
    return 2;
  }
  return 0;
}

int cmd_list() {
  std::printf("property suites:\n");
  for (const auto& s : check::all_suites()) {
    std::printf("  %-14s (default %zu cases)\n",
                std::string(s.name).c_str(), s.default_cases);
  }
  std::printf("golden cases (pinned in %s):\n",
              check::default_golden_path().c_str());
  for (const auto& c : check::golden_cases()) {
    std::printf("  %s\n", c.name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "golden") return cmd_golden();
  if (cmd == "regolden") return cmd_regolden(argc > 2 ? argv[2] : nullptr);
  if (cmd == "property") return cmd_property(argc - 2, argv + 2);
  if (cmd == "list") return cmd_list();
  return usage();
}

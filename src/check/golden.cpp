#include "check/golden.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/report.hpp"
#include "sim/random.hpp"

#ifndef LMAS_GOLDEN_DEFAULT_FILE
#define LMAS_GOLDEN_DEFAULT_FILE "tests/golden/golden_runs.json"
#endif

namespace lmas::check {

namespace {

constexpr const char* kSchema = "lmas-golden-v1";

GoldenCase fig9_case(std::string name, unsigned asus, unsigned alpha,
                     bool on_asus) {
  GoldenCase c;
  c.name = std::move(name);
  c.machine.num_hosts = 1;
  c.machine.num_asus = asus;
  c.machine.c = 8.0;
  c.config.total_records = std::size_t(1) << 14;
  c.config.log2_alpha_beta = 10;
  c.config.alpha = alpha;
  c.config.distribute_on_asus = on_asus;
  c.config.seed = 42;
  return c;
}

GoldenCase fig10_case(std::string name, core::RouterKind router) {
  GoldenCase c;
  c.name = std::move(name);
  c.machine.num_hosts = 2;
  c.machine.num_asus = 8;
  c.machine.c = 8.0;
  c.config.total_records = std::size_t(1) << 15;
  c.config.log2_alpha_beta = 10;
  c.config.alpha = 16;
  c.config.key_dist = core::KeyDist::HalfUniformHalfExp;
  c.config.sort_router = router;
  c.config.seed = 42;
  return c;
}

/// The fig10 shape under online load management (router swap plus
/// migration) and a small fault plan: host 0 slows down 3x while ASU 2
/// crashes and recovers, all inside the ~11 ms static pass 1. The short
/// sampling period lets the control loop act several times per run.
GoldenCase fig10_lm_case(std::string name, core::LoadManagerMode mode) {
  GoldenCase c = fig10_case(std::move(name), core::RouterKind::Static);
  c.config.load_manager.mode = mode;
  c.config.load_manager.period = 0.0005;
  c.config.load_manager.promote_hysteresis = 1;
  c.config.load_manager.migrate_hysteresis = 1;
  c.config.faults.slowdown(/*on_asu=*/false, 0, 0.002, 0.004, 3.0);
  c.config.faults.crash(/*on_asu=*/true, 2, 0.003, 0.002);
  c.config.faults.normalize();
  return c;
}

}  // namespace

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> kCases = [] {
    std::vector<GoldenCase> cases;
    cases.push_back(fig9_case("fig9-passive-d4", 4, 1, false));
    cases.push_back(fig9_case("fig9-alpha16-d4", 4, 16, true));
    cases.push_back(fig9_case("fig9-alpha64-d8", 8, 64, true));
    GoldenCase merge = fig9_case("fig9-alpha16-d8-merge", 8, 16, true);
    merge.config.run_merge_pass = true;
    cases.push_back(std::move(merge));
    cases.push_back(fig10_case("fig10-static", core::RouterKind::Static));
    cases.push_back(
        fig10_case("fig10-sr", core::RouterKind::SimpleRandomization));
    cases.push_back(
        fig10_lm_case("fig10-managed-faults", core::LoadManagerMode::Manage));
    cases.push_back(fig10_lm_case("fig10-monitored-faults",
                                  core::LoadManagerMode::Monitor));
    return cases;
  }();
  return kCases;
}

GoldenResult run_golden_case(const GoldenCase& c) {
  const core::DsmSortReport rep = run_dsm_sort(c.machine, c.config);
  GoldenResult r;
  r.name = c.name;
  r.digest = rep.digest;
  r.metrics_fingerprint = sim::fnv1a64(rep.metrics.dump());
  r.pass1_seconds = rep.pass1_seconds;
  r.records_in = rep.records_in;
  r.sim_events = rep.sim_events;
  r.ok = rep.ok();
  return r;
}

std::string default_golden_path() {
  if (const char* env = std::getenv("LMAS_GOLDEN_FILE")) return env;
  return LMAS_GOLDEN_DEFAULT_FILE;
}

obs::Json goldens_to_json(const std::vector<GoldenResult>& results) {
  obs::Json root = obs::Json::object();
  root["schema"] = kSchema;
  obs::Json runs = obs::Json::array();
  for (const auto& r : results) {
    obs::Json e = obs::Json::object();
    e["name"] = r.name;
    e["digest"] = obs::digest_to_string(r.digest);
    e["metrics_fingerprint"] = obs::digest_to_string(r.metrics_fingerprint);
    e["pass1_seconds"] = r.pass1_seconds;
    e["records_in"] = double(r.records_in);
    e["sim_events"] = double(r.sim_events);
    e["ok"] = r.ok;
    runs.push_back(std::move(e));
  }
  root["runs"] = std::move(runs);
  return root;
}

std::optional<std::vector<GoldenResult>> load_goldens(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  const auto doc = obs::Json::parse(buf.str());
  if (!doc || !doc->is_object()) return std::nullopt;
  const obs::Json* schema = doc->find("schema");
  if (!schema || !schema->is_string() || schema->as_string() != kSchema) {
    return std::nullopt;
  }
  const obs::Json* runs = doc->find("runs");
  if (!runs || !runs->is_array()) return std::nullopt;

  std::vector<GoldenResult> out;
  for (const obs::Json& e : runs->items()) {
    if (!e.is_object()) return std::nullopt;
    GoldenResult r;
    const obs::Json* name = e.find("name");
    const obs::Json* digest = e.find("digest");
    const obs::Json* fp = e.find("metrics_fingerprint");
    const obs::Json* p1 = e.find("pass1_seconds");
    const obs::Json* rin = e.find("records_in");
    const obs::Json* ev = e.find("sim_events");
    const obs::Json* ok = e.find("ok");
    if (!name || !name->is_string() || !digest || !digest->is_string() ||
        !fp || !fp->is_string() || !p1 || !p1->is_number() || !rin ||
        !rin->is_number() || !ev || !ev->is_number() || !ok ||
        !ok->is_bool()) {
      return std::nullopt;
    }
    const auto d = obs::digest_from_string(digest->as_string());
    const auto m = obs::digest_from_string(fp->as_string());
    if (!d || !m) return std::nullopt;
    r.name = name->as_string();
    r.digest = *d;
    r.metrics_fingerprint = *m;
    r.pass1_seconds = p1->as_double();
    r.records_in = std::uint64_t(rin->as_int());
    r.sim_events = std::uint64_t(ev->as_int());
    r.ok = ok->as_bool();
    out.push_back(std::move(r));
  }
  return out;
}

bool write_goldens(const std::string& path,
                   const std::vector<GoldenResult>& results) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << goldens_to_json(results).dump(2) << '\n';
  return bool(f);
}

std::vector<GoldenMismatch> compare_goldens(
    const std::vector<GoldenResult>& pinned,
    const std::vector<GoldenResult>& fresh) {
  std::vector<GoldenMismatch> out;
  auto find = [](const std::vector<GoldenResult>& v, const std::string& n)
      -> const GoldenResult* {
    for (const auto& r : v) {
      if (r.name == n) return &r;
    }
    return nullptr;
  };
  char buf[256];
  for (const auto& p : pinned) {
    const GoldenResult* f = find(fresh, p.name);
    if (!f) {
      out.push_back({p.name, "pinned case no longer produced"});
      continue;
    }
    if (*f == p) continue;
    std::snprintf(
        buf, sizeof buf,
        "digest %s vs pinned %s; metrics %s vs %s; pass1 %.9g vs %.9g; "
        "events %llu vs %llu; ok %d vs %d",
        obs::digest_to_string(f->digest).c_str(),
        obs::digest_to_string(p.digest).c_str(),
        obs::digest_to_string(f->metrics_fingerprint).c_str(),
        obs::digest_to_string(p.metrics_fingerprint).c_str(),
        f->pass1_seconds, p.pass1_seconds,
        static_cast<unsigned long long>(f->sim_events),
        static_cast<unsigned long long>(p.sim_events), int(f->ok),
        int(p.ok));
    out.push_back({p.name, buf});
  }
  for (const auto& f : fresh) {
    if (!find(pinned, f.name)) {
      out.push_back({f.name, "new case not present in pinned file"});
    }
  }
  return out;
}

}  // namespace lmas::check

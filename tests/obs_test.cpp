/// Tests for the observability subsystem: instrument semantics, JSON
/// round-trips, pull-model collectors, bench artifacts, and sim-time
/// tracing (including the trace a real two-task engine run exports).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"
#include "sim/sim.hpp"

namespace obs = lmas::obs;
namespace sim = lmas::sim;

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeSetsAndAdds) {
  obs::Gauge g;
  g.set(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Metrics, HistogramBucketsBoundariesInclusive) {
  obs::Histogram h({1.0, 10.0});
  h.observe(0.5);   // bucket 0: <= 1
  h.observe(1.0);   // bucket 0: boundary is inclusive
  h.observe(5.0);   // bucket 1: (1, 10]
  h.observe(100.0); // bucket 2: overflow
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  EXPECT_DOUBLE_EQ(h.mean(), 106.5 / 4);
}

TEST(Metrics, RegistryFindOrCreateIsStable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  a.inc();
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.find_counter("x")->value(), 1u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, CollectorRunsAtSnapshotAndDeregisters) {
  obs::MetricsRegistry reg;
  int runs = 0;
  const std::size_t id = reg.add_collector([&] {
    ++runs;
    reg.gauge("pulled").set(7.0);
  });
  EXPECT_EQ(runs, 0);  // pull model: nothing happens until a snapshot
  obs::Json snap = reg.snapshot();
  EXPECT_EQ(runs, 1);
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("pulled").as_double(), 7.0);
  reg.remove_collector(id);
  (void)reg.snapshot();
  EXPECT_EQ(runs, 1);
}

TEST(Metrics, SnapshotRoundTripsThroughParser) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").inc(3);
  reg.counter("a.count").inc(1);
  reg.gauge("load").set(0.75);
  reg.histogram("lat", {0.1, 1.0}).observe(0.5);

  const std::string text = reg.snapshot().dump(2);
  auto parsed = obs::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("counters").at("b.count").as_int(), 3);
  EXPECT_DOUBLE_EQ(parsed->at("gauges").at("load").as_double(), 0.75);
  EXPECT_EQ(parsed->at("histograms").at("lat").at("count").as_int(), 1);
  // Keys are emitted sorted for deterministic artifacts.
  EXPECT_EQ(parsed->at("counters").members()[0].first, "a.count");
}

namespace {

/// The snapshot as built before the append path: every key inserted
/// through the scanning operator[], histogram kinds collected into one
/// name-sorted list. `names` lists every instrument the registry holds.
obs::Json reference_snapshot(const obs::MetricsRegistry& reg,
                             std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  obs::Json counters = obs::Json::object();
  obs::Json gauges = obs::Json::object();
  obs::Json hists = obs::Json::object();
  for (const std::string& name : names) {
    if (const obs::Counter* c = reg.find_counter(name)) {
      counters[name] = obs::Json(c->value());
    } else if (const obs::Gauge* g = reg.find_gauge(name)) {
      gauges[name] = obs::Json(g->value());
    } else if (const obs::Histogram* h = reg.find_histogram(name)) {
      obs::Json j = obs::Json::object();
      j["count"] = obs::Json(h->count());
      j["sum"] = obs::Json(h->sum());
      j["bounds"] = obs::Json::array_of(h->bounds());
      j["buckets"] = obs::Json::array_of(h->bucket_counts());
      hists[name] = std::move(j);
    } else if (const obs::LatencyHistogram* l = reg.find_latency(name)) {
      hists[name] = l->to_json();
    }
  }
  obs::Json out = obs::Json::object();
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(hists);
  return out;
}

}  // namespace

TEST(Metrics, SnapshotMatchesLookupBuiltReference) {
  obs::MetricsRegistry reg;
  std::vector<std::string> names;
  std::vector<std::string> latency_names;
  // Registered in reverse so map order and sorted order disagree; fixed
  // and latency histograms alternate when sorted.
  for (int i = 40; i >= 0; --i) {
    const std::string n = std::to_string(i);
    reg.counter("c." + n).inc(std::uint64_t(i) * 3);
    reg.gauge("g." + n).set(0.25 * i);
    names.insert(names.end(), {"c." + n, "g." + n, "h." + n});
    if (i % 2 == 0) {
      reg.histogram("h." + n, {0.5, 5.0}).observe(0.1 * i);
    } else {
      reg.latency("h." + n).observe(1e-3 * i);
      latency_names.push_back("h." + n);
    }
  }
  // A collector creates instruments during the snapshot, including a
  // latency histogram that sorts between existing fixed ones.
  reg.add_collector([&reg] {
    reg.gauge("g.collected").set(9.5);
    if (reg.find_latency("h.10a") == nullptr) {
      reg.latency("h.10a").observe(0.002);
    }
  });
  names.insert(names.end(), {"g.collected", "h.10a"});
  latency_names.push_back("h.10a");

  // Snapshot first: the reference sees the collector's instruments only
  // once a snapshot has run it.
  const std::string snap = reg.snapshot().dump();
  EXPECT_EQ(snap, reference_snapshot(reg, names).dump());
  EXPECT_EQ(reg.snapshot().dump(2), reference_snapshot(reg, names).dump(2));

  std::sort(latency_names.begin(), latency_names.end());
  obs::Json summaries = obs::Json::object();
  for (const std::string& name : latency_names) {
    summaries[name] = reg.find_latency(name)->summary_json();
  }
  EXPECT_EQ(reg.latency_summaries().dump(), summaries.dump());
}

// ------------------------------------------------------------------ json

TEST(Json, DumpAndParseRoundTrip) {
  obs::Json doc = obs::Json::object();
  doc["int"] = 42;
  doc["neg"] = -1.5;
  doc["str"] = "he said \"hi\"\n";
  doc["null"] = nullptr;
  doc["flag"] = true;
  doc["arr"] = obs::Json::array_of(std::vector<double>{1, 2.5, 3});

  for (int indent : {-1, 2}) {
    auto back = obs::Json::parse(doc.dump(indent));
    ASSERT_TRUE(back.has_value()) << "indent " << indent;
    EXPECT_EQ(back->at("int").as_int(), 42);
    EXPECT_DOUBLE_EQ(back->at("neg").as_double(), -1.5);
    EXPECT_EQ(back->at("str").as_string(), "he said \"hi\"\n");
    EXPECT_TRUE(back->at("null").is_null());
    EXPECT_TRUE(back->at("flag").as_bool());
    EXPECT_EQ(back->at("arr").size(), 3u);
    EXPECT_DOUBLE_EQ(back->at("arr").at(1).as_double(), 2.5);
  }
}

TEST(Json, IntegralDoublesPrintAsIntegers) {
  obs::Json j(1048576.0);
  EXPECT_EQ(j.dump(), "1048576");
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(obs::Json::parse("{").has_value());
  EXPECT_FALSE(obs::Json::parse("[1,]").has_value());
  EXPECT_FALSE(obs::Json::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::Json::parse("nul").has_value());
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  obs::Json j = obs::Json::object();
  j["z"] = 1;
  j["a"] = 2;
  ASSERT_EQ(j.members().size(), 2u);
  EXPECT_EQ(j.members()[0].first, "z");
}

TEST(Json, AppendAddsMembersInOrder) {
  obs::Json j;
  j.append("z", 1);
  j.append("a", 2)["nested"] = true;
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.dump(), R"({"z":1,"a":{"nested":true}})");
}

TEST(Json, DuplicateKeyKeepsFirstPositionAndLastValue) {
  auto doc = obs::Json::parse(R"({"a":1,"b":2,"a":3})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->dump(), R"({"a":3,"b":2})");
}

TEST(Json, LargeObjectRoundTripsInOrder) {
  constexpr int kKeys = 30000;
  obs::Json doc = obs::Json::object();
  // Keys out of sorted order, so a reordering parse would show.
  for (int i = 0; i < kKeys; ++i) {
    doc.append("m." + std::to_string((i * 7919) % kKeys), i);
  }
  for (int indent : {-1, 2}) {
    auto back = obs::Json::parse(doc.dump(indent));
    ASSERT_TRUE(back.has_value()) << "indent " << indent;
    ASSERT_EQ(back->size(), doc.size());
    for (std::size_t i = 0; i < doc.size(); ++i) {
      const auto& [k, v] = doc.members()[i];
      ASSERT_EQ(back->members()[i].first, k) << i;
      ASSERT_EQ(back->members()[i].second.as_int(), v.as_int()) << k;
    }
  }
}

// ----------------------------------------------------------------- report

TEST(BenchReport, WritesParsableArtifact) {
  obs::BenchReport report("obs_test");
  report.params()["n"] = 128;
  obs::Json row = obs::Json::object();
  row["speedup"] = 1.5;
  report.results().push_back(std::move(row));
  report.add_utilization("host0.cpu", 0.5, 0.25, {0.25, 0.75});

  obs::MetricsRegistry reg;
  reg.counter("c").inc(9);
  report.add_metrics(reg);

  ASSERT_TRUE(report.write("."));
  std::ifstream in(report.path("."));
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = obs::Json::parse(buf.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("schema").as_string(), "lmas-bench-v1");
  EXPECT_EQ(parsed->at("bench").as_string(), "obs_test");
  EXPECT_EQ(parsed->at("params").at("n").as_int(), 128);
  EXPECT_DOUBLE_EQ(parsed->at("results").at(0).at("speedup").as_double(), 1.5);
  const obs::Json& util = parsed->at("utilization").at("host0.cpu");
  EXPECT_DOUBLE_EQ(util.at("mean").as_double(), 0.5);
  EXPECT_EQ(util.at("series").size(), 2u);
  EXPECT_EQ(parsed->at("metrics").at("counters").at("c").as_int(), 9);
  std::remove(report.path(".").c_str());
}

// ------------------------------------------------------------------ trace

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::Tracer t;
  t.begin(0, "x", 1.0);
  t.complete(0, "y", 1.0, 2.0);
  EXPECT_EQ(t.event_count(), 0u);
}

TEST(Trace, RecordsSpansWhenEnabled) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  obs::Tracer t;
  t.enable();
  const auto track = t.track("res");
  t.complete(track, "io", 1.0, 1.5);
  t.instant(track, "mark", 2.0);
  t.counter(track, "depth", 2.5, 3.0);
  ASSERT_EQ(t.event_count(), 3u);
  EXPECT_EQ(t.events()[0].ph, 'X');
  EXPECT_DOUBLE_EQ(t.events()[0].ts, 1.0e6);   // microseconds
  EXPECT_DOUBLE_EQ(t.events()[0].dur, 0.5e6);
}

TEST(Trace, JsonEventsCarryRequiredKeys) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  obs::Tracer t;
  t.enable();
  const auto track = t.track("worker");
  t.begin(track, "job", 0.0);
  t.end(track, "job", 1.0);
  const obs::Json doc = t.to_json();
  ASSERT_TRUE(doc.is_array());
  for (const obs::Json& ev : doc.items()) {
    EXPECT_TRUE(ev.contains("name"));
    EXPECT_TRUE(ev.contains("ph"));
    EXPECT_TRUE(ev.contains("ts"));
    EXPECT_TRUE(ev.contains("pid"));
    EXPECT_TRUE(ev.contains("tid"));
  }
  // One thread_name metadata record per registered track.
  EXPECT_EQ(doc.at(0).at("ph").as_string(), "M");
}

namespace {

sim::Task<> worker(sim::Engine& eng, sim::Resource& res, int uses) {
  for (int i = 0; i < uses; ++i) {
    co_await res.use(0.25);
    co_await eng.sleep(0.25);
  }
}

sim::Task<> napper(sim::Engine& eng, int naps) {
  for (int i = 0; i < naps; ++i) co_await eng.sleep(0.1);
}

}  // namespace

TEST(Trace, TwoTaskEngineRunExportsWellFormedTrace) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  sim::Engine eng;
  eng.tracer().enable();
  sim::Resource res(eng, "shared");
  eng.spawn(worker(eng, res, 2), "w1");
  eng.spawn(worker(eng, res, 3), "w2");
  eng.run();
  ASSERT_EQ(eng.unfinished_tasks(), 0u);

  const obs::Json doc = eng.tracer().to_json();
  ASSERT_TRUE(doc.is_array());
  ASSERT_GT(doc.size(), 0u);

  // B/E spans must nest and their timestamps must be monotone. ('X'
  // events are exempt: queued resource occupancy legitimately records a
  // start time in the future of the emission point.)
  std::vector<std::string> stack;
  double last_ts = 0;
  std::size_t spans = 0;
  for (const obs::Json& ev : doc.items()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph != "B" && ph != "E") continue;
    const double ts = ev.at("ts").as_double();
    EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing";
    last_ts = ts;
    if (ph == "B") {
      stack.push_back(ev.at("name").as_string());
    } else if (ph == "E") {
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), ev.at("name").as_string())
          << "spans must close innermost-first";
      stack.pop_back();
      ++spans;
    }
  }
  EXPECT_TRUE(stack.empty()) << "every span must close";
  EXPECT_GT(spans, 0u);

  // The named roots appear as span names; resource occupancy as 'X'.
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"w1\""), std::string::npos);
  EXPECT_NE(text.find("\"w2\""), std::string::npos);
  EXPECT_NE(text.find("\"X\""), std::string::npos);
}

TEST(Trace, WriteChromeTraceProducesParsableFile) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  sim::Engine eng;
  eng.tracer().enable();
  sim::Resource res(eng, "disk");
  eng.spawn(worker(eng, res, 1), "w");
  eng.run();
  const std::string path = "obs_test_trace.json";
  ASSERT_TRUE(eng.tracer().write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = obs::Json::parse(buf.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_array());
  std::remove(path.c_str());
}

// ------------------------------------------------- engine + resource obs

TEST(EngineObs, EventsProcessedCountsAcrossRuns) {
  sim::Engine eng;
  eng.spawn(napper(eng, 3));
  eng.run();
  const auto first = eng.events_processed();
  EXPECT_GT(first, 0u);
  sim::Resource res(eng, "r");
  eng.spawn(worker(eng, res, 2), "w");
  eng.run();
  EXPECT_GT(eng.events_processed(), first);
}

TEST(EngineObs, SnapshotPublishesResourceAndEventMetrics) {
  sim::Engine eng;
  sim::Resource res(eng, "host0.cpu");
  eng.spawn(worker(eng, res, 3), "w");
  eng.run();
  const obs::Json snap = eng.metrics().snapshot();
  EXPECT_EQ(snap.at("counters").at("host0.cpu.requests").as_int(), 3);
  EXPECT_DOUBLE_EQ(
      snap.at("gauges").at("host0.cpu.busy_seconds").as_double(), 0.75);
  EXPECT_EQ(snap.at("counters").at("engine.events").as_int(),
            std::int64_t(eng.events_processed()));
  // Idempotent across snapshots (collectors re-publish, not re-add).
  const obs::Json again = eng.metrics().snapshot();
  EXPECT_EQ(again.at("counters").at("host0.cpu.requests").as_int(), 3);
}

TEST(EngineObs, UnfinishedTaskNamesIdentifyBlockedProcess) {
  sim::Engine eng;
  sim::Condition cv(eng);
  eng.spawn([](sim::Condition& c) -> sim::Task<> { co_await c.wait(); }(cv),
            "stuck-process");
  eng.spawn([](sim::Engine& e) -> sim::Task<> { co_await e.sleep(1); }(eng));
  eng.run();
  const auto names = eng.unfinished_task_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "stuck-process");
  cv.notify_all();
  eng.run();
  EXPECT_TRUE(eng.unfinished_task_names().empty());
}

// The observability layer: zero-overhead profiling, counter collection,
// trace emission and the `macosim trace` renderer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/config.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/sweep_runner.hpp"
#include "driver/trace_cmd.hpp"
#include "exp/backend.hpp"
#include "obs/collector.hpp"
#include "obs/host_profile.hpp"
#include "obs/observation.hpp"
#include "obs/trace_writer.hpp"
#include "util/json.hpp"

namespace maco::obs {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fs::remove_all(path);
  return path;
}

core::TimingOptions small_gemm(unsigned nodes) {
  core::TimingOptions options;
  options.shape = {128, 128, 128};
  options.active_nodes = nodes;
  return options;
}

// ---- zero overhead: observing a run never changes its timing ----

TEST(ObsZeroOverhead, ObservedGemmMakespanIsBitIdentical) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const auto plain =
      exp::make_backend(exp::Fidelity::kDetailed, config)
          ->run(small_gemm(2));

  RunObservation observation;
  observation.want_counters = true;
  observation.want_trace = true;
  const auto observed =
      exp::make_backend(exp::Fidelity::kDetailed, config)
          ->run(small_gemm(2), &observation);

  EXPECT_EQ(plain.makespan_ps, observed.makespan_ps);
  EXPECT_EQ(plain.total_gflops, observed.total_gflops);
  EXPECT_FALSE(observation.counters.empty());
  EXPECT_FALSE(observation.spans.empty());
}

TEST(ObsZeroOverhead, SameSeedCounterDumpsAreBitIdentical) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  RunObservation first;
  first.want_counters = true;
  exp::make_backend(exp::Fidelity::kDetailed, config)
      ->run(small_gemm(2), &first);
  RunObservation second;
  second.want_counters = true;
  exp::make_backend(exp::Fidelity::kDetailed, config)
      ->run(small_gemm(2), &second);
  EXPECT_EQ(first.counters, second.counters);
}

// ---- collector: dotted names and derived metrics ----

TEST(ObsCollector, PublishesDottedCounterNames) {
  // Link recording switches on at machine construction, from the config's
  // profile mode (the `profile` hardware knob on the driver path).
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.profile = core::ProfileMode::kCounters;
  RunObservation observation;
  observation.want_counters = true;
  exp::make_backend(exp::Fidelity::kDetailed, config)
      ->run(small_gemm(2), &observation);
  // One entry per instrumented component, under hierarchical names.
  EXPECT_GT(observation.counters.count("node0.mmae.matlb.hits"), 0u);
  EXPECT_GT(observation.counters.count("node0.vm.stlb.hits"), 0u);
  EXPECT_GT(observation.counters.count("node0.vm.walker.walks"), 0u);
  EXPECT_GT(observation.counters.count("ccm0.l3.hits"), 0u);
  EXPECT_GT(observation.counters.count("dram0.bytes"), 0u);
  EXPECT_GT(observation.counters.count("engine.events"), 0u);
  EXPECT_TRUE(observation.noc.present());
}

TEST(ObsCollector, SumCountersMatchesPrefixAndSuffix) {
  std::map<std::string, std::uint64_t> counters{
      {"node0.vm.stlb.hits", 3},
      {"node1.vm.stlb.hits", 4},
      {"node0.vm.stlb.misses", 5},
      {"ccm0.l3.hits", 100},
  };
  EXPECT_EQ(sum_counters(counters, "node", ".vm.stlb.hits"), 7u);
  EXPECT_EQ(sum_counters(counters, "node", ".vm.stlb.misses"), 5u);
  EXPECT_EQ(sum_counters(counters, "ccm", ".l3.hits"), 100u);
  EXPECT_EQ(sum_counters(counters, "dram", ".bytes"), 0u);
}

TEST(ObsCollector, HitRateMetricsOnlyForComponentsWithTraffic) {
  RunObservation observation;
  observation.counters["ccm0.l3.hits"] = 3;
  observation.counters["ccm0.l3.misses"] = 1;
  // The CPU L1d never saw traffic: no l1d_hit_rate row.
  observation.counters["node0.cpu.l1d.hits"] = 0;
  observation.counters["node0.cpu.l1d.misses"] = 0;
  exp::ScenarioResult result;
  add_counter_metrics(result, observation);
  const exp::Metric* l3 = result.find("l3_hit_rate");
  ASSERT_NE(l3, nullptr);
  EXPECT_DOUBLE_EQ(l3->value, 0.75);
  EXPECT_EQ(result.find("l1d_hit_rate"), nullptr);
}

TEST(ObsCollector, NocLinkUtilizationPercentiles) {
  RunObservation observation;
  observation.noc.width = 2;
  observation.noc.height = 1;
  observation.noc.window_ps = 1000;
  observation.noc.links.resize(2 * kLinksPerNode);
  observation.noc.links[0] = LinkTrafficRec{10, 500};  // 0.5 util
  observation.noc.links[1] = LinkTrafficRec{10, 100};  // 0.1 util
  exp::ScenarioResult result;
  add_counter_metrics(result, observation);
  const exp::Metric* max_util = result.find("noc_max_link_util");
  ASSERT_NE(max_util, nullptr);
  EXPECT_DOUBLE_EQ(max_util->value, 0.5);
  ASSERT_NE(result.find("noc_p95_link_util"), nullptr);
}

// ---- observation merging ----

TEST(ObsObservation, MergeSumsCountersAndOffsetsSpans) {
  RunObservation base;
  base.counters["dram0.bytes"] = 10;
  base.spans.push_back(SpanRec{"os", "job0", 0, 100});
  base.noc.width = 1;
  base.noc.height = 1;
  base.noc.window_ps = 100;
  base.noc.links.resize(kLinksPerNode);
  base.noc.links[0] = LinkTrafficRec{2, 50};

  RunObservation layer;
  layer.counters["dram0.bytes"] = 5;
  layer.counters["ccm0.l3.hits"] = 7;
  layer.spans.push_back(SpanRec{"node0.mmae", "ma_mma", 10, 20});
  layer.noc.width = 1;
  layer.noc.height = 1;
  layer.noc.window_ps = 40;
  layer.noc.links.resize(kLinksPerNode);
  layer.noc.links[0] = LinkTrafficRec{3, 25};

  base.merge(layer, 1000);
  EXPECT_EQ(base.counters["dram0.bytes"], 15u);
  EXPECT_EQ(base.counters["ccm0.l3.hits"], 7u);
  ASSERT_EQ(base.spans.size(), 2u);
  EXPECT_EQ(base.spans[1].start, 1010u);
  EXPECT_EQ(base.spans[1].end, 1020u);
  EXPECT_EQ(base.noc.links[0].flits, 5u);
  EXPECT_EQ(base.noc.links[0].busy_ps, 75u);
  EXPECT_EQ(base.noc.window_ps, 140u);
}

// ---- trace writer ----

TEST(ObsTraceWriter, EmitsValidJsonWithEscapedStrings) {
  RunObservation observation;
  observation.spans.push_back(
      SpanRec{"node0.mmae", "fault: \"bad\" \\ page\nretry", 1'000'000,
              3'000'000});
  const std::string json = to_perfetto_json(observation);
  const util::JsonValue doc = util::parse_json(json);  // throws on bad JSON
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 1u);
  const util::JsonValue& event = events->as_array()[0];
  EXPECT_EQ(event.find("name")->as_string(),
            "fault: \"bad\" \\ page\nretry");
  EXPECT_EQ(event.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(event.find("ts")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(event.find("dur")->as_number(), 2.0);
}

TEST(ObsTraceWriter, EmitsNocSidecarSkippingIdleLinks) {
  RunObservation observation;
  observation.spans.push_back(SpanRec{"t", "s", 0, 10});
  observation.noc.width = 2;
  observation.noc.height = 1;
  observation.noc.window_ps = 1000;
  observation.noc.links.resize(2 * kLinksPerNode);
  observation.noc.links[0] = LinkTrafficRec{4, 200};   // node0 eject
  observation.noc.links[8] = LinkTrafficRec{6, 300};   // node1 east
  const util::JsonValue doc =
      util::parse_json(to_perfetto_json(observation));
  const util::JsonValue* noc = doc.find("maco")->find("noc");
  ASSERT_NE(noc, nullptr);
  EXPECT_EQ(noc->find("width")->as_number(), 2.0);
  const auto& links = noc->find("links")->as_array();
  ASSERT_EQ(links.size(), 2u);  // idle links are omitted
  EXPECT_EQ(links[0].find("node")->as_number(), 0.0);
  EXPECT_EQ(links[0].find("dir")->as_string(), "eject");
  EXPECT_EQ(links[1].find("node")->as_number(), 1.0);
  EXPECT_EQ(links[1].find("dir")->as_string(), "east");
}

// ---- host self-profiling ----

TEST(ObsHostProfile, ScopedPhasesAccumulateIntoInstalledSink) {
  HostPhaseProfile profile;
  {
    ScopedHostProfile guard(&profile);
    ScopedPhase setup("setup");
    setup.stop();
    { ScopedPhase sim("sim"); }
  }
  EXPECT_EQ(profile.phases().size(), 2u);
  EXPECT_GE(profile.ms("setup"), 0.0);
  EXPECT_GE(profile.ms("sim"), 0.0);
  EXPECT_EQ(profile.ms("collect"), 0.0);
}

TEST(ObsHostProfile, ScopedPhaseIsANoOpWithoutASink) {
  { ScopedPhase phase("sim"); }  // must not crash or record anywhere
  HostPhaseProfile profile;
  {
    ScopedHostProfile guard(&profile);
    ScopedHostProfile inner(nullptr);  // nested removal
    { ScopedPhase phase("sim"); }
  }
  EXPECT_TRUE(profile.phases().empty());
}

// ---- the `macosim trace` renderer ----

TEST(TraceCmd, RendersGanttFromWriterOutput) {
  RunObservation observation;
  observation.spans.push_back(SpanRec{"node0.mmae", "gemm", 0, 2'000'000});
  observation.spans.push_back(SpanRec{"os", "job0", 0, 4'000'000});
  const driver::TraceRender render =
      driver::render_trace(to_perfetto_json(observation), 40);
  EXPECT_NE(render.gantt.find("2 span(s) on 2 track(s)"),
            std::string::npos);
  EXPECT_NE(render.gantt.find("node0.mmae"), std::string::npos);
  EXPECT_NE(render.gantt.find("os"), std::string::npos);
  EXPECT_TRUE(render.noc_text.empty());  // no NoC sidecar in this trace
  EXPECT_TRUE(render.noc_csv.empty());
}

TEST(TraceCmd, RendersNocHeatmapAndCsv) {
  RunObservation observation;
  observation.spans.push_back(SpanRec{"t", "s", 0, 1'000'000});
  observation.noc.width = 2;
  observation.noc.height = 2;
  observation.noc.window_ps = 1'000'000;
  observation.noc.links.resize(4 * kLinksPerNode);
  observation.noc.links[3 * kLinksPerNode + 3] =
      LinkTrafficRec{8, 500'000};  // node3 east, 50% busy
  const driver::TraceRender render =
      driver::render_trace(to_perfetto_json(observation), 40);
  EXPECT_NE(render.noc_text.find("NoC 2x2 link utilization"),
            std::string::npos);
  EXPECT_NE(render.noc_text.find("50.0"), std::string::npos);
  EXPECT_NE(render.noc_text.find("hottest links:"), std::string::npos);
  EXPECT_NE(render.noc_csv.find("node,x,y,dir,flits,busy_ps,util"),
            std::string::npos);
  EXPECT_NE(render.noc_csv.find("3,1,1,east,8,500000,0.5"),
            std::string::npos);
}

TEST(TraceCmd, AcceptsBareEventArraysAndNumericTids) {
  const std::string trace =
      R"([{"name": "a", "ph": "X", "tid": 7, "ts": 0, "dur": 5},)"
      R"( {"name": "b", "ph": "B", "tid": 7, "ts": 1}])";
  const driver::TraceRender render = driver::render_trace(trace, 40);
  // Only the complete ('X') event renders; the numeric tid gains a prefix.
  EXPECT_NE(render.gantt.find("1 span(s) on 1 track(s)"),
            std::string::npos);
  EXPECT_NE(render.gantt.find("tid7"), std::string::npos);
}

TEST(TraceCmd, RejectsDocumentsThatAreNotChromeTraces) {
  EXPECT_THROW(driver::render_trace("{\"rows\": []}", 40),
               std::runtime_error);
  EXPECT_THROW(driver::render_trace("not json at all", 40),
               std::runtime_error);
}

TEST(TraceCmd, ReportsEmptyTracesInsteadOfCrashing) {
  const driver::TraceRender render =
      driver::render_trace("{\"traceEvents\": []}", 40);
  EXPECT_NE(render.gantt.find("no complete ('X') events"),
            std::string::npos);
}

TEST(TraceCmd, RejectsOutOfRangeTimestampsWithATypedError) {
  // ts + dur beyond 2^63 ps used to overflow llround and wrap the span's
  // end before its start (an assertion abort); every such number is now
  // the renderer's error, which `macosim trace` turns into exit 2.
  for (const char* event :
       {R"({"ph":"X","name":"a","tid":"t","ts":1e13,"dur":1e14})",
        R"({"ph":"X","name":"a","tid":"t","ts":1e300,"dur":1})",
        R"({"ph":"X","name":"a","tid":"t","ts":0,"dur":-1e300})",
        R"({"ph":"X","name":"a","tid":1e300,"ts":0,"dur":1})"}) {
    EXPECT_THROW(driver::render_trace(std::string("[") + event + "]", 40),
                 std::runtime_error)
        << event;
  }
  // The largest timestamps that fit still render.
  const driver::TraceRender render = driver::render_trace(
      R"([{"ph":"X","name":"a","tid":"t","ts":9e12,"dur":9e12}])", 40);
  EXPECT_NE(render.gantt.find("1 span(s) on 1 track(s)"), std::string::npos);
}

TEST(TraceCmd, GanttSummarySpansTheTraceBounds) {
  const std::string chart = driver::render_gantt(
      {SpanRec{"cpu", "setup", 100, 300}, SpanRec{"mmae", "gemm", 200, 900}},
      10);
  EXPECT_EQ(chart.rfind("2 span(s) on 2 track(s), 0.0008 us\n", 0), 0u);
}

TEST(TraceCmd, GanttRowsFollowFirstAppearance) {
  const std::string chart = driver::render_gantt(
      {SpanRec{"node1.mmae", "b", 0, 50}, SpanRec{"node0.mmae", "a", 50, 100}},
      10);
  const auto pos1 = chart.find("node1.mmae");
  const auto pos0 = chart.find("node0.mmae");
  ASSERT_NE(pos1, std::string::npos);
  ASSERT_NE(pos0, std::string::npos);
  EXPECT_LT(pos1, pos0);
}

TEST(TraceCmd, GanttMarksSpanCells) {
  const std::string chart = driver::render_gantt(
      {SpanRec{"t", "xxg", 0, 500}, SpanRec{"t", "yyh", 500, 1000}}, 10);
  EXPECT_NE(chart.find("  t |GGGGGHHHHH|\n"), std::string::npos);
}

// ---- driver integration: profile knob, trace files, cross rules ----

driver::SweepRequest gemm_point(const std::string& profile) {
  driver::SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"fidelity", "detailed"},
                         {"size", "128"},
                         {"nodes", "2"},
                         {"profile", profile}};
  return request;
}

TEST(ObsDriver, ProfileCountersAddsMetricsWithoutChangingTiming) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  const driver::SweepResults off =
      driver::run_sweep(registry, gemm_point("off"));
  const driver::SweepResults counters =
      driver::run_sweep(registry, gemm_point("counters"));
  ASSERT_EQ(off.failures(), 0u);
  ASSERT_EQ(counters.failures(), 0u);

  const exp::Metric* off_ms = off.rows[0].result.find("makespan_ms");
  const exp::Metric* counters_ms =
      counters.rows[0].result.find("makespan_ms");
  ASSERT_NE(off_ms, nullptr);
  ASSERT_NE(counters_ms, nullptr);
  EXPECT_EQ(off_ms->value, counters_ms->value);  // bit-identical timing

  EXPECT_EQ(off.rows[0].result.find("l3_hit_rate"), nullptr);
  const exp::Metric* l3 = counters.rows[0].result.find("l3_hit_rate");
  ASSERT_NE(l3, nullptr);
  EXPECT_GT(l3->value, 0.0);
  EXPECT_LE(l3->value, 1.0);
  EXPECT_NE(counters.rows[0].result.find("matlb_hit_rate"), nullptr);
  EXPECT_NE(counters.rows[0].result.find("noc_max_link_util"), nullptr);
}

TEST(ObsDriver, ProfileCountersOffAnalyticPathFailsWithTheRule) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  driver::SweepRequest request = gemm_point("counters");
  request.base_params["fidelity"] = "analytic";
  const driver::SweepResults results = driver::run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 1u);
  EXPECT_FALSE(results.rows[0].ok());
  EXPECT_NE(results.rows[0].error.find("profile=counters requires"),
            std::string::npos);
}

TEST(ObsDriver, TraceOutWritesOneParseableFilePerPoint) {
  const std::string dir = temp_dir("obs_trace_out");
  driver::SweepRequest request = gemm_point("counters");
  request.trace_out = dir;
  const driver::SweepResults results = driver::run_sweep(
      driver::ScenarioRegistry::builtin(), request);
  ASSERT_EQ(results.failures(), 0u);
  const fs::path file = fs::path(dir) / "gemm_p0.trace.json";
  ASSERT_TRUE(fs::exists(file));
  std::ifstream in(file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue doc = util::parse_json(buffer.str());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_FALSE(doc.find("traceEvents")->as_array().empty());
  EXPECT_NE(doc.find("maco"), nullptr);  // counters add the NoC sidecar
}

TEST(ObsDriver, ServeTraceCarriesInstanceAndRequestSpans) {
  driver::SweepRequest request;
  request.scenario = "serve";
  request.base_params = {{"fidelity", "analytic"},
                         {"model", "tiny"},
                         {"requests", "200"}};
  const std::string dir = temp_dir("obs_serve_trace");
  request.trace_out = dir;
  const driver::SweepResults results = driver::run_sweep(
      driver::ScenarioRegistry::builtin(), request);
  ASSERT_EQ(results.failures(), 0u);
  std::ifstream in(fs::path(dir) / "serve_p0.trace.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue doc = util::parse_json(buffer.str());
  bool instance_span = false;
  bool request_span = false;
  for (const util::JsonValue& event :
       doc.find("traceEvents")->as_array()) {
    const std::string& tid = event.find("tid")->as_string();
    if (tid.rfind("instance", 0) == 0) instance_span = true;
    if (tid.rfind("tenant", 0) == 0) request_span = true;
  }
  EXPECT_TRUE(instance_span);
  EXPECT_TRUE(request_span);
}

}  // namespace
}  // namespace maco::obs

// Pluggable DRAM and interconnect backends: timing units of the queued
// bank/row-buffer model, the two-leg icnt protocol, cross-backend
// agreement and separation on the detailed machine, typed rejection of
// invalid fidelity x backend combinations, and the sweep-JSON import path
// that feeds committed benchmark trajectories into campaign stores.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/detailed_runner.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/store_import.hpp"
#include "driver/sweep_runner.hpp"
#include "mem/dram.hpp"
#include "mem/queued_dram.hpp"
#include "noc/icnt.hpp"
#include "store/campaign_store.hpp"
#include "util/json.hpp"

namespace {

using namespace maco;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

mem::DramConfig queued_config() {
  mem::DramConfig config;
  config.kind = mem::DramKind::kQueued;
  return config;
}

// 64 B at 25.6 GB/s is 2.5 ns of bus time.
constexpr sim::TimePs kXfer = 2'500;
constexpr std::uint64_t kLine = 64;

// ---------------- queued DRAM timing units ----------------

TEST(QueuedDram, ClosedRowAccessMatchesSimpleFlatLatency) {
  // t_rcd + t_cas equals the flat model's access latency by calibration,
  // so a cold isolated access completes at the same instant under both
  // backends — the low-load agreement anchor.
  mem::DramController simple("s", mem::DramConfig{});
  mem::QueuedDramController queued("q", queued_config());
  EXPECT_EQ(simple.access(0, 0, kLine), queued.access(0, 0, kLine));
  EXPECT_EQ(queued.row_misses(), 1u);
}

TEST(QueuedDram, RowHitPaysCasOnly) {
  mem::QueuedDramController dram("q", queued_config());
  dram.access(0, 0, kLine);  // opens row 0 of bank 0
  const sim::TimePs quiet = 1'000'000;  // past every booked resource
  EXPECT_EQ(dram.access(quiet, kLine, kLine),
            quiet + dram.config().t_cas_ps + kXfer);
  EXPECT_EQ(dram.row_hits(), 1u);
}

TEST(QueuedDram, RowConflictPaysPrechargeActivateCas) {
  mem::QueuedDramController dram("q", queued_config());
  dram.access(0, 0, kLine);  // opens row 0 of bank 0
  const sim::TimePs quiet = 1'000'000;
  const std::uint64_t same_bank_next_row = dram.addr_of(0, 1, 0);
  EXPECT_EQ(dram.access(quiet, same_bank_next_row, kLine),
            quiet + dram.config().t_rp_ps + dram.config().t_rcd_ps +
                dram.config().t_cas_ps + kXfer);
  EXPECT_EQ(dram.row_conflicts(), 1u);
}

TEST(QueuedDram, ActToActSpacingDelaysRapidReactivation) {
  mem::DramConfig config = queued_config();
  config.t_rc_ps = 400'000;  // larger than any command sequence here
  mem::QueuedDramController dram("q", config);
  dram.access(0, 0, kLine);  // ACT at 0 -> next ACT >= 400 ns
  const std::uint64_t same_bank_next_row = dram.addr_of(0, 1, 0);
  // The conflict's activate is t_rc-bound, not precharge-bound.
  EXPECT_EQ(dram.access(100'000, same_bank_next_row, kLine),
            config.t_rc_ps + config.t_rcd_ps + config.t_cas_ps + kXfer);
}

TEST(QueuedDram, InterleaveRoundTrips) {
  mem::QueuedDramController dram("q", queued_config());
  for (unsigned bank : {0u, 3u, 7u}) {
    for (std::uint64_t row : {0ull, 1ull, 129ull}) {
      const std::uint64_t addr = dram.addr_of(bank, row, 64);
      EXPECT_EQ(dram.bank_of(addr), bank);
      EXPECT_EQ(dram.row_of(addr), row);
    }
  }
  // Consecutive row-buffer-sized blocks rotate across banks.
  EXPECT_EQ(dram.bank_of(0), 0u);
  EXPECT_EQ(dram.bank_of(dram.config().row_buffer_bytes), 1u);
}

TEST(QueuedDram, BankConflictStrideIsMonotonicallySlower) {
  // Saturating line streams. Holding the bank set fixed, conflicts must
  // cost more than hits (same bank: CAS-paced vs t_rc-paced), and for an
  // all-conflict stream, concentrating it on one bank must cost more than
  // rotating it across every bank (per-bank t_rc overlaps).
  const auto makespan = [](std::uint64_t stride) {
    mem::QueuedDramController dram("q", queued_config());
    sim::TimePs done = 0;
    for (std::uint64_t i = 0; i < 2048; ++i) {
      done = std::max(done, dram.access(0, i * stride, kLine));
    }
    return done;
  };
  const mem::DramConfig config = queued_config();
  const sim::TimePs one_bank_hits = makespan(0);
  const sim::TimePs rotating_conflicts = makespan(config.row_buffer_bytes);
  const sim::TimePs one_bank_conflicts =
      makespan(config.row_buffer_bytes * config.banks);
  EXPECT_LT(one_bank_hits, one_bank_conflicts);
  EXPECT_LT(rotating_conflicts, one_bank_conflicts);
}

TEST(DramModel, UtilizationWindowReopensAtResetStats) {
  // Regression: utilization() divides by time since the LAST reset, not
  // since construction — a long idle span before reset_stats(now) must
  // not dilute the fresh window.
  mem::DramController dram("s", mem::DramConfig{});
  const sim::TimePs idle_until = 10'000'000;
  dram.reset_stats(idle_until);
  dram.access(idle_until, 0, kLine);
  EXPECT_DOUBLE_EQ(dram.utilization(idle_until + kXfer), 1.0);
}

TEST(DramModel, ParseKindRejectsUnknownNamingChoices) {
  EXPECT_EQ(mem::parse_dram_kind("queued"), mem::DramKind::kQueued);
  try {
    mem::parse_dram_kind("fancy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("simple|queued"),
              std::string::npos);
  }
}

// ---------------- icnt backends ----------------

noc::IcntConfig icnt_config(noc::IcntKind kind) {
  noc::IcntConfig config;
  config.kind = kind;
  return config;
}

TEST(Icnt, ParseKindRejectsUnknownNamingChoices) {
  EXPECT_EQ(noc::parse_icnt_kind("flit"), noc::IcntKind::kFlit);
  try {
    noc::parse_icnt_kind("torus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("analytic|flit"),
              std::string::npos);
  }
}

TEST(Icnt, AnalyticLegsPreserveTheClosedForm) {
  // Request leg zero (the home slice is consulted at injection time, as
  // the pre-trait code did) and the response leg the full 2*(hops+1)
  // round trip, load-blind.
  noc::AnalyticIcnt icnt(icnt_config(noc::IcntKind::kAnalytic));
  const unsigned hops = icnt.hop_count(0, 15);  // corner to corner: 6
  EXPECT_EQ(hops, 6u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(icnt.request_leg_ps(0, 0, 15), 0);
    EXPECT_EQ(icnt.response_leg_ps(0, 15, 0, kLine),
              static_cast<sim::TimePs>(2 * (hops + 1)) *
                  icnt.config().hop_ps);
  }
  EXPECT_EQ(icnt.unloaded_round_trip_ps(0, 15, kLine),
            icnt.response_leg_ps(0, 15, 0, kLine));
}

TEST(Icnt, FlitUnloadedRoundTripExceedsAnalyticBySerialization) {
  // Same route, same cycle time: the flit model adds the payload's
  // (flits - 1) serialization cycles on top of the hop pipeline.
  noc::AnalyticIcnt analytic(icnt_config(noc::IcntKind::kAnalytic));
  noc::FlitIcnt flit(icnt_config(noc::IcntKind::kFlit));
  const sim::TimePs extra =
      static_cast<sim::TimePs>(flit.flits_for(kLine) - 1) *
      flit.config().cycle_ps;
  EXPECT_EQ(flit.unloaded_round_trip_ps(0, 15, kLine),
            analytic.unloaded_round_trip_ps(0, 15, kLine) + extra);
}

TEST(Icnt, FlitLegsBookLinksSoOverlappingTransfersContend) {
  noc::FlitIcnt flit(icnt_config(noc::IcntKind::kFlit));
  EXPECT_EQ(flit.busy_horizon_ps(), 0);
  const sim::TimePs first = flit.response_leg_ps(0, 15, 0, kLine);
  const sim::TimePs horizon = flit.busy_horizon_ps();
  EXPECT_GT(horizon, 0);
  // The same route at the same instant queues behind the first wormhole.
  const sim::TimePs second = flit.response_leg_ps(0, 15, 0, kLine);
  EXPECT_GT(second, first);
  EXPECT_GT(flit.busy_horizon_ps(), horizon);
  // Request legs are counted transfers too.
  EXPECT_EQ(flit.transfers(), 0u);
  flit.request_leg_ps(0, 0, 15);
  EXPECT_EQ(flit.transfers(), 1u);
}

// ---------------- detailed-machine cross-validation ----------------

core::TimingOptions detailed_options(std::uint64_t size) {
  core::TimingOptions options;
  options.shape = {size, size, size};
  options.active_nodes = 1;
  return options;
}

TEST(BackendCrossValidation, QueuedAgreesWithSimpleAtLowLoad) {
  // One node, compute-bound GEMM: the command timings are calibrated so
  // the banked model reproduces the flat model within 5% when the DRAM is
  // far from saturation (the ISSUE's agreement acceptance bound).
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.dram.kind = mem::DramKind::kSimple;
  const core::SystemTiming simple =
      core::run_detailed_gemm(config, detailed_options(512));
  config.dram.kind = mem::DramKind::kQueued;
  const core::SystemTiming queued =
      core::run_detailed_gemm(config, detailed_options(512));
  ASSERT_GT(simple.makespan_ps, 0);
  const double ratio = static_cast<double>(queued.makespan_ps) /
                       static_cast<double>(simple.makespan_ps);
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.05);
}

TEST(BackendCrossValidation, FlitIcntAddsContentionOverAnalytic) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  core::TimingOptions options = detailed_options(256);
  options.active_nodes = 4;
  config.icnt = noc::IcntKind::kAnalytic;
  const core::SystemTiming analytic =
      core::run_detailed_gemm(config, options);
  config.icnt = noc::IcntKind::kFlit;
  const core::SystemTiming flit = core::run_detailed_gemm(config, options);
  // Booked links can only delay transfers, and four nodes sharing mesh
  // links must observe some contention — but not runaway queueing.
  EXPECT_GE(flit.makespan_ps, analytic.makespan_ps);
  EXPECT_LT(flit.makespan_ps, 2 * analytic.makespan_ps);
}

// ---------------- typed rejection through the sweep runner ----------------

driver::SweepRequest one_point(const std::string& scenario,
                               std::map<std::string, std::string> params) {
  driver::SweepRequest request;
  request.scenario = scenario;
  request.base_params = std::move(params);
  return request;
}

TEST(BackendKnobs, QueuedUnderAnalyticFidelityFailsWithTheRule) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  const driver::SweepResults results = driver::run_sweep(
      registry,
      one_point("gemm", {{"fidelity", "analytic"}, {"dram", "queued"}}),
      nullptr);
  ASSERT_EQ(results.rows.size(), 1u);
  EXPECT_FALSE(results.rows[0].ok());
  EXPECT_NE(results.rows[0].error.find("cross-schema constraint"),
            std::string::npos);
  EXPECT_NE(results.rows[0].error.find("fidelity=detailed|sampled"),
            std::string::npos);
}

TEST(BackendKnobs, QueuedOnlyKnobsRequireQueuedDram) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  const driver::SweepResults results = driver::run_sweep(
      registry, one_point("micro_dram", {{"dram_banks", "16"}}), nullptr);
  ASSERT_EQ(results.rows.size(), 1u);
  EXPECT_FALSE(results.rows[0].ok());
  EXPECT_NE(results.rows[0].error.find("require dram=queued"),
            std::string::npos);
}

// ---------------- sweep-JSON import ----------------

TEST(JsonParser, ParsesDocumentsAndRejectsMalformedInput) {
  const util::JsonValue doc = util::parse_json(
      R"({"name":"aé\n","n":-2.5e3,"ok":true,"none":null,)"
      R"("list":[1,2]})");
  EXPECT_EQ(doc.find("name")->as_string(), "a\xc3\xa9\n");
  EXPECT_DOUBLE_EQ(doc.find("n")->as_number(), -2500.0);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_TRUE(doc.find("none")->is_null());
  EXPECT_EQ(doc.find("list")->as_array().size(), 2u);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(util::parse_json("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(util::parse_json("[1] trailing"), std::runtime_error);
  EXPECT_THROW(util::parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(util::parse_json(""), std::runtime_error);
}

TEST(JsonParser, RejectsDeepNestingWithATypedError) {
  // 200k levels used to recurse until the stack overflowed.
  const std::string deep(200'000, '[');
  try {
    (void)util::parse_json(deep);
    FAIL() << "expected JsonParseError";
  } catch (const util::JsonParseError& error) {
    EXPECT_NE(std::string(error.what()).find("nesting deeper than"),
              std::string::npos);
    EXPECT_EQ(error.offset(), util::kMaxJsonDepth);
  }
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)util::parse_json(objects), util::JsonParseError);

  // Exactly at the cap still parses.
  const std::size_t depth = util::kMaxJsonDepth;
  const std::string ok = std::string(depth, '[') + std::string(depth, ']');
  EXPECT_TRUE(util::parse_json(ok).is_array());
  EXPECT_THROW((void)util::parse_json("[" + ok + "]"), util::JsonParseError);
}

TEST(StoreImport, ImportedRowsAreFingerprintedAndIdempotent) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  const std::string json =
      R"({"scenario":"micro_dram",)"
      R"("columns":[{"name":"makespan_us","unit":"us",)"
      R"("higher_is_better":false}],)"
      R"("rows":[{"params":{"dram":"queued","stride_bytes":"16384"},)"
      R"("metrics":{"makespan_us":312.3}},)"
      R"({"params":{"dram":"simple"},"metrics":{"makespan_us":5.2}},)"
      R"({"params":{"dram":"simple","accesses":"1"},"metrics":{},)"
      R"("error":"boom"}]})";
  const std::string path = temp_path("backend_import.mdb");
  std::filesystem::remove(path);
  {
    store::CampaignStore store(path);
    const driver::ImportSummary summary =
        driver::import_sweep_json(registry, json, store);
    EXPECT_EQ(summary.imported, 2u);
    EXPECT_EQ(summary.skipped, 0u);
    EXPECT_EQ(summary.errored, 1u);
    // Same trajectory again: every point already present.
    const driver::ImportSummary again =
        driver::import_sweep_json(registry, json, store);
    EXPECT_EQ(again.imported, 0u);
    EXPECT_EQ(again.skipped, 2u);
  }
  store::CampaignStore store(path, store::CampaignStore::Mode::kReadOnly);
  ASSERT_EQ(store.size(), 2u);
  const store::CampaignRecord& record = store.records()[0];
  // Defaults were filled by the bind and the explicit subset preserved, so
  // the fingerprint matches what a live sweep of the same point computes.
  EXPECT_EQ(record.fingerprint, record.computed_fingerprint());
  EXPECT_EQ(record.params.at("dram"), "queued");
  EXPECT_EQ(record.params.at("accesses"), "4096");
  EXPECT_TRUE(record.explicit_params.count("stride_bytes"));
  EXPECT_FALSE(record.explicit_params.count("accesses"));
  ASSERT_EQ(record.metrics.size(), 1u);
  EXPECT_EQ(record.metrics[0].unit, "us");
  EXPECT_FALSE(record.metrics[0].higher_is_better);
}

TEST(StoreImport, RejectsUnknownParametersAndScenarios) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  const std::string path = temp_path("backend_import_bad.mdb");
  std::filesystem::remove(path);
  store::CampaignStore store(path);
  EXPECT_THROW(driver::import_sweep_json(
                   registry, R"({"scenario":"nope","rows":[]})", store),
               std::invalid_argument);
  try {
    driver::import_sweep_json(
        registry,
        R"({"scenario":"micro_dram",)"
        R"("rows":[{"params":{"bogus":"1"},"metrics":{}}]})",
        store);
    FAIL() << "expected a schema-drift error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("row 0"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
  }
  // A row violating a cross-schema rule cannot be imported either: the
  // micro_dram scenario pins icnt=analytic.
  EXPECT_THROW(driver::import_sweep_json(
                   registry,
                   R"({"scenario":"micro_dram",)"
                   R"("rows":[{"params":{"icnt":"flit"},"metrics":{}}]})",
                   store),
               std::runtime_error);
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace

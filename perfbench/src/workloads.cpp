// The three benchmark workloads. Each turns its seed into a fixed round of
// ops (shape jitter, backend pairing, data seeds, sample seeds) and runs
// one op per call through libmaco's public functions.
//
// Every op builds its own machine or model, so caches, TLBs and the
// directory start empty for each op; the only warm state is the sampled
// rung's own warm-up task per tile.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/detailed_runner.hpp"
#include "core/maco_system.hpp"
#include "core/mapped_gemm.hpp"
#include "core/timing_model.hpp"
#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"
#include "mmae/accelerator_controller.hpp"
#include "model/roofline.hpp"
#include "obs/collector.hpp"
#include "obs/observation.hpp"
#include "os/scheduler.hpp"
#include "perfbench.hpp"
#include "sa/host_matrix.hpp"
#include "sampling/sampled_runner.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace maco;

// center - step, center or center + step. Seeds move every shape a little
// around a fixed center, so the round's mix of work, and with it every
// end-to-end metric, stays comparable from seed to seed.
std::uint64_t jitter(util::Rng& rng, std::uint64_t center,
                     std::uint64_t step) {
  return center - step + step * rng.next_below(3);
}

// FNV-1a over the bit patterns of simulated outputs: a repeated op must
// reproduce its first execution exactly.
class Hash {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ = (state_ ^ ((value >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

bool efficiency_ok(double efficiency) {
  return std::isfinite(efficiency) && efficiency > 0.0 && efficiency <= 1.0;
}

// Σ 2·M·N·K·repeat over the lowered layers with every step checked for
// uint64 overflow; false when the sum does not fit.
bool checked_model_flops(const wl::Workload& workload, std::uint64_t& out) {
  out = 0;
  for (const wl::Layer& layer : workload.layers) {
    std::uint64_t flops = 2;
    for (const std::uint64_t factor :
         {layer.shape.m, layer.shape.n, layer.shape.k,
          static_cast<std::uint64_t>(layer.repeat)}) {
      if (__builtin_mul_overflow(flops, factor, &flops)) return false;
    }
    if (__builtin_add_overflow(out, flops, &out)) return false;
  }
  return true;
}

void check_model_flops(const graph::LoweredModel& lowered, OpRecord& record) {
  std::uint64_t expected = 0;
  if (!checked_model_flops(lowered.workload, expected)) {
    record.failures.push_back("lowered FLOPs overflow uint64");
  } else if (expected != lowered.total_flops()) {
    record.failures.push_back("lowered FLOPs " +
                              std::to_string(lowered.total_flops()) +
                              " != checked sum " + std::to_string(expected));
  }
}

void check_timing(const core::SystemTiming& timing, OpRecord& record) {
  if (!(timing.makespan_ps > 0)) {
    record.failures.push_back("makespan is not positive");
  }
  if (!efficiency_ok(timing.mean_efficiency)) {
    record.failures.push_back("efficiency " +
                              std::to_string(timing.mean_efficiency) +
                              " outside (0, 1]");
  }
}

// Sums of one machine's component counters (obs::collect) into the
// per-layer counter names.
void add_machine_counters(const obs::RunObservation& observation,
                          double makespan_ps, unsigned dram_channels,
                          Counters& sums) {
  const auto sum = [&](std::string_view prefix, std::string_view suffix) {
    return static_cast<double>(
        obs::sum_counters(observation.counters, prefix, suffix));
  };
  const auto hit_rate_base = [&](const std::string& name,
                                 std::string_view prefix,
                                 std::string_view component) {
    const double hits = sum(prefix, std::string(component) + ".hits");
    sums[name + "_hits"] += hits;
    sums[name + "_accesses"] +=
        hits + sum(prefix, std::string(component) + ".misses");
  };
  hit_rate_base("mem.l3", "ccm", ".l3");
  hit_rate_base("mem.l1d", "node", ".cpu.l1d");
  hit_rate_base("mem.l2", "node", ".cpu.l2");
  hit_rate_base("vm.stlb", "node", ".vm.stlb");
  hit_rate_base("vm.matlb", "node", ".mmae.matlb");
  sums["mem.ccm_recalls"] += sum("ccm", ".recalls");
  sums["mem.stash_hits"] += sum("ccm", ".stash_hits");
  sums["mem.stash_fills"] += sum("ccm", ".stash_fills");
  sums["mem.dram_bytes"] += sum("dram", ".bytes");
  sums["mem.dram_busy_ps"] += sum("dram", ".busy_ps");
  sums["mem.dram_window_ps"] += makespan_ps * dram_channels;
  sums["mem.dram_row_hits"] += sum("dram", ".row_hits");
  sums["mem.dram_row_accesses"] += sum("dram", ".row_hits") +
                                   sum("dram", ".row_misses") +
                                   sum("dram", ".row_conflicts");
  sums["noc.packets"] += sum("noc.icnt.transfers", "");
  sums["vm.walks"] += sum("node", ".vm.walker.walks");
  sums["vm.pte_reads"] += sum("node", ".vm.walker.pte_reads");
  sums["vm.matlb_late_predictions"] +=
      sum("node", ".mmae.matlb.late_predictions");
  sums["cpu.mtq_backoffs"] += sum("node", ".cpu.mtq.backoffs");
  sums["sim.events"] += sum("engine.events", "");

  double flit_hops = 0.0;
  double max_util = 0.0;
  for (const obs::LinkTrafficRec& link : observation.noc.links) {
    flit_hops += static_cast<double>(link.flits);
    if (observation.noc.window_ps > 0) {
      max_util = std::max(max_util,
                          static_cast<double>(link.busy_ps) /
                              static_cast<double>(observation.noc.window_ps));
    }
  }
  sums["noc.flit_hops"] += flit_hops;
  double& peak = sums["noc.max_link_util"];
  peak = std::max(peak, max_util);
}

// What the MMAE task reports of one op say about the array and its DMA.
void add_report_counters(const mmae::TaskReport& report, Counters& sums) {
  sums["mmae.dma_bytes"] += static_cast<double>(report.dma_bytes);
  sums["mmae.sa_busy_ps"] += static_cast<double>(report.sa_busy_ps);
  sums["mmae.translation_stall_ps"] +=
      static_cast<double>(report.translation_stall_ps);
  sums["mmae.task_span_ps"] += static_cast<double>(report.end - report.start);
}

// A builtin manifest lowered for one op.
struct ModelPoint {
  std::string model;
  graph::Phase phase = graph::Phase::kPrefill;
  std::uint64_t batch = 1;
  std::uint64_t seq_len = 0;  // 0: the manifest default

  std::string label() const {
    return model + " " + graph::phase_name(phase) +
           " batch=" + std::to_string(batch) +
           " seq=" + std::to_string(seq_len);
  }
};

struct Lowered {
  graph::LoweredModel model;
  std::vector<sa::TileShape> shapes;  // expanded by repeat counts
};

// Parses and lowers `point`, charging both to the op's set-up time. Every
// manifest op keeps at most two repeated blocks: run_layers evaluates each
// repeated block again (the gpt3 manifest's 96 blocks take seconds per
// evaluation), so a shallower stack keeps the per-block cost while
// bounding an op's host time; the sampled rung collapses repeats into one
// stratum either way.
Lowered lower_builtin(const ModelPoint& point, Tracer& tracer,
                      OpRecord& record) {
  Timed parse(tracer, "graph.parse");
  graph::ModelGraph graph_model = graph::builtin_graph(point.model);
  for (graph::OpDecl& decl : graph_model.ops) {
    decl.repeat = std::min(decl.repeat, 2u);
  }
  record.setup_ms += parse.stop();

  Timed lower(tracer, "graph.lower");
  graph::LoweringOptions lowering;
  lowering.batch = point.batch;
  lowering.seq_len = point.seq_len;
  lowering.phase = point.phase;
  Lowered out{graph::lower(graph_model, lowering), {}};
  out.shapes = out.model.workload.expanded_shapes();
  record.setup_ms += lower.stop();
  return out;
}

core::SystemConfig base_config(unsigned nodes, bool counters) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = nodes;
  config.profile =
      counters ? core::ProfileMode::kCounters : core::ProfileMode::kOff;
  return config;
}

// ---------------------------------------------------------------------------
// detailed_gemm: seeded FP64 GEMMs with real data on the detailed machine.

class DetailedGemm final : public Workload {
 public:
  explicit DetailedGemm(std::uint64_t seed) {
    // Strata of the round: the Fig. 7 shape (one independent GEMM per
    // node) at 1, 4 and 16 nodes, and the Fig. 5 cooperative mapping at 4
    // and 16 nodes, two ops each. Every op simulates about 2^28 MACs
    // (16 nodes x 256^3), so host time per op compares across node counts
    // and mappings, and the round's median sits in a dense band of ops.
    // The pair of a stratum takes complementary backends (the other dram
    // and the other icnt), so every round holds each backend equally often.
    struct Stratum {
      bool cooperative;
      unsigned nodes;
      std::uint64_t center;
    };
    static constexpr Stratum kStrata[] = {
        {false, 1, 640}, {false, 4, 400}, {false, 16, 256},
        {true, 4, 640},  {true, 16, 640},
    };
    util::Rng rng(seed ^ 0xd371edull);
    for (const Stratum& stratum : kStrata) {
      const bool queued = rng.next_bool(0.5);
      const bool flit = rng.next_bool(0.5);
      for (const bool first : {true, false}) {
        Op op;
        op.cooperative = stratum.cooperative;
        op.nodes = stratum.nodes;
        op.shape = {jitter(rng, stratum.center, 8),
                    jitter(rng, stratum.center, 8),
                    jitter(rng, stratum.center, 8)};
        op.dram = queued == first ? mem::DramKind::kQueued
                                  : mem::DramKind::kSimple;
        op.icnt = flit == first ? noc::IcntKind::kFlit
                                : noc::IcntKind::kAnalytic;
        op.data_seed = rng();
        ops_.push_back(op);
      }
    }
    verified_.assign(ops_.size(), false);
  }

  std::size_t round_size() const override { return ops_.size(); }

  OpRecord run(std::size_t index, Tracer& tracer,
               Counters* counters) override {
    const Op& op = ops_[index];
    OpRecord record;
    record.index = index;
    record.label = std::string(op.cooperative ? "coop" : "indep") +
                   " n=" + std::to_string(op.nodes) + " " +
                   std::to_string(op.shape.m) + "x" +
                   std::to_string(op.shape.n) + "x" +
                   std::to_string(op.shape.k) + " dram=" +
                   std::string(mem::dram_kind_name(op.dram)) +
                   " icnt=" + std::string(noc::icnt_kind_name(op.icnt));
    core::SystemConfig config = base_config(op.nodes, counters != nullptr);
    config.dram.kind = op.dram;
    config.icnt = op.icnt;

    core::TimingOptions options;
    options.shape = op.shape;
    options.precision = sa::Precision::kFp64;
    options.active_nodes = op.nodes;
    options.cooperative = op.cooperative;

    const bool verify = !verified_[index];
    if (op.cooperative) {
      run_cooperative(op, config, tracer, counters, verify, record);
    } else {
      run_independent(op, config, options, tracer, counters, verify, record);
    }
    verified_[index] = true;

    {
      Timed analytic(tracer, "core.analytic");
      const core::SystemTiming reference =
          core::SystemTimingModel(config).run(options);
      record.reference_ps = static_cast<double>(reference.makespan_ps);
    }
    if (counters != nullptr) (*counters)["core.analytic_calls"] += 1;
    record.sim_gflop = static_cast<double>(op.shape.flops()) *
                       (op.cooperative ? 1 : op.nodes) / 1e9;
    return record;
  }

 private:
  struct Op {
    bool cooperative = false;
    unsigned nodes = 1;
    sa::TileShape shape;
    mem::DramKind dram = mem::DramKind::kSimple;
    noc::IcntKind icnt = noc::IcntKind::kAnalytic;
    std::uint64_t data_seed = 0;
  };

  // C read back from the machine against sa::reference_gemm over A and B
  // read back the same way; C started at zero, so C == A·B.
  static void check_product(core::MacoSystem& system, core::Process& process,
                            const vm::MatrixDesc& a, const vm::MatrixDesc& b,
                            const vm::MatrixDesc& c, bool verify,
                            Hash& hash, OpRecord& record) {
    const sa::HostMatrix product = system.read_matrix(process, c);
    for (const double value : product.data()) hash.add(value);
    if (!verify) return;
    const auto start = std::chrono::steady_clock::now();
    sa::HostMatrix expected(c.rows, c.cols);
    sa::reference_gemm(system.read_matrix(process, a),
                       system.read_matrix(process, b), expected);
    record.verify_ms += std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const double tolerance = 1e-12 * static_cast<double>(a.cols);
    if (!product.approx_equal(expected, tolerance)) {
      record.failures.push_back("C differs from the reference GEMM");
    }
  }

  void run_independent(const Op& op, const core::SystemConfig& config,
                       const core::TimingOptions& options, Tracer& tracer,
                       Counters* counters, bool verify, OpRecord& record) {
    double setup_ms = 0.0;
    Timed build(tracer, "core.build");
    core::MacoSystem system(config);
    setup_ms += build.stop();

    Timed load(tracer, "core.operand_load");
    os::Scheduler::Options sched_options;
    sched_options.nodes = op.nodes;
    os::Scheduler scheduler(system, sched_options);
    std::vector<core::Process*> processes;
    for (unsigned n = 0; n < op.nodes; ++n) {
      core::Process& process = system.create_process();
      os::Job& job = scheduler.add_job(process);
      job.tasks.push_back(os::GemmTask{core::build_detailed_gemm_task(
          system, process, options.shape, options, 0, 0, 0,
          op.data_seed + n)});
      processes.push_back(&process);
    }
    setup_ms += load.stop();
    record.setup_ms = setup_ms;

    Timed call(tracer, "sim.run");
    const os::SchedulerStats stats = scheduler.run_all();
    record.op_ms = call.stop();

    Timed check(tracer, "bench.check");
    Hash hash;
    if (stats.tasks_failed != 0 || stats.tasks_completed != op.nodes) {
      record.failures.push_back(
          std::to_string(stats.tasks_completed) + " of " +
          std::to_string(op.nodes) + " task(s) completed");
    }
    for (const os::Job& job : scheduler.jobs()) {
      for (const os::GemmTask& task : job.tasks) {
        if (!task.done) record.failures.push_back("a task did not complete");
      }
    }
    const double peak_macs = config.mmae_peak_macs(options.precision);
    double min_span = 0.0;
    double max_span = 0.0;
    double makespan = 0.0;
    for (unsigned n = 0; n < op.nodes; ++n) {
      // A repaired fault leaves an exception report before the retry; the
      // node's last clean report is its completed task.
      const mmae::TaskReport* done = nullptr;
      for (const mmae::TaskReport& report : system.node(n).mmae().reports()) {
        if (report.exception == cpu::ExceptionType::kNone) done = &report;
      }
      if (done == nullptr) {
        record.failures.push_back("node " + std::to_string(n) +
                                  " has no completed task report");
        continue;
      }
      const double efficiency = done->efficiency(peak_macs);
      if (!efficiency_ok(efficiency)) {
        record.failures.push_back("node " + std::to_string(n) +
                                  " efficiency outside (0, 1]");
      }
      record.efficiency += efficiency / op.nodes;
      const double span = static_cast<double>(done->end - done->start);
      min_span = n == 0 ? span : std::min(min_span, span);
      max_span = std::max(max_span, span);
      makespan = std::max(makespan, static_cast<double>(done->end));
      if (counters != nullptr) add_report_counters(*done, *counters);

      const isa::GemmParams& params = scheduler.jobs()[n].tasks[0].params;
      const auto desc = [](std::uint64_t base, std::uint64_t rows,
                           std::uint64_t cols) {
        vm::MatrixDesc d;
        d.base = base;
        d.rows = rows;
        d.cols = cols;
        return d;
      };
      check_product(system, *processes[n],
                    desc(params.a_base, op.shape.m, op.shape.k),
                    desc(params.b_base, op.shape.k, op.shape.n),
                    desc(params.c_base, op.shape.m, op.shape.n), verify,
                    hash, record);
    }
    record.makespan_ps = makespan;
    hash.add(makespan);
    record.result_hash = hash.value();
    check.stop();

    if (counters != nullptr) {
      Counters& sums = *counters;
      if (op.nodes > 1 && min_span > 0.0) {
        sums["core.node_span_skew_sum"] += max_span / min_span;
        sums["core.node_span_skew_ops"] += 1;
      }
      sums["os.context_switches"] +=
          static_cast<double>(stats.context_switches);
      sums["os.tasks_completed"] += static_cast<double>(stats.tasks_completed);
      collect(system, makespan, config, tracer, sums);
    }
  }

  void run_cooperative(const Op& op, const core::SystemConfig& config,
                       Tracer& tracer, Counters* counters, bool verify,
                       OpRecord& record) {
    double setup_ms = 0.0;
    Timed build(tracer, "core.build");
    core::MacoSystem system(config);
    setup_ms += build.stop();

    Timed load(tracer, "core.operand_load");
    core::Process& process = system.create_process();
    util::Rng rng(op.data_seed);
    const sa::TileShape& shape = op.shape;
    const vm::MatrixDesc a = system.alloc_matrix(process, shape.m, shape.k);
    const vm::MatrixDesc b = system.alloc_matrix(process, shape.k, shape.n);
    const vm::MatrixDesc c = system.alloc_matrix(process, shape.m, shape.n);
    system.write_matrix(process, a,
                        sa::HostMatrix::random(shape.m, shape.k, rng));
    system.write_matrix(process, b,
                        sa::HostMatrix::random(shape.k, shape.n, rng));
    system.write_matrix(process, c, sa::HostMatrix(shape.m, shape.n));
    setup_ms += load.stop();
    record.setup_ms = setup_ms;

    core::MappedGemmOptions mapped;
    mapped.nodes = op.nodes;
    Timed call(tracer, "sim.run");
    const core::MappedGemmResult result =
        core::MappedGemmRunner(system).run(process, a, b, c, mapped);
    record.op_ms = call.stop();

    Timed check(tracer, "bench.check");
    Hash hash;
    if (!result.ok || result.first_exception != cpu::ExceptionType::kNone) {
      record.failures.push_back("mapped GEMM did not complete");
    }
    record.makespan_ps = static_cast<double>(result.makespan_ps);
    const double peak_macs = config.mmae_peak_macs(sa::Precision::kFp64);
    record.efficiency =
        result.makespan_ps > 0
            ? static_cast<double>(op.shape.macs()) /
                  (maco::sim::to_seconds(result.makespan_ps) * op.nodes *
                   peak_macs)
            : 0.0;
    if (!efficiency_ok(record.efficiency)) {
      record.failures.push_back("efficiency outside (0, 1]");
    }
    check_product(system, process, a, b, c, verify, hash, record);
    hash.add(record.makespan_ps);
    record.result_hash = hash.value();
    check.stop();

    if (counters != nullptr) {
      for (unsigned n = 0; n < op.nodes; ++n) {
        for (const mmae::TaskReport& report :
             system.node(n).mmae().reports()) {
          add_report_counters(report, *counters);
        }
      }
      collect(system, record.makespan_ps, config, tracer, *counters);
    }
  }

  static void collect(core::MacoSystem& system, double makespan_ps,
                      const core::SystemConfig& config, Tracer& tracer,
                      Counters& sums) {
    Timed span(tracer, "obs.collect");
    obs::RunObservation observation;
    observation.want_counters = true;
    obs::collect(system, observation);
    add_machine_counters(observation, makespan_ps, config.dram_channels,
                         sums);
  }

  std::vector<Op> ops_;
  std::vector<bool> verified_;
};

// ---------------------------------------------------------------------------
// sampled_dnn: the builtin DNN manifests estimated by the sampled rung.

class SampledDnn final : public Workload {
 public:
  explicit SampledDnn(std::uint64_t seed) {
    struct Model {
      const char* name;
      std::uint64_t batch;
      std::uint64_t seq;  // 0: the manifest has no sequence (resnet)
    };
    // Fixed shapes keep an op within about two host seconds; the seed
    // draws each op's sample_seed, which picks the tiles simulated.
    static constexpr Model kModels[] = {
        {"bert-block", 1, 128},
        {"resnet50-stage", 1, 0},
        {"moe-mlp", 4, 64},
        {"gpt3-block", 1, 96},
    };
    util::Rng rng(seed ^ 0x5a3b1edull);
    for (const Model& model : kModels) {
      for (const graph::Phase phase :
           {graph::Phase::kPrefill, graph::Phase::kDecode}) {
        // Convolutions lower the same in both phases.
        if (model.seq == 0 && phase == graph::Phase::kDecode) continue;
        for (const unsigned nodes : {4u, 16u}) {
          ops_.push_back(
              Op{{model.name, phase, model.batch, model.seq}, nodes, rng()});
        }
      }
    }
  }

  std::size_t round_size() const override { return ops_.size(); }

  OpRecord run(std::size_t index, Tracer& tracer,
               Counters* counters) override {
    const Op& op = ops_[index];
    OpRecord record;
    record.index = index;
    record.label = op.point.label() + " n=" + std::to_string(op.nodes);
    const Lowered lowered = lower_builtin(op.point, tracer, record);
    const std::vector<sa::TileShape>& shapes = lowered.shapes;

    const core::SystemConfig config = base_config(16, false);
    core::TimingOptions options;
    options.precision = lowered.model.workload.precision;
    options.active_nodes = op.nodes;
    options.cooperative = true;
    options.tile_rows = options.tile_cols = kTile;
    options.sample_frac = kSampleFrac;
    options.sample_seed = op.sample_seed;
    options.sample_workers = 1;

    Timed call(tracer, "sampling.run");
    const core::SystemTiming timing =
        sampling::run_sampled_layers(config, shapes, options);
    record.op_ms = call.stop();

    {
      Timed analytic(tracer, "core.analytic");
      record.reference_ps = static_cast<double>(
          core::SystemTimingModel(config).run_layers(shapes, options)
              .makespan_ps);
    }

    Timed check(tracer, "bench.check");
    check_model_flops(lowered.model, record);
    check_timing(timing, record);
    const double ci = timing.sampling.makespan_ci95_ps;
    if (!std::isfinite(ci) || !(ci > 0.0) ||
        !std::isfinite(timing.sampling.makespan_se_ps) ||
        timing.sampling.sampled_tiles == 0) {
      record.failures.push_back("sampled estimate carries no finite CI");
    }
    record.makespan_ps = static_cast<double>(timing.makespan_ps);
    record.efficiency = timing.mean_efficiency;
    record.ci_rel = timing.sampling.rel_ci95(record.makespan_ps);
    record.sim_gflop = static_cast<double>(lowered.model.total_flops()) / 1e9;
    Hash hash;
    hash.add(record.makespan_ps);
    hash.add(ci);
    hash.add(timing.mean_efficiency);
    record.result_hash = hash.value();
    check.stop();

    if (counters != nullptr) {
      Counters& sums = *counters;
      sums["graph.layers"] +=
          static_cast<double>(lowered.model.workload.layers.size());
      sums["core.analytic_calls"] += 1;
      sums["sampling.sampled_tiles"] +=
          static_cast<double>(timing.sampling.sampled_tiles);
      sums["sampling.total_tiles"] +=
          static_cast<double>(timing.sampling.total_tiles);
      sums["sampling.ci_rel_sum"] += record.ci_rel;
      sums["sampling.ops"] += 1;
      for (const core::NodeTiming& node : timing.nodes) {
        sums["mmae.sa_busy_ps"] += static_cast<double>(node.compute_ps);
        sums["mmae.translation_stall_ps"] +=
            static_cast<double>(node.translation_exposed_ps);
        sums["mmae.task_span_ps"] += static_cast<double>(node.span_ps);
      }
    }
    return record;
  }

 private:
  static constexpr std::uint64_t kTile = 256;
  static constexpr double kSampleFrac = 0.001;

  struct Op {
    ModelPoint point;
    unsigned nodes = 16;
    std::uint64_t sample_seed = 1;
  };
  std::vector<Op> ops_;
};

// ---------------------------------------------------------------------------
// analytic_sweep: paper-scale points through the closed-form timing model.

class AnalyticSweep final : public Workload {
 public:
  explicit AnalyticSweep(std::uint64_t seed) {
    struct Model {
      const char* name;
      std::uint64_t batch;
      std::uint64_t seq;
    };
    static constexpr Model kModels[] = {
        {"bert-block", 4, 384}, {"resnet50-stage", 4, 0},
        {"moe-mlp", 4, 64},     {"gpt3-block", 2, 512},
        {"tiny", 2, 16},
    };
    static constexpr unsigned kNodes[] = {1, 4, 16};
    util::Rng rng(seed ^ 0xa1a17cull);
    // Every (model, phase) runs at every precision and node count, so the
    // seed moves only sequence lengths and GEMM sizes.
    for (const Model& model : kModels) {
      for (const graph::Phase phase :
           {graph::Phase::kPrefill, graph::Phase::kDecode}) {
        for (const sa::Precision precision :
             {sa::Precision::kFp64, sa::Precision::kFp32,
              sa::Precision::kFp16}) {
          for (const unsigned nodes : kNodes) {
            Op op;
            const std::uint64_t seq =
                model.seq == 0 ? 0 : jitter(rng, model.seq, model.seq / 16);
            op.point = {model.name, phase, model.batch, seq};
            op.precision = precision;
            op.nodes = nodes;
            ops_.push_back(op);
          }
        }
      }
    }
    // Fig. 7 points: one independent FP64 GEMM per node.
    static constexpr std::uint64_t kGemmCenters[] = {4096, 16256};
    for (const unsigned nodes : kNodes) {
      for (const std::uint64_t center : kGemmCenters) {
        Op op;
        op.size = jitter(rng, center, 128);
        op.precision = sa::Precision::kFp64;
        op.nodes = nodes;
        ops_.push_back(op);
      }
    }
  }

  std::size_t round_size() const override { return ops_.size(); }

  OpRecord run(std::size_t index, Tracer& tracer,
               Counters* counters) override {
    const Op& op = ops_[index];
    OpRecord record;
    record.index = index;
    const core::SystemConfig config = base_config(16, false);
    core::TimingOptions options;
    options.precision = op.precision;
    options.active_nodes = op.nodes;

    if (op.point.model.empty()) {
      record.label = "gemm " + std::to_string(op.size) + "^3 n=" +
                     std::to_string(op.nodes);
      Timed build(tracer, "core.build");
      const core::SystemTimingModel model(config);
      record.setup_ms = build.stop();
      options.shape = {op.size, op.size, op.size};
      Timed call(tracer, "core.analytic");
      const core::SystemTiming timing = model.run(options);
      record.op_ms = call.stop();

      Timed check(tracer, "bench.check");
      check_timing(timing, record);
      finish(record, timing, {options.shape}, config, options, op.nodes);
      record.sim_gflop = static_cast<double>(options.shape.flops()) *
                         op.nodes / 1e9;
    } else {
      record.label = op.point.label() + " " +
                     sa::precision_name(op.precision) +
                     " n=" + std::to_string(op.nodes);
      const Lowered lowered = lower_builtin(op.point, tracer, record);
      Timed build(tracer, "core.build");
      const core::SystemTimingModel model(config);
      record.setup_ms += build.stop();

      options.cooperative = true;
      Timed call(tracer, "core.analytic");
      const core::SystemTiming timing =
          model.run_layers(lowered.shapes, options);
      record.op_ms = call.stop();

      Timed check(tracer, "bench.check");
      check_model_flops(lowered.model, record);
      check_timing(timing, record);
      finish(record, timing, lowered.shapes, config, options, 1);
      record.sim_gflop = static_cast<double>(lowered.model.total_flops()) / 1e9;
      if (counters != nullptr) {
        (*counters)["graph.layers"] +=
            static_cast<double>(lowered.model.workload.layers.size());
      }
    }
    if (counters != nullptr) (*counters)["core.analytic_calls"] += 1;
    return record;
  }

 private:
  struct Op {
    ModelPoint point;  // model empty: a Fig. 7 GEMM point of `size`
    std::uint64_t size = 0;
    sa::Precision precision = sa::Precision::kFp64;
    unsigned nodes = 16;
  };

  // The reference of the analytic rung is the roofline bound: each shape
  // at min(compute roof, DRAM roof × blocked arithmetic intensity) over
  // the active nodes; `copies` independent GEMMs share the DRAM roof.
  static void finish(OpRecord& record, const core::SystemTiming& timing,
                     const std::vector<sa::TileShape>& shapes,
                     const core::SystemConfig& config,
                     const core::TimingOptions& options, unsigned copies) {
    const double roof = config.mmae_peak_flops(options.precision) *
                        options.active_nodes / copies;
    const double bandwidth =
        config.dram_total_bandwidth() * config.dram_efficiency / copies;
    double seconds = 0.0;
    for (const sa::TileShape& shape : shapes) {
      const double intensity = model::gemm_arithmetic_intensity(
          shape.m, shape.n, shape.k, std::min(shape.m, options.tile_rows),
          std::min(shape.n, options.tile_cols),
          sa::element_bytes(options.precision));
      seconds += static_cast<double>(shape.flops()) /
                 model::attainable_flops(roof, bandwidth, intensity);
    }
    record.reference_ps = seconds * 1e12;
    record.makespan_ps = static_cast<double>(timing.makespan_ps);
    record.efficiency = timing.mean_efficiency;
    Hash hash;
    hash.add(record.makespan_ps);
    hash.add(timing.mean_efficiency);
    record.result_hash = hash.value();
  }

  std::vector<Op> ops_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "detailed_gemm") return std::make_unique<DetailedGemm>(seed);
  if (name == "sampled_dnn") return std::make_unique<SampledDnn>(seed);
  if (name == "analytic_sweep") return std::make_unique<AnalyticSweep>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench

// maco_perfbench: runs one benchmark workload against libmaco and prints
// its metrics.
//
//   maco_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>]
//
// An untraced run (--trace 0) measures the end-to-end metrics. A traced
// run (--trace 1) alternates untraced rounds with rounds that record spans
// and component counters; it prints the per-layer table and the tracing
// overhead, and writes the spans as Chrome trace JSON to --trace-out. The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <unordered_map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

// Runs execute whole rounds, at least kMinOps ops and two rounds. The tail
// is the nearest-rank percentile 1 - 10 / (the fewest ops a run executes):
// every run has at least ten ops beyond it, and runs of different lengths
// read the same percentile of the same mix.
constexpr std::size_t kMinOps = 30;

std::size_t min_rounds(std::size_t round_size) {
  return std::max<std::size_t>(2, (kMinOps + round_size - 1) / round_size);
}

struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> values, std::size_t round_size) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t fewest = min_rounds(round_size) * round_size;
  const std::size_t n = values.size();
  // ceil(n * (fewest - 10) / fewest), in integers.
  const std::size_t rank = std::max<std::size_t>(
      1, (n * (fewest - 10) + fewest - 1) / fewest);
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  tail.percentile = 100.0 * static_cast<double>(fewest - 10) / fewest;
  return tail;
}

// The process's own high-water RSS. VmHWM belongs to the address space
// exec created; ru_maxrss would also carry the launching process's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// Host speed calibration. The host-time metrics are reported at a
// reference host speed: each measured time is scaled by
// kReferenceCalibrationMs / (the run's median time of calibration_kernel()).
// The kernel is benchmark code that no change to libmaco touches, and it
// does what the simulator's host time is made of (hash-map updates and
// lookups over a few MB, a sort), so it slows and speeds up with the host
// the way the simulator does. On shared virtual machines the host's speed
// moves by up to 1.7x over minutes; scaled times cancel that, while a
// change to the simulator moves them in full. Raw times are printed too.
constexpr double kReferenceCalibrationMs = 6.0;  // 4-vCPU x86 host, typical

double calibration_kernel() {
  const auto start = Tracer::Clock::now();
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t hits = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 60000; ++i) {
    map[next() & 0xffff] += x;
    hits += map.count((x >> 16) & 0xffff);
  }
  std::vector<std::uint64_t> keys(20000);
  for (std::uint64_t& key : keys) key = next();
  std::sort(keys.begin(), keys.end());
  // Keeps the work observable so the optimizer cannot drop it.
  if (hits + keys.front() == 1) std::printf(" ");
  return std::chrono::duration<double, std::milli>(Tracer::Clock::now() -
                                                   start)
      .count();
}

// Runs one whole round and appends its records. The first execution of
// each op sets the bit pattern every later execution, traced or not, must
// reproduce; round one (`first`) is what the simulated metrics and
// counters are computed from.
void run_round(Workload& workload, Tracer& tracer, bool first,
               Counters* counters,
               std::vector<std::optional<std::uint64_t>>& first_hash,
               std::vector<OpRecord>& records) {
  for (std::size_t index = 0; index < workload.round_size(); ++index) {
    tracer.set_op(static_cast<int>(records.size()));
    const double calibration_ms = calibration_kernel();
    const auto op_start = Tracer::Clock::now();
    OpRecord record;
    {
      Timed op(tracer, "op");
      try {
        record = workload.run(index, tracer, counters);
      } catch (const std::exception& error) {
        record = OpRecord{};
        record.index = index;
        record.failures.push_back(std::string("threw: ") + error.what());
      }
    }
    record.wall_ms = std::chrono::duration<double, std::milli>(
                         Tracer::Clock::now() - op_start)
                         .count();
    record.first_round = first;
    record.calibration_ms = calibration_ms;
    if (!first_hash[index]) {
      first_hash[index] = record.result_hash;
    } else if (record.result_hash != *first_hash[index]) {
      record.failures.push_back("simulated outputs differ from the op's "
                                "first execution");
    }
    records.push_back(std::move(record));
  }
}

double elapsed_s(Tracer::Clock::time_point since) {
  return std::chrono::duration<double>(Tracer::Clock::now() - since).count();
}

// Host-time fields are raw; multiply by host_scale (divide, for the rate)
// for the values at the reference host speed.
struct EndToEnd {
  double setup_s = 0.0;
  double sim_gflop_per_host_s = 0.0;
  double op_ms_p50 = 0.0;
  Tail op_ms_tail;
  double sim_efficiency = 0.0;
  double fidelity_gap = 0.0;
  double sample_ci_rel = -1.0;  // < 0: the workload makes no estimates
  double calibration_ms = 0.0;  // median over the run
  double host_scale = 1.0;      // kReferenceCalibrationMs / calibration_ms
};

EndToEnd end_to_end(const std::vector<OpRecord>& records,
                    std::size_t round_size) {
  EndToEnd out;
  std::vector<double> setup;
  std::vector<double> op_ms;
  std::vector<double> calibration;
  double gflop = 0.0;
  double host_s = 0.0;
  double efficiency = 0.0;
  double gap = 0.0;
  double ci = 0.0;
  std::size_t first = 0;
  std::size_t estimates = 0;
  for (const OpRecord& record : records) {
    calibration.push_back(record.calibration_ms);
    setup.push_back(record.setup_ms / 1e3);
    op_ms.push_back(record.op_ms);
    gflop += record.sim_gflop;
    host_s += record.op_ms / 1e3;
    if (!record.first_round) continue;
    ++first;
    efficiency += record.efficiency;
    if (record.reference_ps > 0.0) {
      gap += std::fabs(record.makespan_ps / record.reference_ps - 1.0);
    }
    if (record.ci_rel >= 0.0) {
      ci += record.ci_rel;
      ++estimates;
    }
  }
  out.setup_s = median(setup);
  out.sim_gflop_per_host_s = host_s > 0.0 ? gflop / host_s : 0.0;
  out.op_ms_p50 = median(op_ms);
  out.op_ms_tail = tail_of(op_ms, round_size);
  out.sim_efficiency = first ? efficiency / first : 0.0;
  out.fidelity_gap = first ? gap / first : 0.0;
  if (estimates) out.sample_ci_rel = ci / estimates;
  out.calibration_ms = median(calibration);
  if (out.calibration_ms > 0.0) {
    out.host_scale = kReferenceCalibrationMs / out.calibration_ms;
  }
  return out;
}

double get(const Counters& sums, const std::string& key) {
  const auto it = sums.find(key);
  return it == sums.end() ? 0.0 : it->second;
}

// 0 when the base is 0, so a layer a workload never uses reads 0.
double ratio(const Counters& sums, const std::string& num,
             const std::string& den) {
  const double base = get(sums, den);
  return base == 0.0 ? 0.0 : get(sums, num) / base;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // what a ratio is taken over; empty for plain values
};

// The per-layer metrics of BENCHMARK.json. Counters come from the first
// traced round; every traced round repeats the same simulated work, so a
// rate takes the counter times `rounds` over the host time of all of them.
std::vector<Metric> per_layer(const Counters& sums,
                              const std::vector<LayerTime>& layers,
                              std::size_t rounds, double overhead_frac) {
  double traced_ms = 0.0;
  std::map<std::string, LayerTime> by_name;
  for (const LayerTime& layer : layers) {
    traced_ms += layer.self_ms;
    by_name[layer.name] = layer;
  }
  const auto share = [&](const std::string& span) {
    const auto it = by_name.find(span);
    return it == by_name.end() || traced_ms <= 0.0
               ? 0.0
               : it->second.self_ms / traced_ms;
  };
  const auto fmt = [](double value) {
    std::ostringstream out;
    out.precision(4);
    out << value;
    return out.str();
  };
  const auto base = [&](const std::string& what, const std::string& key) {
    return fmt(get(sums, key)) + " " + what;
  };
  const auto per_host_s = [&](const std::string& key, const LayerTime& span) {
    return span.self_ms > 0.0 ? get(sums, key) * static_cast<double>(rounds) /
                                    (span.self_ms / 1e3)
                              : 0.0;
  };
  const LayerTime analytic = by_name["core.analytic"];
  const LayerTime sim_run = by_name["sim.run"];
  const LayerTime sampled = by_name["sampling.run"];
  const std::string all = fmt(traced_ms) + " traced host ms";
  return {
      {"graph.parse_share", share("graph.parse"), "ratio", all},
      {"graph.lower_share", share("graph.lower"), "ratio", all},
      {"graph.layers", get(sums, "graph.layers"), "count", ""},
      {"core.analytic_ms",
       analytic.calls ? analytic.self_ms / analytic.calls : 0.0, "ms",
       fmt(static_cast<double>(analytic.calls)) + " calls"},
      {"core.analytic_calls", get(sums, "core.analytic_calls"), "count", ""},
      {"core.analytic_share", share("core.analytic"), "ratio", all},
      {"core.build_share", share("core.build"), "ratio", all},
      {"core.operand_load_share", share("core.operand_load"), "ratio", all},
      {"core.node_span_skew",
       ratio(sums, "core.node_span_skew_sum", "core.node_span_skew_ops"),
       "ratio", base("multi-node independent ops", "core.node_span_skew_ops")},
      {"sim.run_share", share("sim.run"), "ratio", all},
      {"sim.events", get(sums, "sim.events"), "count", ""},
      {"sim.events_per_host_s", per_host_s("sim.events", sim_run), "1/s",
       fmt(sim_run.self_ms) + " sim.run host ms"},
      {"mem.l3_accesses", get(sums, "mem.l3_accesses"), "count", ""},
      {"mem.l3_hit_rate", ratio(sums, "mem.l3_hits", "mem.l3_accesses"),
       "ratio", base("L3 accesses", "mem.l3_accesses")},
      {"mem.l1d_hit_rate",
       ratio(sums, "mem.l1d_hits", "mem.l1d_accesses"), "ratio",
       base("L1D accesses", "mem.l1d_accesses")},
      {"mem.l2_hit_rate", ratio(sums, "mem.l2_hits", "mem.l2_accesses"),
       "ratio", base("L2 accesses", "mem.l2_accesses")},
      {"mem.ccm_recalls", get(sums, "mem.ccm_recalls"), "count", ""},
      {"mem.stash_hits", get(sums, "mem.stash_hits"), "count", ""},
      {"mem.stash_fills", get(sums, "mem.stash_fills"), "count", ""},
      {"mem.dram_bytes", get(sums, "mem.dram_bytes"), "B", ""},
      {"mem.dram_busy_frac",
       ratio(sums, "mem.dram_busy_ps", "mem.dram_window_ps"), "ratio",
       base("channel-ps of makespan", "mem.dram_window_ps")},
      {"mem.dram_row_hit_rate",
       ratio(sums, "mem.dram_row_hits", "mem.dram_row_accesses"), "ratio",
       base("queued-DRAM row accesses", "mem.dram_row_accesses")},
      {"noc.packets", get(sums, "noc.packets"), "count", ""},
      {"noc.flit_hops", get(sums, "noc.flit_hops"), "count", ""},
      {"noc.max_link_util", get(sums, "noc.max_link_util"), "ratio",
       "busiest link over its op's makespan"},
      {"vm.stlb_hit_rate", ratio(sums, "vm.stlb_hits", "vm.stlb_accesses"),
       "ratio", base("sTLB lookups", "vm.stlb_accesses")},
      {"vm.walks", get(sums, "vm.walks"), "count", ""},
      {"vm.pte_reads", get(sums, "vm.pte_reads"), "count", ""},
      {"vm.matlb_hit_rate",
       ratio(sums, "vm.matlb_hits", "vm.matlb_accesses"), "ratio",
       base("mATLB lookups", "vm.matlb_accesses")},
      {"vm.matlb_late_predictions", get(sums, "vm.matlb_late_predictions"),
       "count", ""},
      {"mmae.dma_bytes", get(sums, "mmae.dma_bytes"), "B", ""},
      {"mmae.sa_busy_frac",
       ratio(sums, "mmae.sa_busy_ps", "mmae.task_span_ps"), "ratio",
       base("task-span ps", "mmae.task_span_ps")},
      {"mmae.translation_stall_frac",
       ratio(sums, "mmae.translation_stall_ps", "mmae.task_span_ps"),
       "ratio", base("task-span ps", "mmae.task_span_ps")},
      {"cpu.mtq_backoffs", get(sums, "cpu.mtq_backoffs"), "count", ""},
      {"os.context_switches", get(sums, "os.context_switches"), "count", ""},
      {"os.tasks_completed", get(sums, "os.tasks_completed"), "count", ""},
      {"sampling.sampled_tiles", get(sums, "sampling.sampled_tiles"),
       "count", ""},
      {"sampling.total_tiles", get(sums, "sampling.total_tiles"), "count",
       ""},
      {"sampling.tiles_per_host_s",
       per_host_s("sampling.sampled_tiles", sampled), "1/s",
       fmt(sampled.self_ms) + " sampling.run host ms"},
      {"sampling.ci_rel", ratio(sums, "sampling.ci_rel_sum", "sampling.ops"),
       "ratio", base("sampled estimates", "sampling.ops")},
      {"sampling.run_share", share("sampling.run"), "ratio", all},
      {"bench.check_share", share("bench.check"), "ratio", all},
      {"trace.overhead_frac", overhead_frac, "ratio",
       "untraced host time per round"},
  };
}

void print_json_metric(std::ostream& out, bool& first, const std::string& name,
                       double value, const std::string& unit) {
  out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
      << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

void print_end_to_end(const EndToEnd& e2e, std::size_t timed, double rss,
                      std::size_t failed, std::size_t attempted) {
  const double k = e2e.host_scale;
  std::printf("end-to-end (%zu op(s) timed, untraced); host times at the "
              "reference speed, raw in brackets:\n",
              timed);
  std::printf("  host speed            calibration %.3f ms (reference %.1f "
              "ms), scale %.4f\n",
              e2e.calibration_ms, kReferenceCalibrationMs, k);
  std::printf("  setup_s               %.6f s [%.6f] (median of %zu set-ups)\n",
              e2e.setup_s * k, e2e.setup_s, timed);
  std::printf("  sim_gflop_per_host_s  %.4f GFLOP/s [%.4f]\n",
              e2e.sim_gflop_per_host_s / k, e2e.sim_gflop_per_host_s);
  std::printf("  op_ms_p50             %.4f ms [%.4f]\n", e2e.op_ms_p50 * k,
              e2e.op_ms_p50);
  std::printf("  op_ms_tail            %.4f ms [%.4f] (p%.1f, %zu op(s) "
              "beyond, %zu timed)\n",
              e2e.op_ms_tail.value * k, e2e.op_ms_tail.value,
              e2e.op_ms_tail.percentile, e2e.op_ms_tail.beyond, timed);
  std::printf("  peak_rss_mb           %.2f MB\n", rss);
  std::printf("  sim_efficiency        %.6f ratio\n", e2e.sim_efficiency);
  std::printf("  fidelity_gap          %.6f ratio\n", e2e.fidelity_gap);
  if (e2e.sample_ci_rel >= 0.0) {
    std::printf("  sample_ci_rel         %.6f ratio\n", e2e.sample_ci_rel);
  } else {
    std::printf("  sample_ci_rel         n/a (no sampled estimates)\n");
  }
  std::printf("  fail_frac             %.6f ratio (%zu of %zu op(s))\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);
}

void print_layer_table(const std::vector<LayerTime>& layers,
                       double pass_ms) {
  double traced_ms = 0.0;
  for (const LayerTime& layer : layers) traced_ms += layer.self_ms;
  std::printf("per-layer host time: self times sum to %.1f ms, %.2f%% of "
              "the traced rounds' %.1f ms\n",
              traced_ms, pass_ms > 0.0 ? 100.0 * traced_ms / pass_ms : 0.0,
              pass_ms);
  std::printf("  %-20s %8s %12s %12s %8s\n", "span", "calls", "self ms",
              "total ms", "self %");
  for (const LayerTime& layer : layers) {
    std::printf("  %-20s %8llu %12.3f %12.3f %7.2f%%\n", layer.name.c_str(),
                static_cast<unsigned long long>(layer.calls), layer.self_ms,
                layer.total_ms,
                traced_ms > 0.0 ? 100.0 * layer.self_ms / traced_ms : 0.0);
  }
}

// Mean host time of one round of a pass, without the one-off reference
// computations of the first executions.
double round_wall_ms(const std::vector<OpRecord>& records,
                     std::size_t round_size) {
  double total = 0.0;
  for (const OpRecord& record : records) {
    total += record.wall_ms - record.verify_ms;
  }
  return records.empty() ? 0.0
                         : total * static_cast<double>(round_size) /
                               static_cast<double>(records.size());
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed);
  std::printf("host: nproc=%ld compiler=\"%s\" build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::printf("workload %s seed %llu: %zu op(s) per round\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              workload->round_size());

  // An untraced run executes whole rounds until `seconds` have passed and
  // at least min_rounds() have run. A traced run alternates untraced and
  // traced rounds of the same ops for `seconds`, so slow drift of the host
  // falls on both sides of the tracing-overhead comparison; counters come
  // from the first traced round.
  Tracer tracer(false);
  const std::size_t round_size = workload->round_size();
  std::vector<std::optional<std::uint64_t>> first_hash(round_size);
  std::vector<OpRecord> records;
  std::vector<OpRecord> traced;
  Counters sums;
  Counters repeat_sums;
  const auto start = Tracer::Clock::now();
  for (std::size_t round = 0;; ++round) {
    const std::size_t needed = args.trace ? 1 : min_rounds(round_size);
    if (round >= needed && elapsed_s(start) >= args.seconds) break;
    tracer.set_enabled(false);
    run_round(*workload, tracer, round == 0, nullptr, first_hash, records);
    if (args.trace) {
      tracer.set_enabled(true);
      run_round(*workload, tracer, round == 0,
                round == 0 ? &sums : &repeat_sums, first_hash, traced);
    }
  }
  const EndToEnd e2e = end_to_end(records, round_size);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const std::vector<OpRecord>* list : {&records, &traced}) {
    for (const OpRecord& record : *list) {
      ++attempted;
      if (!record.failures.empty()) ++failed;
      for (const std::string& failure : record.failures) {
        std::printf("FAILED op %zu (%s): %s\n", record.index,
                    record.label.c_str(), failure.c_str());
      }
    }
  }

  std::printf("round one:\n");
  for (const OpRecord& record : records) {
    if (!record.first_round) continue;
    std::printf("  %-48s setup %9.3f ms  op %10.3f ms  eff %.4f  gap %.4f\n",
                record.label.c_str(), record.setup_ms, record.op_ms,
                record.efficiency,
                record.reference_ps > 0.0
                    ? std::fabs(record.makespan_ps / record.reference_ps - 1)
                    : 0.0);
  }

  const double rss = peak_rss_mb();
  if (!args.trace) {
    print_end_to_end(e2e, records.size(), rss, failed, attempted);
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  if (!args.trace) {
    const double k = e2e.host_scale;
    print_json_metric(json, first, "setup_s", e2e.setup_s * k, "s");
    print_json_metric(json, first, "sim_gflop_per_host_s",
                      e2e.sim_gflop_per_host_s / k, "GFLOP/s");
    print_json_metric(json, first, "op_ms_p50", e2e.op_ms_p50 * k, "ms");
    print_json_metric(json, first, "op_ms_tail", e2e.op_ms_tail.value * k,
                      "ms");
    print_json_metric(json, first, "peak_rss_mb", rss, "MB");
    print_json_metric(json, first, "sim_efficiency", e2e.sim_efficiency,
                      "ratio");
    print_json_metric(json, first, "fidelity_gap", e2e.fidelity_gap,
                      "ratio");
  } else {
    const std::vector<LayerTime> layers = tracer.layer_times();
    double pass_ms = 0.0;
    for (const OpRecord& record : traced) pass_ms += record.wall_ms;
    print_layer_table(layers, pass_ms);
    const double untraced_ms = round_wall_ms(records, round_size);
    const double traced_ms = round_wall_ms(traced, round_size);
    const double overhead =
        untraced_ms > 0.0 ? traced_ms / untraced_ms - 1.0 : 0.0;
    std::printf("tracing overhead: %+.2f%% (host ms per round: traced %.1f, "
                "untraced %.1f)\n",
                100.0 * overhead, traced_ms, untraced_ms);
    std::printf("per-layer metrics (counters of the first traced round):\n");
    for (const Metric& metric :
         per_layer(sums, layers, traced.size() / round_size, overhead)) {
      std::printf("  %-28s %14.6g %-6s %s\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(),
                  metric.base.empty() ? "" : ("of " + metric.base).c_str());
      print_json_metric(json, first, metric.name, metric.value, metric.unit);
    }
    if (!args.trace_out.empty()) {
      std::ofstream file(args.trace_out);
      file << tracer.chrome_json();
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
      std::printf("trace: %zu span(s) written to %s\n",
                  tracer.spans().size(), args.trace_out.c_str());
    }
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "maco_perfbench: built without NDEBUG; refusing to report "
               "host timings from a debug build\n");
  return 3;
#endif
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "maco_perfbench: %s\n", error.what());
    return 2;
  }
}

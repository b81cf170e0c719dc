// Shared types of the maco_perfbench driver: op records, the host-time
// tracer and the per-layer counter sums.
//
// The benchmark drives libmaco's layers through their public functions on
// a single host thread. Every call it makes into a layer is bracketed by a
// Timed scope: untraced runs only read the clock (set-up and op times are
// end-to-end metrics), traced runs additionally keep a span per call in
// memory and write them out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// One executed op: a measured call into the layer under test plus the
// set-up before it and the checks after it.
struct OpRecord {
  std::size_t index = 0;      // position in the workload's round
  bool first_round = false;   // simulated metrics come from round one only
  std::string label;
  double setup_ms = 0.0;      // host: set-up calls of this op
  double op_ms = 0.0;         // host: the measured call
  double wall_ms = 0.0;       // host: set-up + call + checks
  double verify_ms = 0.0;     // host: the reference computation in checks
  double calibration_ms = 0.0;  // host: the speed calibration before the op
  double sim_gflop = 0.0;     // simulated work the call completed
  double efficiency = 0.0;    // simulated mean per-node efficiency
  double makespan_ps = 0.0;   // simulated
  double reference_ps = 0.0;  // simulated, by the next-simpler model
  double ci_rel = -1.0;       // sampled estimates only (CI95 / estimate)
  std::uint64_t result_hash = 0;  // bit pattern of the simulated outputs
  std::vector<std::string> failures;  // empty: every check passed
};

// A span around one call into a layer. Times are host nanoseconds since
// the tracer was created; parent is an index into the span list (-1 for a
// top-level span).
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int op = -1;
};

// Self time and call count of every span name.
struct LayerTime {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus the time its child spans cover
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void set_op(int op) noexcept { op_ = op; }

  // Opens a span when tracing is on; returns its index, or -1.
  int open(const char* name, Clock::time_point start);
  void close(int span, Clock::time_point end);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  std::vector<LayerTime> layer_times() const;
  // Chrome trace-event JSON (one track per span name), written with the
  // simulator's own trace emitter so `macosim trace` renders it.
  std::string chrome_json() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  int op_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

// Times one call into a layer; records a span when the tracer is on.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name)
      : tracer_(tracer), start_(Tracer::Clock::now()),
        span_(tracer.open(name, start_)) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  // Ends the call (idempotent) and returns its host time in ms.
  double stop();

 private:
  Tracer& tracer_;
  Tracer::Clock::time_point start_;
  int span_;
  double ms_ = -1.0;
};

// Per-layer counter sums over the ops of one traced round. Keys are the
// per-layer metric names of BENCHMARK.json or the raw sums their ratios
// are built from.
using Counters = std::map<std::string, double>;

// One benchmark workload: a seeded round of ops, run one at a time.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t round_size() const = 0;
  // Runs op `index` of the round. With `counters` non-null the op runs
  // with profile=counters and adds what it observed to the sums.
  virtual OpRecord run(std::size_t index, Tracer& tracer,
                       Counters* counters) = 0;
};

// Throws std::invalid_argument on an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench

#include <map>

#include "obs/observation.hpp"
#include "obs/trace_writer.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

std::int64_t ns_between(Tracer::Clock::time_point from,
                        Tracer::Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

}  // namespace

int Tracer::open(const char* name, Clock::time_point start) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.start_ns = ns_between(origin_, start);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int span, Clock::time_point end) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = ns_between(origin_, end);
  // Timed scopes nest, so the span closing is the innermost open one.
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

std::vector<LayerTime> Tracer::layer_times() const {
  // Spans nest on one thread, so a span's children never overlap and the
  // time they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    LayerTime& layer = by_name[span.name];
    layer.name = span.name;
    layer.calls += 1;
    layer.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    layer.self_ms +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : by_name) out.push_back(layer);
  return out;
}

std::string Tracer::chrome_json() const {
  // obs::SpanRec carries picoseconds; host nanoseconds scale into it.
  maco::obs::RunObservation observation;
  observation.spans.reserve(spans_.size());
  for (const SpanRecord& span : spans_) {
    observation.spans.push_back(maco::obs::SpanRec{
        span.name, "op" + std::to_string(span.op),
        static_cast<maco::sim::TimePs>(span.start_ns) * 1000,
        static_cast<maco::sim::TimePs>(span.end_ns) * 1000});
  }
  return maco::obs::to_perfetto_json(observation);
}

double Timed::stop() {
  if (ms_ < 0.0) {
    const Tracer::Clock::time_point end = Tracer::Clock::now();
    tracer_.close(span_, end);
    ms_ = static_cast<double>(ns_between(start_, end)) / 1e6;
  }
  return ms_;
}

}  // namespace perfbench

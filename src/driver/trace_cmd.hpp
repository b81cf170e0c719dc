// The `macosim trace` subcommand: terminal rendering of --trace-out files.
//
// Reads a Chrome/Perfetto trace JSON back (the one format every trace in
// the tree is written in — obs/trace_writer.cpp), and renders it without
// leaving the terminal: an ASCII Gantt of the spans, and, when the file
// carries the writer's NoC sidecar (the "maco"."noc" object), a per-node
// link-utilization heatmap plus an optional per-link CSV. Rendering is
// pure string-to-struct so tests can drive it without touching files.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/observation.hpp"

namespace maco::driver {

// An ASCII Gantt of `spans`: a span/track/duration summary line, then one
// row per track in first-appearance order, `width` columns spanning the
// trace. A span's cells show the upper-cased last letter of its name;
// '.' is idle.
std::string render_gantt(const std::vector<obs::SpanRec>& spans,
                         std::size_t width);

struct TraceRender {
  std::string gantt;     // span summary + ASCII Gantt
  std::string noc_text;  // heatmap + hottest links; "" without NoC data
  std::string noc_csv;   // node,x,y,dir,flits,busy_ps,util rows; "" without
};

// Parses `json_text` — an object with a "traceEvents" array (what
// --trace-out writes) or a bare event array — and renders every complete
// ("X") event as a Gantt span. Throws std::runtime_error on malformed
// JSON, a document with no traceEvents, or an event whose ts, dur or
// numeric tid is non-finite or beyond 2^63 picoseconds.
TraceRender render_trace(const std::string& json_text, std::size_t width);

}  // namespace maco::driver

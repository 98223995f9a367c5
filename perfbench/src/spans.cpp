#include "spans.hpp"

#include "common/check.hpp"
#include "report.hpp"

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kServe: return "serve";
    case SpanKind::kDecide: return "governor.decide";
    case SpanKind::kObserveBatch: return "governor.observe_batch";
    case SpanKind::kRunBatch: return "exec.run_batch";
    case SpanKind::kActivateLevel: return "exec.activate_level";
    case SpanKind::kRunLayer: return "exec.run_layer";
  }
  return "unknown";
}

const char* span_layer(SpanKind kind) {
  switch (kind) {
    case SpanKind::kServe: return "serve";
    case SpanKind::kDecide:
    case SpanKind::kObserveBatch: return "governor";
    case SpanKind::kRunBatch:
    case SpanKind::kActivateLevel:
    case SpanKind::kRunLayer: return "exec";
  }
  return "unknown";
}

void SpanRecorder::keep(const Span& span, bool is_root) {
  if (spans_.size() >= keep_limit_) {
    if (is_root) {
      root_index_ = -1;
    }
    return;
  }
  if (is_root) {
    root_index_ = static_cast<std::int64_t>(spans_.size());
  }
  spans_.push_back(span);
}

void SpanRecorder::open_root(SpanKind kind, std::int64_t session,
                             double start_ms) {
  rt3::check(!root_open_, "SpanRecorder: roots do not nest");
  root_open_ = true;
  root_kind_ = kind;
  session_ = session;
  root_start_ms_ = start_ms;
  root_child_ms_ = 0.0;
  Span span;
  span.kind = kind;
  span.session = session;
  span.start_ms = start_ms;
  span.end_ms = start_ms;  // filled in by close_root
  keep(span, /*is_root=*/true);
}

double SpanRecorder::close_root(double end_ms) {
  rt3::check(root_open_, "SpanRecorder: no open root");
  root_open_ = false;
  const auto k = static_cast<std::size_t>(root_kind_);
  const double dur = end_ms - root_start_ms_;
  const double self = dur - root_child_ms_;
  ++counts_[k];
  totals_[k] += dur;
  self_totals_[k] += self;
  durations_[k].push_back(dur);
  if (root_index_ >= 0) {
    spans_[static_cast<std::size_t>(root_index_)].end_ms = end_ms;
  }
  root_index_ = -1;
  return self;
}

void SpanRecorder::record(SpanKind kind, double start_ms, double end_ms) {
  const auto k = static_cast<std::size_t>(kind);
  const double dur = end_ms - start_ms;
  ++counts_[k];
  totals_[k] += dur;
  durations_[k].push_back(dur);
  if (root_open_) {
    root_child_ms_ += dur;
  } else {
    self_totals_[k] += dur;
  }
  Span span;
  span.kind = kind;
  span.parent = root_open_ ? root_index_ : -1;
  span.session = session_;
  span.start_ms = start_ms;
  span.end_ms = end_ms;
  keep(span, /*is_root=*/false);
}

std::int64_t SpanRecorder::count(SpanKind kind) const {
  return counts_[static_cast<std::size_t>(kind)];
}

double SpanRecorder::total_ms(SpanKind kind) const {
  return totals_[static_cast<std::size_t>(kind)];
}

double SpanRecorder::self_ms(SpanKind kind) const {
  return self_totals_[static_cast<std::size_t>(kind)];
}

const std::vector<double>& SpanRecorder::durations(SpanKind kind) const {
  return durations_[static_cast<std::size_t>(kind)];
}

std::string SpanRecorder::to_chrome_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += std::string(i == 0 ? "" : ",\n") + "{\"name\": \"" +
           span_name(s.kind) + "\", \"cat\": \"" + span_layer(s.kind) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
           json_number(s.start_ms * 1e3) +
           ", \"dur\": " + json_number((s.end_ms - s.start_ms) * 1e3) +
           ", \"args\": {\"index\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"session\": " + std::to_string(s.session) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench

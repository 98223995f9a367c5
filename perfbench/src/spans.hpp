// In-memory span recorder for traced benchmark runs.
//
// A span is one timed call at a layer boundary: its kind (which names the
// layer), host start/end, the span that caused it (parent), and the op
// (session or kernel call) it belongs to.  Roots are the benchmark's own
// calls into the library (Server::serve / ServeNode::serve, or a
// MeasuredBackend call); children are recorded by the forwarding
// decorators while a root is open.  A root's self time is its duration
// minus the time its children cover.
//
// Every span is aggregated (count, total, duration sample); the first
// `keep_limit` spans are also kept verbatim and written as a Chrome/
// Perfetto trace when the run ends.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kServe,
  kDecide,
  kObserveBatch,
  kRunBatch,
  kActivateLevel,
  kRunLayer,
};
inline constexpr std::size_t kSpanKinds = 6;

/// Span name as written to the trace ("serve", "governor.decide", ...).
const char* span_name(SpanKind kind);
/// The layer a span's time belongs to: "serve", "governor" or "exec".
const char* span_layer(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kServe;
  /// Index of the enclosing span among the kept spans; -1 for a root or
  /// when the parent was not kept.
  std::int64_t parent = -1;
  std::int64_t session = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep_limit = 50'000)
      : keep_limit_(keep_limit) {}

  /// Opens a root span; children recorded until close_root() nest under
  /// it.  Roots do not nest.
  void open_root(SpanKind kind, std::int64_t session, double start_ms);
  /// Closes the open root and returns its self time (ms).
  double close_root(double end_ms);
  /// Records a finished span under the open root, or as a root of the
  /// current session when none is open.
  void record(SpanKind kind, double start_ms, double end_ms);

  std::int64_t count(SpanKind kind) const;
  double total_ms(SpanKind kind) const;
  /// Summed self time of every closed root of `kind`.
  double self_ms(SpanKind kind) const;
  /// Every recorded duration (ms) of one kind, in record order.
  const std::vector<double>& durations(SpanKind kind) const;
  std::size_t kept() const { return spans_.size(); }

  /// Chrome trace-event JSON of the kept spans (ts/dur in microseconds).
  std::string to_chrome_json() const;

 private:
  void keep(const Span& span, bool is_root);

  std::size_t keep_limit_;
  std::vector<Span> spans_;
  std::array<std::int64_t, kSpanKinds> counts_{};
  std::array<double, kSpanKinds> totals_{};
  std::array<double, kSpanKinds> self_totals_{};
  std::array<std::vector<double>, kSpanKinds> durations_;
  // Open root state.
  bool root_open_ = false;
  SpanKind root_kind_ = SpanKind::kServe;
  std::int64_t session_ = 0;
  double root_start_ms_ = 0.0;
  double root_child_ms_ = 0.0;
  std::int64_t root_index_ = -1;
};

}  // namespace perfbench

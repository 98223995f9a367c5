// Continuous telemetry for the serving stack: a virtual-clock-driven
// sampler that records per-model and node-level time series (queue depth,
// in-flight batch size, battery fraction, governor level, per-batch
// energy draw, miss-rate / latency EWMAs, shed / reject counters) at a
// configurable deterministic cadence — sampled at BATCH BOUNDARIES by the
// serving loop, never from a wall-clock thread — so the system can see
// trends while serving instead of one end-of-session snapshot.  This is
// the observation vector a learned GovernorPolicy (ROADMAP item 2) and a
// cloud-offload decision will consume.
//
// Determinism contract: every sample is driven by the virtual serving
// clock and by counts the loops already maintain, so two runs of the same
// seeded session produce byte-identical series dumps.  The serving loop
// is the only caller: it passes every time explicitly (the sampler keeps
// no clock), every call site is one `if (telemetry != nullptr)` branch,
// and telemetry-off sessions are bitwise-identical to uninstrumented ones
// (proven by the observability cell in bench_serve_traffic).
//
// Memory contract: each series is a fixed-capacity buffer with
// deterministic stride-doubling downsampling — when a series fills, every
// other stored point is dropped and the keep-stride doubles, so an
// arbitrarily long session costs O(capacity) per series while preserving
// the full time span at halved resolution.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/batch_outcome.hpp"

namespace rt3 {

class TraceRecorder;

/// Fixed-capacity (time, value) series with deterministic stride-doubling
/// downsampling: points are offered in time order; the series stores every
/// `stride()`-th offered point, and when `capacity` stored points are
/// reached it drops every other one and doubles the stride.  Stored points
/// are therefore always the offered indices {0, stride, 2*stride, ...} —
/// a pure function of the offered sequence, independent of when the
/// compactions happened.
class TimeSeries {
 public:
  explicit TimeSeries(std::int64_t capacity);

  /// Offers one point; `t_ms` must be non-decreasing across calls.
  void record(double t_ms, double value);

  const std::vector<double>& times() const { return t_; }
  const std::vector<double>& values() const { return v_; }
  std::int64_t size() const { return static_cast<std::int64_t>(t_.size()); }
  /// Total points offered (stored + downsampled away).
  std::int64_t offered() const { return offered_; }
  /// Current keep-every-stride (1 until the first compaction).
  std::int64_t stride() const { return stride_; }
  /// Most recently OFFERED value (survives downsampling; 0 when empty).
  double last_value() const { return last_value_; }

 private:
  std::int64_t capacity_;
  std::int64_t stride_ = 1;
  std::int64_t offered_ = 0;
  double last_value_ = 0.0;
  std::vector<double> t_;
  std::vector<double> v_;
};

struct TelemetryConfig {
  /// Record series points every Nth batch boundary (1 = every batch).
  /// EWMAs still update on EVERY batch — the cadence only thins storage.
  std::int64_t sample_every_batches = 1;
  /// Per-series stored-point cap before stride-doubling downsampling.
  std::int64_t series_capacity = 512;
  /// Smoothing factor for the miss-rate / latency EWMAs (0 < alpha <= 1).
  double ewma_alpha = 0.2;
};

/// Collects deterministic time series from the serving loop and exports
/// them as Chrome trace counter events and as a compact JSON dump.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(TelemetryConfig config = {});

  /// Batch-boundary sample: updates the per-model EWMAs (every call) and
  /// records all series points (every `sample_every_batches`-th call).
  void on_batch(const BatchOutcome& sample);

  /// Cumulative counters, sampled into series at the next batch boundary.
  void count_shed(std::int64_t model_id, std::int64_t n);
  void count_reject(std::int64_t model_id, std::int64_t n = 1);
  void count_unroutable(std::int64_t n = 1);

  /// Pattern-set switch duration, stamped at the switch's start `t_ms`
  /// (recorded unsampled — switches are rare and each one matters).
  void record_switch(double t_ms, double duration_ms);
  /// Pattern-set storage bytes swapped in by a switch starting at `t_ms`.
  void record_swap_bytes(double t_ms, double bytes);

  /// EWMA snapshots (0 before the first batch of the model).
  double miss_ewma(std::int64_t model_id) const;
  double latency_ewma_ms(std::int64_t model_id) const;

  std::int64_t batches_seen() const { return batches_; }
  std::int64_t num_series() const {
    return static_cast<std::int64_t>(series_.size());
  }
  /// Stored points across all series.
  std::int64_t num_points() const;
  /// The named series, or nullptr when it never recorded a point.
  const TimeSeries* series(const std::string& name) const;

  /// Replays every stored point into `trace` as Chrome counter events
  /// ('C' phase) on the series' lane (0 = node, model id + 1 = model), so
  /// the series render as counter tracks merged into the session's trace
  /// stream.  Call once, before exporting the trace.
  void export_counters(TraceRecorder& trace) const;

  /// {"sample_every": N, "capacity": N, "batches": N, "series": {name:
  /// {"lane": L, "stride": S, "offered": N, "t": [...], "v": [...]}}}
  std::string to_json() const;

 private:
  TimeSeries& series_for(const std::string& name, std::int64_t lane);

  struct Entry {
    TimeSeries ts;
    std::int64_t lane = 0;
    explicit Entry(std::int64_t capacity, std::int64_t lane)
        : ts(capacity), lane(lane) {}
  };

  TelemetryConfig config_;
  std::int64_t batches_ = 0;
  /// Name -> series; std::map so every export walks in canonical order.
  std::map<std::string, Entry> series_;
  std::map<std::int64_t, double> miss_ewma_;
  std::map<std::int64_t, double> latency_ewma_;
  std::map<std::int64_t, std::int64_t> shed_;
  std::map<std::int64_t, std::int64_t> rejected_;
  std::int64_t unroutable_ = 0;
};

}  // namespace rt3

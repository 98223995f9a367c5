// Deterministic metrics registry: counters, gauges, and fixed-bucket
// log-scale histograms with per-model / per-level labels.
//
// The registry is the queryable store behind a serve session's counting:
// the serving loop accumulates into the ServerStats working view on the
// hot path (zero added lookups), and ServerStats::publish mirrors every
// countable into the registry at session end under stable labeled names
// (serve.completed{model="1",...}) — so the existing stats JSON stays
// bitwise-identical while the same numbers become scrapeable, and the
// two surfaces can never disagree (one is a view of the other).
//
// Everything here is deterministic by construction: counters are exact
// integers, histograms use FIXED power-of-two bucket edges (no adaptive
// resizing, no sampling), and export walks a std::map, so two identical
// sessions render identical JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rt3 {

/// Sorted (key, value) label pairs; rendered canonically as
/// `{key="value",...}` in metric identity and JSON.
class MetricLabels {
 public:
  MetricLabels() = default;
  MetricLabels(
      std::initializer_list<std::pair<std::string, std::string>> kv);

  MetricLabels& add(const std::string& key, const std::string& value);
  MetricLabels& add(const std::string& key, std::int64_t value);

  /// Canonical suffix: "" when empty, else `{k="v",...}` sorted by key.
  /// Values are escaped Prometheus-style (`\\`, `\"`, `\n`), so the
  /// suffix is unambiguous to parse and renders verbatim in both the
  /// JSON and text-exposition exports.
  std::string suffix() const;
  bool empty() const { return kv_.empty(); }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Monotonically increasing integer count.
class Counter {
 public:
  void inc(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-written double value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket log2-scale histogram: bucket i counts observations in
/// [lo * 2^i, lo * 2^(i+1)), plus an underflow bucket below `lo` and an
/// overflow bucket at the top.  Edges are fixed at construction, so two
/// runs observing the same values produce identical bucket vectors.
class Histogram {
 public:
  /// Default covers [0.5 ms, ~4.7 h) in 25 doubling buckets.
  explicit Histogram(double lo = 0.5, std::int64_t num_buckets = 25);

  void observe(double x);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double lo() const { return lo_; }
  double mean() const;
  /// Inclusive lower edge of bucket i (0 = underflow, so edge 0 is 0).
  double bucket_lo(std::int64_t i) const;
  /// Bucket counts: [underflow, b0, ..., b(n-1), overflow].
  const std::vector<std::int64_t>& buckets() const { return buckets_; }

 private:
  double lo_;
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

/// Name -> metric store with canonical (sorted) iteration and JSON dump.
/// Returned references stay valid for the registry's lifetime (node-based
/// map storage), so hot loops hoist them once and bump without lookups.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name,
                   const MetricLabels& labels = {});
  Gauge& gauge(const std::string& name, const MetricLabels& labels = {});
  Histogram& histogram(const std::string& name,
                       const MetricLabels& labels = {}, double lo = 0.5,
                       std::int64_t num_buckets = 25);

  /// Counter value by full name+labels (0 when never registered) — the
  /// snapshot read used by stats views and tests.
  std::int64_t counter_value(const std::string& name,
                             const MetricLabels& labels = {}) const;

  std::int64_t size() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with keys
  /// in canonical sorted order.
  std::string to_json() const;

  /// Prometheus text exposition format (version 0.0.4): one `# TYPE`
  /// line per metric family, names sanitized to [a-zA-Z0-9_:], label
  /// values escaped per the exposition rules, histograms rendered as
  /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`.  (One
  /// semantic nuance: rt3 buckets are lower-inclusive, Prometheus `le`
  /// is upper-inclusive, so a value exactly on an edge reports in the
  /// next bucket up.)
  std::string to_prometheus() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rt3

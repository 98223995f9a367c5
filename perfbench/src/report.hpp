// Result bookkeeping, sample statistics and output for one benchmark run.
//
// The last line a run prints is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  An untraced run's metrics are the end-to-end set,
// a traced run's the per-layer set; both lists live here, and
// BENCHMARK.json at the repository root must name the same metrics with
// the same units (run.py checks it).  Everything above that line is for
// people: the workload's named metrics with sample counts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// %.17g: every double round-trips exactly.
std::string json_number(double value);

/// Nearest-rank percentile (p in [0, 100]) of a non-empty sample.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

/// The p-th percentile only when at least ten samples lie beyond it
/// (ranks above the nearest-rank position); otherwise nullopt.
std::optional<double> tail_percentile(const std::vector<double>& xs,
                                      double p);

struct Tail {
  double p = 0.0;
  double value = 0.0;
};
/// The highest of {99.9, 99, 98, 95, 90, 75} that tail_percentile() will
/// report for this sample, or nullopt when none has ten samples beyond it.
std::optional<Tail> highest_tail(const std::vector<double>& xs);

/// The cost of one distinct input (a schedule, a level): the fastest of
/// its repeats in the timed loop.  Contention from other tenants of a
/// shared host only ever adds time, and it comes in bursts of seconds
/// that make run medians disagree by 10-30%; the fastest repeat does not
/// move with them.  `input[i]` names the input call i ran, in
/// [0, inputs); every input must have run at least once.
std::vector<double> best_per_input(const std::vector<std::int64_t>& input,
                                   const std::vector<double>& wall_ms,
                                   std::int64_t inputs);
double mean(const std::vector<double>& xs);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};
/// The end-to-end metrics every untraced run reports.
const std::vector<MetricSpec>& end_to_end_specs();
/// The per-layer metrics every traced run reports (0 where the workload
/// does not exercise the layer).
const std::vector<MetricSpec>& per_layer_specs();

/// Kernel-shape keys of the exec.layer_* metrics.
const std::vector<std::string>& layer_kinds();   // attn, ffn_up, ffn_down
const std::vector<std::string>& level_names();   // l6, l4, l3
const std::vector<std::string>& batch_names();   // b1, b8

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed above the JSON result.
  std::vector<std::string> lines;

  /// Counts one op; a failed op is counted and its reason printed.
  void op(bool ok, const std::string& failure);
  /// Sets a metric of either JSON set (unit taken from its spec).
  void set(const std::string& name, double value);
  /// A human-only metric line: "name = value unit".
  void detail(const std::string& name, double value, const std::string& unit);
  void line(const std::string& text) { lines.push_back(text); }
};

/// Prints the human lines, then the metric table, then the JSON line.
/// Metrics of the mode's set missing from `result` are an error for the
/// end-to-end set and 0 ("layer not exercised") for the per-layer set.
void print_result(Result& result, bool traced);

}  // namespace perfbench

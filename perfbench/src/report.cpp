#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

#include "common/check.hpp"

namespace perfbench {

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

/// 1-based nearest rank of the p-th percentile in a sample of n.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  rt3::check(!xs.empty(), "percentile: empty sample");
  const std::size_t r = nearest_rank(xs.size(), p);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   xs.end());
  return xs[r - 1];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

std::optional<double> tail_percentile(const std::vector<double>& xs,
                                      double p) {
  if (xs.empty() || xs.size() - nearest_rank(xs.size(), p) < 10) {
    return std::nullopt;
  }
  return percentile(xs, p);
}

std::optional<Tail> highest_tail(const std::vector<double>& xs) {
  for (const double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0}) {
    if (const std::optional<double> v = tail_percentile(xs, p)) {
      return Tail{p, *v};
    }
  }
  return std::nullopt;
}

std::vector<double> best_per_input(const std::vector<std::int64_t>& input,
                                   const std::vector<double>& wall_ms,
                                   std::int64_t inputs) {
  rt3::check(input.size() == wall_ms.size() && inputs >= 1,
             "best_per_input: mismatched samples");
  std::vector<double> best(static_cast<std::size_t>(inputs),
                           std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < input.size(); ++i) {
    rt3::check(input[i] >= 0 && input[i] < inputs,
               "best_per_input: input out of range");
    double& b = best[static_cast<std::size_t>(input[i])];
    b = std::min(b, wall_ms[i]);
  }
  for (const double b : best) {
    rt3::check(std::isfinite(b), "best_per_input: an input never ran");
  }
  return best;
}

double mean(const std::vector<double>& xs) {
  rt3::check(!xs.empty(), "mean: empty sample");
  double sum = 0.0;
  for (const double x : xs) {
    sum += x;
  }
  return sum / static_cast<double>(xs.size());
}

const std::vector<std::string>& layer_kinds() {
  static const std::vector<std::string> kinds = {"attn", "ffn_up",
                                                 "ffn_down"};
  return kinds;
}

const std::vector<std::string>& level_names() {
  static const std::vector<std::string> levels = {"l6", "l4", "l3"};
  return levels;
}

const std::vector<std::string>& batch_names() {
  static const std::vector<std::string> batches = {"b1", "b8"};
  return batches;
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"req_per_s", "1/s"},
      {"call_ms_best", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"serve.self_us_per_req", "us"},
        {"serve.batches", "count"},
        {"serve.mean_batch_size", "req"},
        {"serve.queue_wait_ms_p99", "virtual_ms"},
        {"serve.batch_wait_ms_p99", "virtual_ms"},
        {"serve.switch_stall_ms_total", "virtual_ms"},
        {"serve.switches", "count"},
        {"serve.admit_ratio", "fraction"},
        {"serve.slo_miss_rate", "fraction"},
        {"serve.latency_p50_ms", "virtual_ms"},
        {"serve.latency_p99_ms", "virtual_ms"},
        {"serve.good_req_per_j", "req/J"},
        {"governor.decide_calls", "count"},
        {"governor.decide_us_p50", "us"},
        {"governor.decide_us_p99", "us"},
        {"governor.self_share", "fraction"},
        {"governor.switches_per_1k_decides", "count"},
        {"exec.run_batch_calls", "count"},
        {"exec.activate_calls", "count"},
        {"exec.self_share", "fraction"},
    };
    for (const std::string prefix : {"exec.layer_ms_p50", "exec.layer_gflops"}) {
      const bool ms = prefix == "exec.layer_ms_p50";
      for (const std::string& kind : layer_kinds()) {
        for (const std::string& level : level_names()) {
          for (const std::string& batch : batch_names()) {
            s.push_back({prefix + "." + kind + "." + level + "." + batch,
                         ms ? "ms" : "GFLOP/s"});
          }
        }
      }
    }
    for (const MetricSpec& tail : std::vector<MetricSpec>{
             {"exec.level_ratio.l4", "ratio"},
             {"exec.level_ratio.l3", "ratio"},
             {"exec.swap_us_p99", "us"},
             {"exec.plan_build_s", "s"},
             {"setup.traffic_s", "s"},
             {"setup.build_s", "s"},
             {"setup.train_s", "s"},
             {"trace.overhead_ratio", "ratio"},
         }) {
      s.push_back(tail);
    }
    return s;
  }();
  return specs;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const MetricSpec& spec : *specs) {
      if (spec.name == name) {
        return &spec;
      }
    }
  }
  return nullptr;
}

}  // namespace

void Result::op(bool ok, const std::string& failure) {
  ++attempted;
  if (!ok) {
    ++failed;
    lines.push_back("FAILED: " + failure);
  }
}

void Result::set(const std::string& name, double value) {
  const MetricSpec* spec = find_spec(name);
  rt3::check(spec != nullptr, "perfbench: unknown metric " + name);
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back({name, value, spec->unit});
}

void Result::detail(const std::string& name, double value,
                    const std::string& unit) {
  lines.push_back("  " + name + " = " + json_number(value) + " " + unit);
}

void print_result(Result& result, bool traced) {
  const std::vector<MetricSpec>& specs =
      traced ? per_layer_specs() : end_to_end_specs();
  std::string json = "{";
  std::string table =
      std::string(traced ? "per-layer" : "end-to-end") + " metrics:\n";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics) {
      if (m.name == spec.name) {
        found = &m;
      }
    }
    double value = 0.0;
    if (found != nullptr) {
      value = found->value;
    } else if (!traced) {
      result.op(false, "end-to-end metric " + spec.name + " not measured");
    }
    if (!std::isfinite(value)) {
      result.op(false, "metric " + spec.name + " is not finite");
      value = 0.0;
    }
    table += "  " + spec.name + " = " + json_number(value) + " " + spec.unit +
             (found == nullptr ? "  (layer not exercised)" : "") + "\n";
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  }
  json += "}";
  for (const std::string& l : result.lines) {
    std::cout << l << "\n";
  }
  std::cout << table << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": " << json
            << "}" << std::endl;
}

}  // namespace perfbench

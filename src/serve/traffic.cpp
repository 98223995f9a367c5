#include "serve/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace rt3 {
namespace {

constexpr double kPi = 3.14159265358979323846;
/// Off-period rate as a fraction of the base rate in kBurst.
constexpr double kBurstOffFraction = 0.1;

/// Instantaneous rate multiplier at virtual time t, normalized so the
/// session-mean multiplier is 1 (rate_rps stays the cross-scenario mean).
double rate_factor(const TrafficConfig& c, double t_ms) {
  switch (c.scenario) {
    case TrafficScenario::kSteady:
      return 1.0;
    case TrafficScenario::kBurst: {
      const double period = c.burst_on_ms + c.burst_off_ms;
      const double mean = (c.burst_on_ms * c.burst_factor +
                           c.burst_off_ms * kBurstOffFraction) /
                          period;
      const double phase = std::fmod(t_ms, period);
      const double factor =
          phase < c.burst_on_ms ? c.burst_factor : kBurstOffFraction;
      return factor / mean;
    }
    case TrafficScenario::kDiurnal: {
      // Raised cosine: trough at t=0, peak mid-session, trough at the end.
      const double phase = t_ms / c.duration_ms;
      const double factor =
          c.diurnal_min_factor +
          (1.0 - c.diurnal_min_factor) * 0.5 *
              (1.0 - std::cos(2.0 * kPi * phase));
      const double mean = (1.0 + c.diurnal_min_factor) / 2.0;
      return factor / mean;
    }
  }
  return 1.0;
}

double peak_factor(const TrafficConfig& c) {
  double peak = 1.0;
  // Sample the normalized factor densely; the shapes are smooth or
  // two-valued, so 1000 points bound the true peak tightly.
  for (std::int64_t i = 0; i < 1000; ++i) {
    const double t = c.duration_ms * static_cast<double>(i) / 1000.0;
    peak = std::max(peak, rate_factor(c, t));
  }
  return peak;
}

/// The historical single-model generator: one thinned-Poisson stream at
/// `config.rate_rps`, every request tagged `model_id`.  This body is the
/// bitwise-stability contract — multi-model traffic is a merge of these.
std::vector<Request> generate_single_model(const TrafficConfig& config,
                                           std::int64_t model_id) {
  Rng rng(config.seed);
  // Priority classes and slack jitter draw from independent streams so
  // tagging requests never perturbs the arrival process — schedules stay
  // bitwise-identical in arrival for any classes / jitter setting.
  Rng prio_rng(config.seed ^ 0xc2b2ae3d27d4eb4fULL);
  Rng slack_rng(config.seed ^ 0x165667b19e3779f9ULL);
  const double base_per_ms = config.rate_rps / 1000.0;
  const double peak_per_ms = base_per_ms * peak_factor(config);

  // Thinning (Lewis & Shedler): homogeneous Poisson at the peak rate,
  // accept each candidate with probability rate(t) / peak.
  std::vector<Request> schedule;
  schedule.reserve(
      static_cast<std::size_t>(config.rate_rps * config.duration_ms / 1000.0));
  double t = 0.0;
  std::int64_t next_id = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / peak_per_ms;
    if (t >= config.duration_ms) {
      break;
    }
    const double accept = base_per_ms * rate_factor(config, t) / peak_per_ms;
    if (rng.uniform() < accept) {
      Request r;
      r.id = next_id++;
      r.arrival_ms = t;
      r.model_id = model_id;
      double slack = config.deadline_slack_ms;
      if (config.tight_fraction > 0.0 &&
          slack_rng.bernoulli(config.tight_fraction)) {
        slack = config.tight_slack_ms;
      }
      if (config.deadline_slack_jitter > 0.0) {
        slack *= slack_rng.uniform(1.0 - config.deadline_slack_jitter,
                                   1.0 + config.deadline_slack_jitter);
      }
      r.deadline_ms = t + slack;
      if (config.priority_classes > 1) {
        r.priority = prio_rng.uniform_int(config.priority_classes);
      }
      schedule.push_back(r);
    }
  }
  return schedule;
}

}  // namespace

TrafficScenario traffic_scenario_from_name(const std::string& name) {
  if (name == "steady") {
    return TrafficScenario::kSteady;
  }
  if (name == "burst") {
    return TrafficScenario::kBurst;
  }
  if (name == "diurnal") {
    return TrafficScenario::kDiurnal;
  }
  throw CheckError("unknown traffic scenario: " + name);
}

std::string traffic_scenario_name(TrafficScenario scenario) {
  switch (scenario) {
    case TrafficScenario::kSteady:
      return "steady";
    case TrafficScenario::kBurst:
      return "burst";
    case TrafficScenario::kDiurnal:
      return "diurnal";
  }
  return "?";
}

std::vector<Request> generate_traffic(const TrafficConfig& config) {
  // Non-finite values slip past the range checks below; an infinite rate,
  // for one, makes every thinning step add 0 ms and never ends.
  const std::pair<const char*, double> fields[] = {
      {"duration_ms", config.duration_ms},
      {"rate_rps", config.rate_rps},
      {"deadline_slack_ms", config.deadline_slack_ms},
      {"deadline_slack_jitter", config.deadline_slack_jitter},
      {"tight_fraction", config.tight_fraction},
      {"tight_slack_ms", config.tight_slack_ms},
      {"burst_on_ms", config.burst_on_ms},
      {"burst_off_ms", config.burst_off_ms},
      {"burst_factor", config.burst_factor},
      {"diurnal_min_factor", config.diurnal_min_factor},
  };
  for (const auto& [name, value] : fields) {
    check(std::isfinite(value),
          std::string("generate_traffic: ") + name + " must be finite");
  }
  for (const double w : config.model_weights) {
    check(std::isfinite(w), "generate_traffic: model_weights must be finite");
  }
  check(config.duration_ms > 0.0, "generate_traffic: duration must be > 0");
  check(config.rate_rps > 0.0, "generate_traffic: rate must be > 0");
  check(config.deadline_slack_ms > 0.0,
        "generate_traffic: deadline slack must be > 0");
  check(config.burst_on_ms > 0.0 && config.burst_off_ms > 0.0,
        "generate_traffic: burst periods must be > 0");
  check(config.burst_factor >= 1.0, "generate_traffic: burst_factor < 1");
  check(config.diurnal_min_factor > 0.0 && config.diurnal_min_factor <= 1.0,
        "generate_traffic: diurnal_min_factor out of (0, 1]");
  check(config.priority_classes >= 1,
        "generate_traffic: priority_classes must be >= 1");
  check(config.deadline_slack_jitter >= 0.0 &&
            config.deadline_slack_jitter < 1.0,
        "generate_traffic: deadline_slack_jitter out of [0, 1)");
  check(config.tight_fraction >= 0.0 && config.tight_fraction <= 1.0,
        "generate_traffic: tight_fraction out of [0, 1]");
  check(config.tight_slack_ms > 0.0,
        "generate_traffic: tight_slack_ms must be > 0");
  check(config.num_models >= 1, "generate_traffic: num_models must be >= 1");
  check(config.model_weights.empty() ||
            config.model_weights.size() ==
                static_cast<std::size_t>(config.num_models),
        "generate_traffic: model_weights must have num_models entries");
  // Checked in double: generate_single_model casts the expected count to
  // size_t for reserve(), and an out-of-range cast is undefined.
  const double expected = config.rate_rps * config.duration_ms / 1000.0;
  check(expected <= static_cast<double>(std::vector<Request>().max_size()),
        "generate_traffic: rate_rps * duration_ms expects more requests "
        "than a schedule can hold");

  if (config.num_models == 1) {
    // Historical path, bitwise-identical: same streams, same draws.
    return generate_single_model(config, 0);
  }

  double weight_sum = 0.0;
  for (const double w : config.model_weights) {
    check(w > 0.0, "generate_traffic: model weights must be > 0");
    weight_sum += w;
  }

  // Each model is an INDEPENDENT arrival process: its own seed-derived
  // rng streams (arrivals, priorities, slacks), its own share of the
  // mean rate, the scenario's shape.  Merging by arrival time then gives
  // the node-level mix without any cross-model rng coupling.  (The rng
  // SEEDING is what stays independent; the normalized rate shares are
  // not — re-weighting or adding a model changes every model's share of
  // rate_rps and therefore its thinned schedule.)
  std::vector<Request> merged;
  for (std::int64_t m = 0; m < config.num_models; ++m) {
    TrafficConfig per_model = config;
    per_model.num_models = 1;
    per_model.model_weights.clear();
    const double share =
        config.model_weights.empty()
            ? 1.0 / static_cast<double>(config.num_models)
            : config.model_weights[static_cast<std::size_t>(m)] / weight_sum;
    per_model.rate_rps = config.rate_rps * share;
    std::uint64_t state =
        config.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(m);
    per_model.seed = splitmix64(state);
    const std::vector<Request> one = generate_single_model(per_model, m);
    merged.insert(merged.end(), one.begin(), one.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Request& a, const Request& b) {
              return a.arrival_ms != b.arrival_ms
                         ? a.arrival_ms < b.arrival_ms
                         : a.model_id < b.model_id;
            });
  for (std::size_t i = 0; i < merged.size(); ++i) {
    merged[i].id = static_cast<std::int64_t>(i);
  }
  return merged;
}

}  // namespace rt3

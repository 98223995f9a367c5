// The paper's learned runtime governor, behind the GovernorPolicy seam.
//
// RlGovernorPolicy is a GRU policy over the serving-loop observation
// (battery fraction, queue depth, deadline pressure, miss-rate EWMA) that
// picks the ladder rung for the next batch.  It is trained offline with
// REINFORCE (`rt3 train-governor`): each episode is one full seeded
// virtual-clock serving session, the return is a battery-lifetime x
// miss-rate reward over the session's ServerStats, and the update is the
// same moving-average-baseline rule as the pattern-set RlController.
// Trained weights serialize to a TuningRecord-style text artifact
// ("rt3-governor v1") that byte-round-trips, so CI can train, save,
// reload and cmp.
//
// Serving uses the greedy argmax head (no rng draws, bit-deterministic)
// and builds no autodiff graph: GruCell::step and Linear::forward_row run
// the GRU and head on preallocated buffers, reading the live weights, with
// every float op in the training forward's order, so greedy decisions are
// bitwise those of the taped network and cost no heap allocation.
// Training mode samples actions from a caller-owned Rng on the tape and
// accumulates the episode's log-probability sum for the policy-gradient
// step.  The recurrent state is detached between decisions (truncated BPTT
// of one step), matching the repo's controller idiom, so it is kept as
// plain floats either way.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rl/gru.hpp"
#include "serve/governor_policy.hpp"
#include "serve/session.hpp"
#include "serve/stats.hpp"
#include "serve/traffic.hpp"
#include "tensor/optim.hpp"

namespace rt3 {

struct RlGovernorConfig {
  std::int64_t hidden_dim = 16;
  float learning_rate = 5e-3F;
  float baseline_decay = 0.7F;
  /// Queue depth is squashed to min(1, depth / queue_depth_scale).
  double queue_depth_scale = 16.0;
  /// EWMA smoothing of the per-batch miss fraction fed back into the
  /// observation vector.
  double miss_alpha = 0.3;
  /// Weight-init seed; decision order is deterministic given this seed.
  std::uint64_t seed = 11;
};

/// Session-level reward for one governor episode (higher is better).
/// Strictly decreasing in the miss rate and the drop fraction, increasing
/// in the served fraction and the session lifetime — the paper's
/// "serve well for as long as the battery lasts" objective.
struct GovernorRewardConfig {
  double serve_weight = 1.0;
  double miss_weight = 2.0;
  double drop_weight = 1.0;
  double lifetime_weight = 0.5;
  /// Lifetime credit saturates at this session length (the traffic
  /// duration, typically): surviving the whole session earns full credit.
  double reference_lifetime_ms = 60'000.0;
};

double governor_reward(const GovernorRewardConfig& config,
                       const ServerStats& stats);

class RlGovernorPolicy final : public GovernorPolicy, public Module {
 public:
  /// Observation layout: [battery_fraction, squashed queue depth,
  /// deadline_pressure, miss-rate EWMA].
  static constexpr std::int64_t kObsDim = 4;

  RlGovernorPolicy(Governor ladder, RlGovernorConfig config = {});

  std::string name() const override { return "rl"; }

  /// One decision per batch boundary: the first call after reset() or
  /// observe_batch() runs the network; until the next batch completes,
  /// repeated calls (switch re-reads, admission iterations) return the
  /// cached choice so a decision epoch is atomic.
  std::int64_t decide(const GovernorObservation& obs) override;

  void observe_batch(const BatchFeedback& feedback) override;

  /// RL switches fire exactly at the batch boundary they were decided at,
  /// so no threshold-crossing lag is attributed inside the drain.
  double drain_lag_ms(std::int64_t active_pos, double frac_before,
                      double frac_after, double lat_ms) const override;

  /// Clears episode state (recurrent state, cached decision, miss EWMA,
  /// log-prob accumulator).  Learned weights survive.
  void reset() override;

  /// Training mode: sample decisions from `rng` and accumulate log
  /// probabilities.  nullptr (the default) restores greedy serving.
  void set_sample_rng(Rng* rng) { sample_rng_ = rng; }

  /// REINFORCE step over the episode accumulated since the last reset():
  /// loss = -(reward - baseline) * log_prob_sum.  Returns the advantage.
  /// Requires at least one sampled decision this episode.
  double update(double reward);

  std::int64_t decisions_this_episode() const { return decisions_; }
  double miss_ewma() const { return miss_ewma_; }
  double baseline() const { return baseline_; }
  const RlGovernorConfig& config() const { return config_; }

  /// "rt3-governor v1" text artifact; parse(serialize()) then serialize()
  /// is byte-identical (weights print as %.17g, exact for float32).
  std::string serialize() const;
  void save(const std::string& path) const;
  static std::shared_ptr<RlGovernorPolicy> parse(const std::string& text,
                                                 Governor ladder);
  static std::shared_ptr<RlGovernorPolicy> load(const std::string& path,
                                                Governor ladder);

  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;

 private:
  RlGovernorConfig config_;
  std::unique_ptr<GruCell> gru_;
  std::unique_ptr<Linear> head_;
  std::unique_ptr<Adam> optimizer_;
  Rng* sample_rng_ = nullptr;

  std::int64_t decide_greedy(const float* x);
  std::int64_t decide_sampled(const float* x);

  // Episode state (cleared by reset()).
  std::vector<float> hidden_;
  Var log_prob_sum_;
  bool has_cached_ = false;
  std::int64_t cached_pos_ = 0;
  double miss_ewma_ = 0.0;
  std::int64_t decisions_ = 0;

  double baseline_ = 0.0;
  bool baseline_initialized_ = false;

  // Greedy-step buffers, sized at construction: GRU scratch, then the
  // head's logits (overwritten by their log-probabilities).
  std::vector<float> step_scratch_;
  std::vector<float> logp_;
};

/// Offline training setup: REINFORCE episodes over full serving sessions
/// in the seeded simulator, scenarios round-robined so the policy sees
/// steady, bursty and diurnal discharges.
struct GovernorTrainConfig {
  std::int64_t episodes = 30;
  RlGovernorConfig policy;
  GovernorRewardConfig reward;
  /// Base serving session every episode runs (battery, constraint T,
  /// batching).  Its governor fields are ignored: the trainee is wired in.
  ServeSessionConfig session;
  /// Base traffic shape; scenario and seed vary per episode.
  TrafficConfig traffic;
  /// Round-robin scenario cycle (must be non-empty).
  std::vector<TrafficScenario> scenarios = {TrafficScenario::kSteady,
                                            TrafficScenario::kBurst,
                                            TrafficScenario::kDiurnal};
  /// Episode e draws traffic from seed traffic_seed + e.
  std::uint64_t traffic_seed = 7;
  /// Action-sampling stream (independent of weight init).
  std::uint64_t sample_seed = 1234;
};

struct GovernorTrainResult {
  std::shared_ptr<RlGovernorPolicy> policy;
  /// Per-episode rewards / advantages / miss rates, in episode order.
  std::vector<double> rewards;
  std::vector<double> advantages;
  std::vector<double> miss_rates;
};

/// Runs the offline loop and returns the trained policy in greedy serving
/// mode.  Bit-deterministic from the config's seeds.
GovernorTrainResult train_governor(const GovernorTrainConfig& config);

}  // namespace rt3

#include "rl/governor.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/text_fields.hpp"

namespace rt3 {

namespace {

constexpr const char* kWho = "rt3-governor";

std::int64_t parse_i64(const std::string& field, const std::string& text) {
  return parse_int(std::string(kWho) + ": " + field, text);
}

double parse_f64(const std::string& field, const std::string& text) {
  return parse_finite(std::string(kWho) + ": " + field, text);
}

/// A weight: a finite double that also stays finite as a float.
float parse_f32(const std::string& field, const std::string& text) {
  const float v = static_cast<float>(parse_f64(field, text));
  check(std::isfinite(v),
        "rt3-governor: " + field + ": value '" + text + "' overflows float");
  return v;
}

}  // namespace

double governor_reward(const GovernorRewardConfig& config,
                       const ServerStats& stats) {
  const double submitted =
      stats.submitted > 0 ? static_cast<double>(stats.submitted) : 1.0;
  const double served = static_cast<double>(stats.completed) / submitted;
  const double dropped = static_cast<double>(stats.dropped) / submitted;
  const double lifetime =
      config.reference_lifetime_ms > 0.0
          ? std::min(1.0, stats.sim_end_ms / config.reference_lifetime_ms)
          : 0.0;
  return config.serve_weight * served - config.miss_weight * stats.miss_rate() -
         config.drop_weight * dropped + config.lifetime_weight * lifetime;
}

RlGovernorPolicy::RlGovernorPolicy(Governor ladder, RlGovernorConfig config)
    : GovernorPolicy(std::move(ladder)), config_(config) {
  check(config_.hidden_dim >= 1, "RlGovernorPolicy: hidden_dim must be >= 1");
  check(config_.queue_depth_scale > 0.0,
        "RlGovernorPolicy: queue_depth_scale must be positive");
  check(config_.miss_alpha > 0.0 && config_.miss_alpha <= 1.0,
        "RlGovernorPolicy: miss_alpha out of (0, 1]");
  Rng rng(config_.seed);
  gru_ = std::make_unique<GruCell>(kObsDim, config_.hidden_dim, rng);
  head_ = std::make_unique<Linear>(config_.hidden_dim, num_levels(), rng);
  optimizer_ = std::make_unique<Adam>(parameters(), config_.learning_rate);
  hidden_.resize(static_cast<std::size_t>(config_.hidden_dim));
  step_scratch_.resize(static_cast<std::size_t>(gru_->step_scratch_size()));
  logp_.resize(static_cast<std::size_t>(num_levels()));
  reset();
}

void RlGovernorPolicy::reset() {
  std::fill(hidden_.begin(), hidden_.end(), 0.0F);
  log_prob_sum_ = Var(Tensor::scalar(0.0F));
  has_cached_ = false;
  cached_pos_ = 0;
  miss_ewma_ = 0.0;
  decisions_ = 0;
}

std::int64_t RlGovernorPolicy::decide(const GovernorObservation& obs) {
  if (has_cached_) {
    return cached_pos_;
  }
  const double queue = std::min(
      1.0, static_cast<double>(obs.queue_depth) / config_.queue_depth_scale);
  const float x[kObsDim] = {static_cast<float>(obs.battery_fraction),
                            static_cast<float>(queue),
                            static_cast<float>(obs.deadline_pressure),
                            static_cast<float>(miss_ewma_)};
  cached_pos_ = sample_rng_ != nullptr ? decide_sampled(x) : decide_greedy(x);
  has_cached_ = true;
  ++decisions_;
  return cached_pos_;
}

std::int64_t RlGovernorPolicy::decide_greedy(const float* x) {
  gru_->step(x, hidden_.data(), step_scratch_.data());
  float* logp = logp_.data();
  const std::int64_t k = ssize_of(logp_);
  head_->forward_row(hidden_.data(), logp);
  softmax_row_inplace(logp, k);
  for (std::int64_t i = 0; i < k; ++i) {
    logp[i] = std::log(logp[i] + 1e-12F);  // log_softmax_lastdim's epsilon
  }
  // Argmax over the log-probabilities, not the logits: the log can
  // collapse near-ties, and then the lower index wins, as on the tape.
  std::int64_t choice = 0;
  for (std::int64_t i = 1; i < k; ++i) {
    if (logp[i] > logp[choice]) {
      choice = i;
    }
  }
  return choice;
}

std::int64_t RlGovernorPolicy::decide_sampled(const float* x) {
  const std::int64_t dim = config_.hidden_dim;
  const Var h = gru_->forward(
      Var(Tensor({1, kObsDim}, std::vector<float>(x, x + kObsDim))),
      Var(Tensor({1, dim}, hidden_)));
  const Var logp = log_softmax_lastdim(head_->forward(h));
  const std::int64_t k = logp.shape()[1];
  std::vector<double> probs(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) {
    probs[static_cast<std::size_t>(i)] =
        std::exp(static_cast<double>(logp.value()[i]));
  }
  const std::int64_t choice = sample_rng_->categorical(probs);
  Tensor onehot({1, k});
  onehot[choice] = 1.0F;
  log_prob_sum_ = add(log_prob_sum_, sum_all(mul_const(logp, onehot)));
  // Truncated BPTT-1: carry the value, drop the graph, so each decision's
  // tape stays one step deep.
  std::copy(h.value().data(), h.value().data() + dim, hidden_.begin());
  return choice;
}

void RlGovernorPolicy::observe_batch(const BatchOutcome& feedback) {
  const double miss_frac =
      feedback.batch_size > 0
          ? static_cast<double>(feedback.misses) /
                static_cast<double>(feedback.batch_size)
          : 0.0;
  miss_ewma_ += config_.miss_alpha * (miss_frac - miss_ewma_);
  has_cached_ = false;  // next boundary gets a fresh decision
}

double RlGovernorPolicy::drain_lag_ms(std::int64_t active_pos,
                                      double frac_before, double frac_after,
                                      double lat_ms) const {
  (void)active_pos;
  (void)frac_before;
  (void)frac_after;
  (void)lat_ms;
  return -1.0;
}

double RlGovernorPolicy::update(double reward) {
  check(decisions_ > 0, "RlGovernorPolicy::update: no decisions this episode");
  if (!baseline_initialized_) {
    baseline_ = reward;
    baseline_initialized_ = true;
  }
  const double advantage = reward - baseline_;
  baseline_ = config_.baseline_decay * baseline_ +
              (1.0 - config_.baseline_decay) * reward;

  optimizer_->zero_grad();
  Var loss = scale(log_prob_sum_, static_cast<float>(-advantage));
  loss.backward();
  auto params = parameters();
  clip_grad_norm(params, 5.0F);
  optimizer_->step();
  return advantage;
}

void RlGovernorPolicy::collect_params(const std::string& prefix,
                                      std::vector<NamedParam>& out) const {
  gru_->collect_params(prefix + "gru.", out);
  head_->collect_params(prefix + "head.", out);
}

std::string RlGovernorPolicy::serialize() const {
  std::ostringstream out;
  out << "rt3-governor v1\n";
  out << "obs_dim " << kObsDim << "\n";
  out << "hidden_dim " << config_.hidden_dim << "\n";
  out << "num_levels " << num_levels() << "\n";
  out << "queue_depth_scale " << format_g17(config_.queue_depth_scale) << "\n";
  out << "miss_alpha " << format_g17(config_.miss_alpha) << "\n";
  const std::vector<NamedParam> named = named_parameters();
  out << "params " << named.size() << "\n";
  for (const NamedParam& np : named) {
    out << "param name=" << np.name << " numel=" << np.param.numel() << "\n";
    const Tensor& value = np.param.value();
    for (std::int64_t i = 0; i < value.numel(); ++i) {
      out << (i > 0 ? " " : "") << format_g17(value[i]);
    }
    out << "\n";
  }
  return out.str();
}

std::shared_ptr<RlGovernorPolicy> RlGovernorPolicy::parse(
    const std::string& text, Governor ladder) {
  std::istringstream in(text);
  std::string magic;
  std::string version;
  check(static_cast<bool>(in >> magic >> version) && magic == "rt3-governor" &&
            version == "v1",
        "rt3-governor: not an rt3-governor v1 file");
  const std::int64_t obs_dim =
      parse_i64("obs_dim", take_field(in, kWho, "obs_dim"));
  check(obs_dim == kObsDim, "rt3-governor: artifact obs_dim " +
                                std::to_string(obs_dim) + " != " +
                                std::to_string(kObsDim));
  RlGovernorConfig config;
  config.hidden_dim =
      parse_i64("hidden_dim", take_field(in, kWho, "hidden_dim"));
  const std::int64_t levels =
      parse_i64("num_levels", take_field(in, kWho, "num_levels"));
  check(levels == static_cast<std::int64_t>(ladder.levels().size()),
        "rt3-governor: artifact has " + std::to_string(levels) +
            " levels but the ladder has " +
            std::to_string(ladder.levels().size()));
  config.queue_depth_scale =
      parse_f64("queue_depth_scale", take_field(in, kWho, "queue_depth_scale"));
  config.miss_alpha =
      parse_f64("miss_alpha", take_field(in, kWho, "miss_alpha"));
  auto policy = std::make_shared<RlGovernorPolicy>(std::move(ladder), config);

  const std::int64_t count =
      parse_i64("params", take_field(in, kWho, "params"));
  const std::vector<NamedParam> named = policy->named_parameters();
  check(count == static_cast<std::int64_t>(named.size()),
        "rt3-governor: artifact has " + std::to_string(count) +
            " params, expected " + std::to_string(named.size()));
  for (const NamedParam& np : named) {
    std::string label;
    check(static_cast<bool>(in >> label) && label == "param",
          "rt3-governor: expected a param line");
    const std::string name = take_kv(in, kWho, "name");
    check(name == np.name, "rt3-governor: expected param " + np.name +
                               ", found " + name);
    const std::string field = "param " + name;
    const std::int64_t numel = parse_i64(field, take_kv(in, kWho, "numel"));
    check(numel == np.param.numel(),
          "rt3-governor: param " + name + " has numel " +
              std::to_string(numel) + ", expected " +
              std::to_string(np.param.numel()));
    Var param = np.param;  // shared handle: writes hit the live weight
    Tensor& value = param.mutable_value();
    for (std::int64_t i = 0; i < numel; ++i) {
      std::string token;
      check(static_cast<bool>(in >> token),
            "rt3-governor: truncated values for param " + name);
      value[i] = parse_f32(field, token);
    }
  }
  check_no_trailing(in, kWho);
  return policy;
}

void RlGovernorPolicy::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  check(out.good(), "rt3-governor: cannot write " + path);
  out << serialize();
  check(out.good(), "rt3-governor: write failed: " + path);
}

std::shared_ptr<RlGovernorPolicy> RlGovernorPolicy::load(
    const std::string& path, Governor ladder) {
  std::ifstream in(path, std::ios::binary);
  check(in.good(), "rt3-governor: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str(), std::move(ladder));
}

GovernorTrainResult train_governor(const GovernorTrainConfig& config) {
  check(config.episodes >= 1, "train_governor: episodes must be >= 1");
  check(!config.scenarios.empty(), "train_governor: no scenarios");

  auto policy = std::make_shared<RlGovernorPolicy>(
      Governor::equal_tranches(paper_serve_ladder()), config.policy);
  ServeSessionConfig session_config = config.session;
  session_config.governor = GovernorKind::kRl;
  session_config.governor_policy = policy;
  ServeSession session(session_config);

  Rng sample_rng(config.sample_seed);
  GovernorTrainResult result;
  result.policy = policy;
  for (std::int64_t episode = 0; episode < config.episodes; ++episode) {
    TrafficConfig traffic = config.traffic;
    traffic.scenario = config.scenarios[static_cast<std::size_t>(
        episode % static_cast<std::int64_t>(config.scenarios.size()))];
    traffic.seed = config.traffic_seed + static_cast<std::uint64_t>(episode);
    const std::vector<Request> schedule = generate_traffic(traffic);

    policy->set_sample_rng(&sample_rng);
    const ServerStats stats = session.server().serve(schedule);
    const double reward = governor_reward(config.reward, stats);
    result.rewards.push_back(reward);
    result.miss_rates.push_back(stats.miss_rate());
    result.advantages.push_back(
        policy->decisions_this_episode() > 0 ? policy->update(reward) : 0.0);
  }
  // Hand the policy back in serving shape: greedy decisions, clean episode
  // state.
  policy->set_sample_rng(nullptr);
  policy->reset();
  return result;
}

}  // namespace rt3

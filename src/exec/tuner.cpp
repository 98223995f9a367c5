#include "exec/tuner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/text_fields.hpp"
#include "exec/simd.hpp"

namespace rt3 {
namespace {

// Search ladders.  k_tile 0 means auto (cache-sized, exec/kernels.hpp);
// threads counts the calling thread, and 0 means the caller and every
// pool worker.
constexpr std::array<std::int64_t, 6> kKTiles = {0, 16, 32, 64, 128, 256};
constexpr std::array<std::int64_t, 4> kThreads = {0, 1, 2, 4};

constexpr int kFeatures = 5;

constexpr const char* kWho = "TuningRecord";
/// The record format this build writes and reads.  v1 records carried
/// an unroll factor per entry, which the kernels derive from each call's
/// width instead.
constexpr const char* kVersion = "v2";

/// Quadratic feature map over the (log-scaled) knobs: enough curvature to
/// place the minimum of each knob's latency bowl, small enough to fit
/// from a couple dozen samples.
std::array<double, kFeatures> features(const KernelOptions& o) {
  const double kt = std::log2(
      static_cast<double>(o.k_tile == 0 ? 64 : std::max<std::int64_t>(
                                                   8, o.k_tile)));
  const double t = static_cast<double>(
      o.threads == 0 ? kThreads.back() : o.threads);
  return {1.0, kt, kt * kt, t, t * t};
}

/// Least-squares fit via the normal equations (kFeatures x kFeatures,
/// Gaussian elimination with partial pivoting, small ridge for rank
/// safety).  Fully deterministic.
std::array<double, kFeatures> fit_model(
    const std::vector<std::array<double, kFeatures>>& phi,
    const std::vector<double>& y) {
  double a[kFeatures][kFeatures] = {};
  std::array<double, kFeatures> b = {};
  for (std::size_t s = 0; s < phi.size(); ++s) {
    for (int i = 0; i < kFeatures; ++i) {
      b[i] += phi[s][i] * y[s];
      for (int j = 0; j < kFeatures; ++j) {
        a[i][j] += phi[s][i] * phi[s][j];
      }
    }
  }
  for (int i = 0; i < kFeatures; ++i) {
    a[i][i] += 1e-9;
  }
  for (int col = 0; col < kFeatures; ++col) {
    int pivot = col;
    for (int r = col + 1; r < kFeatures; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) {
        pivot = r;
      }
    }
    for (int j = 0; j < kFeatures; ++j) {
      std::swap(a[col][j], a[pivot][j]);
    }
    std::swap(b[col], b[pivot]);
    for (int r = col + 1; r < kFeatures; ++r) {
      const double f = a[r][col] / a[col][col];
      for (int j = col; j < kFeatures; ++j) {
        a[r][j] -= f * a[col][j];
      }
      b[r] -= f * b[col];
    }
  }
  std::array<double, kFeatures> w = {};
  for (int i = kFeatures - 1; i >= 0; --i) {
    double acc = b[i];
    for (int j = i + 1; j < kFeatures; ++j) {
      acc -= a[i][j] * w[j];
    }
    w[i] = acc / a[i][i];
  }
  return w;
}

double predict(const std::array<double, kFeatures>& w,
               const KernelOptions& o) {
  const auto phi = features(o);
  double acc = 0.0;
  for (int i = 0; i < kFeatures; ++i) {
    acc += w[i] * phi[i];
  }
  return acc;
}

}  // namespace

std::string TuningRecord::serialize() const {
  std::ostringstream out;
  out << "rt3-tuning " << kVersion << "\n";
  out << "mode " << exec_mode_name(mode) << "\n";
  out << "isa " << isa << "\n";
  out << "batch " << batch << "\n";
  out << "entries " << entries.size() << "\n";
  for (const TuningEntry& e : entries) {
    out << "entry layer=" << e.layer << " level=" << e.level
        << " k_tile=" << e.options.k_tile
        << " row_grain=" << e.options.row_grain
        << " threads=" << e.options.threads
        << " predicted_ms=" << format_g17(e.predicted_ms)
        << " measured_ms=" << format_g17(e.measured_ms) << "\n";
  }
  return out.str();
}

TuningRecord TuningRecord::parse(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  std::string version;
  check(static_cast<bool>(in >> magic >> version) && magic == "rt3-tuning",
        "TuningRecord: not an rt3-tuning file");
  check(version == kVersion, "TuningRecord: version " + version +
                                 " is not supported (need " + kVersion +
                                 ")");
  TuningRecord record;
  record.mode = exec_mode_from_name(take_field(in, kWho, "mode"));
  record.isa = take_field(in, kWho, "isa");
  record.batch =
      parse_int("TuningRecord: batch", take_field(in, kWho, "batch"));
  check(record.batch >= 1, "TuningRecord: batch: must be >= 1");
  const std::int64_t count =
      parse_int("TuningRecord: entries", take_field(in, kWho, "entries"));
  // No reserve(count): a corrupt count must fail at the first missing
  // entry line, not as a bad_alloc.
  check(count >= 0, "TuningRecord: bad entry count");
  for (std::int64_t i = 0; i < count; ++i) {
    const std::string where = "TuningRecord: entry " + std::to_string(i);
    std::string label;
    check(static_cast<bool>(in >> label) && label == "entry",
          where + ": expected an entry line (entries " +
              std::to_string(count) + ")");
    const auto int_kv = [&](const std::string& key) {
      return parse_int(where + " " + key, take_kv(in, kWho, key));
    };
    const auto double_kv = [&](const std::string& key) {
      return parse_finite(where + " " + key, take_kv(in, kWho, key));
    };
    TuningEntry e;
    e.layer = int_kv("layer");
    e.level = int_kv("level");
    e.options.k_tile = int_kv("k_tile");
    e.options.row_grain = int_kv("row_grain");
    e.options.threads = int_kv("threads");
    e.predicted_ms = double_kv("predicted_ms");
    e.measured_ms = double_kv("measured_ms");
    check(e.layer >= 0, where + " layer: must be >= 0");
    check(e.level >= 0, where + " level: must be >= 0");
    check(e.predicted_ms >= 0.0, where + " predicted_ms: must be >= 0");
    check(e.measured_ms >= 0.0, where + " measured_ms: must be >= 0");
    check_kernel_options(e.options, where);
    record.entries.push_back(e);
  }
  return record;
}

void TuningRecord::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  check(out.good(), "TuningRecord: cannot write " + path);
  out << serialize();
  check(out.good(), "TuningRecord: write failed: " + path);
}

TuningRecord TuningRecord::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check(in.good(), "TuningRecord: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

std::int64_t PlanCache::apply_tuning(const TuningRecord& record) {
  // Knobs tuned for one kernel family do not transfer to another; a
  // record for a different mode is a caller mix-up, not data.
  check(record.mode == mode_,
        std::string("PlanCache::apply_tuning: record is for mode ") +
            exec_mode_name(record.mode));
  std::int64_t applied = 0;
  for (const TuningEntry& e : record.entries) {
    if (e.layer < 0 || e.layer >= num_layers() || e.level < 0 ||
        e.level >= num_levels()) {
      continue;  // record from a larger deployment; apply what fits
    }
    set_tuned(e.layer, e.level, e.options);
    ++applied;
  }
  return applied;
}

std::vector<KernelOptions> Autotuner::candidate_grid() {
  std::vector<KernelOptions> grid;
  grid.reserve(kKTiles.size() * kThreads.size());
  for (const std::int64_t kt : kKTiles) {
    for (const std::int64_t t : kThreads) {
      KernelOptions o;
      o.k_tile = kt;
      o.threads = t;
      grid.push_back(o);
    }
  }
  return grid;
}

Autotuner::Autotuner(TunerConfig config, MeasuredBackend& backend)
    : config_(config),
      mode_(backend.plans().mode()),
      layers_(backend.plans().num_layers()),
      levels_(backend.plans().num_levels()) {
  check(config_.batch >= 1 && config_.batch <= backend.config().max_batch,
        "Autotuner: batch outside the backend's activation buffer");
  MeasuredBackend* b = &backend;
  const std::int64_t batch = config_.batch;
  cost_ = [b, batch](std::int64_t layer, std::int64_t level,
                     const KernelOptions& options) {
    return b->time_layer_ms(layer, level, batch, options);
  };
}

Autotuner::Autotuner(TunerConfig config, ExecMode mode, std::int64_t layers,
                     std::int64_t levels, CostFn cost)
    : config_(config),
      mode_(mode),
      layers_(layers),
      levels_(levels),
      cost_(std::move(cost)) {}

double Autotuner::median_cost(std::int64_t layer, std::int64_t level,
                              const KernelOptions& options) {
  check(config_.repeats >= 1, "Autotuner: repeats must be >= 1");
  cost_(layer, level, options);  // warm-up, discarded
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(config_.repeats));
  for (std::int64_t r = 0; r < config_.repeats; ++r) {
    samples.push_back(cost_(layer, level, options));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

TuningEntry Autotuner::tune_one(std::int64_t layer, std::int64_t level,
                                Rng& rng) {
  const std::vector<KernelOptions> grid = candidate_grid();
  const auto grid_n = static_cast<std::int64_t>(grid.size());
  const std::int64_t sample_n =
      std::min(std::max<std::int64_t>(kFeatures, config_.samples), grid_n);

  // 1. Measure a seeded random subset of the grid.
  const std::vector<std::int64_t> picks =
      rng.sample_without_replacement(grid_n, sample_n);
  std::vector<std::array<double, kFeatures>> phi;
  std::vector<double> y;
  std::int64_t best_sampled = picks[0];
  double best_sampled_ms = 0.0;
  bool have_best_sampled = false;
  for (const std::int64_t g : picks) {
    const double ms =
        median_cost(layer, level, grid[static_cast<std::size_t>(g)]);
    phi.push_back(features(grid[static_cast<std::size_t>(g)]));
    y.push_back(ms);
    if (!have_best_sampled || ms < best_sampled_ms) {
      best_sampled = g;
      best_sampled_ms = ms;
      have_best_sampled = true;
    }
  }

  // 2. Fit the latency model and rank the FULL grid by prediction (ties
  //    broken by grid index, keeping the search deterministic).
  const auto w = fit_model(phi, y);
  std::vector<std::int64_t> order(static_cast<std::size_t>(grid_n));
  for (std::int64_t g = 0; g < grid_n; ++g) {
    order[static_cast<std::size_t>(g)] = g;
  }
  std::vector<double> predicted(static_cast<std::size_t>(grid_n));
  for (std::int64_t g = 0; g < grid_n; ++g) {
    predicted[static_cast<std::size_t>(g)] =
        predict(w, grid[static_cast<std::size_t>(g)]);
  }
  std::sort(order.begin(), order.end(),
            [&](std::int64_t a, std::int64_t b) {
              const double pa = predicted[static_cast<std::size_t>(a)];
              const double pb = predicted[static_cast<std::size_t>(b)];
              return pa != pb ? pa < pb : a < b;
            });

  // 3. Re-measure the top predicted finalists plus the best sampled
  //    point; the fastest measurement wins (model proposes, measurement
  //    disposes).
  std::vector<std::int64_t> finalists(
      order.begin(),
      order.begin() + static_cast<std::size_t>(std::min<std::int64_t>(
                          std::max<std::int64_t>(1, config_.finalists),
                          grid_n)));
  if (std::find(finalists.begin(), finalists.end(), best_sampled) ==
      finalists.end()) {
    finalists.push_back(best_sampled);
  }
  std::int64_t winner = finalists[0];
  double winner_ms = 0.0;
  bool have_winner = false;
  for (const std::int64_t g : finalists) {
    const double ms =
        median_cost(layer, level, grid[static_cast<std::size_t>(g)]);
    if (!have_winner || ms < winner_ms ||
        (ms == winner_ms && g < winner)) {
      winner = g;
      winner_ms = ms;
      have_winner = true;
    }
  }

  TuningEntry entry;
  entry.layer = layer;
  entry.level = level;
  entry.options = grid[static_cast<std::size_t>(winner)];
  // The linear fit can extrapolate below zero; a time never is.
  entry.predicted_ms =
      std::max(0.0, predicted[static_cast<std::size_t>(winner)]);
  entry.measured_ms = winner_ms;
  return entry;
}

TuningRecord Autotuner::tune() {
  check(layers_ >= 1 && levels_ >= 1, "Autotuner: nothing to tune");
  check(static_cast<bool>(cost_), "Autotuner: no cost function");
  TuningRecord record;
  record.mode = mode_;
  record.batch = config_.batch;
  record.isa = simd_isa_name(active_simd_isa());
  Rng rng(config_.seed);
  for (std::int64_t level = 0; level < levels_; ++level) {
    for (std::int64_t layer = 0; layer < layers_; ++layer) {
      record.entries.push_back(tune_one(layer, level, rng));
    }
  }
  return record;
}

}  // namespace rt3

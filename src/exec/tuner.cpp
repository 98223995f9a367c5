#include "exec/tuner.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

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

constexpr const char* kWho = "TuningRecord";
/// The record format this build writes and reads.  v1 records carried
/// an unroll factor per entry, which the kernels derive from each call's
/// width instead; v2 records carried a fitted-model prediction per entry.
constexpr const char* kVersion = "v3";

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
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::string where = "TuningRecord: entry " + std::to_string(i);
    std::string label;
    check(static_cast<bool>(in >> label) && label == "entry",
          where + ": expected an entry line (entries " +
              std::to_string(count) + ")");
    const auto int_kv = [&](const std::string& key) {
      return parse_int(where + " " + key, take_kv(in, kWho, key));
    };
    TuningEntry e;
    e.layer = int_kv("layer");
    e.level = int_kv("level");
    e.options.k_tile = int_kv("k_tile");
    e.options.row_grain = int_kv("row_grain");
    e.options.threads = int_kv("threads");
    e.measured_ms = parse_finite(where + " measured_ms",
                                 take_kv(in, kWho, "measured_ms"));
    check(e.layer >= 0, where + " layer: must be >= 0");
    check(e.level >= 0, where + " level: must be >= 0");
    check(e.measured_ms >= 0.0, where + " measured_ms: must be >= 0");
    check_kernel_options(e.options, where);
    // Applying both entries of a repeated cell would let the last one
    // silently win.
    check(seen.insert({e.layer, e.level}).second,
          where + ": duplicate entry for layer=" + std::to_string(e.layer) +
              " level=" + std::to_string(e.level));
    record.entries.push_back(e);
  }
  check_no_trailing(in, kWho);
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

std::vector<KernelOptions> Autotuner::candidate_grid(ExecMode mode) {
  // Only the dense kernel reads k_tile; the other families keep the
  // KernelOptions default rather than measure copies of one launch.
  std::vector<std::int64_t> k_tiles(kKTiles.begin(), kKTiles.end());
  if (mode != ExecMode::kDense) {
    k_tiles = {KernelOptions{}.k_tile};
  }
  std::vector<KernelOptions> grid;
  grid.reserve(k_tiles.size() * kThreads.size());
  for (const std::int64_t kt : k_tiles) {
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
                                const std::vector<KernelOptions>& grid) {
  TuningEntry entry;
  entry.layer = layer;
  entry.level = level;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const double ms = median_cost(layer, level, grid[g]);
    if (g == 0 || ms < entry.measured_ms) {  // ties keep the earlier point
      entry.options = grid[g];
      entry.measured_ms = ms;
    }
  }
  return entry;
}

TuningRecord Autotuner::tune() {
  check(layers_ >= 1 && levels_ >= 1, "Autotuner: nothing to tune");
  check(static_cast<bool>(cost_), "Autotuner: no cost function");
  TuningRecord record;
  record.mode = mode_;
  record.batch = config_.batch;
  record.isa = simd_isa_name(active_simd_isa());
  const std::vector<KernelOptions> grid = candidate_grid(mode_);
  for (std::int64_t level = 0; level < levels_; ++level) {
    for (std::int64_t layer = 0; layer < layers_; ++layer) {
      record.entries.push_back(tune_one(layer, level, grid));
    }
  }
  return record;
}

}  // namespace rt3

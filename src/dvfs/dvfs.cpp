#include "dvfs/dvfs.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"

namespace rt3 {

VfTable VfTable::odroid_xu3_a7() {
  // Paper Table I, verbatim.
  return VfTable({
      {"l1", 400.0, 916.25},
      {"l2", 600.0, 917.5},
      {"l3", 800.0, 992.5},
      {"l4", 1000.0, 1066.25},
      {"l5", 1200.0, 1141.25},
      {"l6", 1400.0, 1240.0},
  });
}

VfTable::VfTable(std::vector<VfLevel> levels) : levels_(std::move(levels)) {
  check(!levels_.empty(), "VfTable: empty ladder");
  for (std::size_t i = 1; i < levels_.size(); ++i) {
    check(levels_[i].freq_mhz > levels_[i - 1].freq_mhz,
          "VfTable: levels must be sorted by frequency");
  }
}

const VfLevel& VfTable::level(std::int64_t index) const {
  check(index >= 0 && index < size(), "VfTable: level out of range");
  return levels_[static_cast<std::size_t>(index)];
}

PowerModel::PowerModel(double ceff_mw_per_mhz_v2, double static_mw)
    : ceff_mw_per_mhz_v2_(ceff_mw_per_mhz_v2), static_mw_(static_mw) {
  check(ceff_mw_per_mhz_v2 > 0.0 && static_mw >= 0.0,
        "PowerModel: bad constants");
}

double PowerModel::power_mw(const VfLevel& level) const {
  const double volts = level.volt_mv / 1000.0;
  return ceff_mw_per_mhz_v2_ * volts * volts * level.freq_mhz + static_mw_;
}

double PowerModel::energy_mj(const VfLevel& level, double duration_ms) const {
  check(duration_ms >= 0.0, "PowerModel: negative duration");
  // mW * ms = microjoules; convert to millijoules.
  return power_mw(level) * duration_ms / 1000.0;
}

double number_of_runs(double energy_budget_mj, double power_mw,
                      double latency_ms) {
  check(energy_budget_mj >= 0.0, "number_of_runs: negative budget");
  check(power_mw > 0.0 && latency_ms > 0.0,
        "number_of_runs: bad operating point");
  const double energy_per_run_mj = power_mw * latency_ms / 1000.0;
  return energy_budget_mj / energy_per_run_mj;
}

Battery::Battery(double capacity_mj)
    : capacity_mj_(capacity_mj), remaining_mj_(capacity_mj) {
  check(capacity_mj > 0.0, "Battery: capacity must be positive");
}

bool Battery::drain(double energy_mj) {
  check(energy_mj >= 0.0, "Battery: negative drain");
  if (energy_mj > remaining_mj_) {
    remaining_mj_ = 0.0;
    return false;
  }
  remaining_mj_ -= energy_mj;
  return true;
}

Governor::Governor(std::vector<std::int64_t> levels,
                   std::vector<double> thresholds)
    : levels_(std::move(levels)), thresholds_(std::move(thresholds)) {
  check(!levels_.empty(), "Governor: no levels");
  check(thresholds_.size() + 1 == levels_.size(),
        "Governor: " + std::to_string(levels_.size()) + " levels need " +
            std::to_string(levels_.size() - 1) + " thresholds, got " +
            std::to_string(thresholds_.size()));
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    // NaN fails both comparisons, so a NaN threshold is rejected here too.
    check(thresholds_[i] > 0.0 && thresholds_[i] < 1.0,
          "Governor: threshold[" + std::to_string(i) + "] = " +
              std::to_string(thresholds_[i]) + " out of (0, 1)");
    if (i > 0) {
      check(thresholds_[i] < thresholds_[i - 1],
            "Governor: thresholds must be strictly descending, but "
            "threshold[" +
                std::to_string(i - 1) + "] = " +
                std::to_string(thresholds_[i - 1]) + " <= threshold[" +
                std::to_string(i) + "] = " + std::to_string(thresholds_[i]));
    }
  }
}

Governor Governor::equal_tranches(std::vector<std::int64_t> levels) {
  const std::size_t n = levels.size();
  check(n >= 1, "Governor: no levels");
  std::vector<double> thresholds;
  for (std::size_t i = 1; i < n; ++i) {
    thresholds.push_back(1.0 - static_cast<double>(i) / static_cast<double>(n));
  }
  return Governor(std::move(levels), std::move(thresholds));
}

std::int64_t Governor::level_for(double battery_fraction) const {
  check(battery_fraction >= 0.0 && battery_fraction <= 1.0,
        "Governor: fraction out of range");
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    if (battery_fraction > thresholds_[i]) {
      return levels_[i];
    }
  }
  return levels_.back();
}

std::int64_t Governor::level_position(double battery_fraction) const {
  check(battery_fraction >= 0.0 && battery_fraction <= 1.0,
        "Governor: fraction out of range");
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    if (battery_fraction > thresholds_[i]) {
      return static_cast<std::int64_t>(i);
    }
  }
  return static_cast<std::int64_t>(levels_.size()) - 1;
}

double Governor::next_step_down(double battery_fraction) const {
  check(battery_fraction >= 0.0 && battery_fraction <= 1.0,
        "Governor: fraction out of range");
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    if (battery_fraction > thresholds_[i]) {
      return thresholds_[i];
    }
  }
  return 0.0;
}

}  // namespace rt3

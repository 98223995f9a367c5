// DVFS substrate: the Odroid-XU3 Cortex-A7 voltage/frequency ladder
// (paper Table I), an analytic power model, a battery with an energy
// budget, the number-of-runs metric, and a threshold governor that steps
// the ladder down as the battery drains (the paper's "iPhone enters
// energy-saving mode below 20%" behaviour).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rt3 {

/// One voltage/frequency operating point.
struct VfLevel {
  std::string name;
  double freq_mhz = 0.0;
  double volt_mv = 0.0;
};

/// The paper's Table I ladder for the ARM Cortex-A7 core in Odroid-XU3.
class VfTable {
 public:
  static VfTable odroid_xu3_a7();

  explicit VfTable(std::vector<VfLevel> levels);

  std::int64_t size() const {
    return static_cast<std::int64_t>(levels_.size());
  }
  const VfLevel& level(std::int64_t index) const;
  const std::vector<VfLevel>& levels() const { return levels_; }

  /// The paper's evaluation subset {l3, l4, l6} (0-based {2, 3, 5}),
  /// ordered low -> high frequency (E-mode, N-mode, F-mode).
  static std::vector<std::int64_t> paper_eval_levels() { return {2, 3, 5}; }

 private:
  std::vector<VfLevel> levels_;
};

/// Dynamic-plus-static CMOS power: P = Ceff * V^2 * f + P_static.
class PowerModel {
 public:
  PowerModel() = default;
  PowerModel(double ceff_mw_per_mhz_v2, double static_mw);

  /// Power draw in milliwatts at a V/F level.
  double power_mw(const VfLevel& level) const;

  /// Energy in millijoules for running `duration_ms` at a level.
  double energy_mj(const VfLevel& level, double duration_ms) const;

 private:
  // Defaults put the A7 cluster near 600 mW at 1.4 GHz / 1.24 V, matching
  // published Odroid-XU3 measurements.
  double ceff_mw_per_mhz_v2_ = 0.28;
  double static_mw_ = 45.0;
};

/// Inferences achievable within an energy budget at fixed power/latency —
/// the paper's hardware-efficiency metric ("number of runs").
double number_of_runs(double energy_budget_mj, double power_mw,
                      double latency_ms);

/// Battery with a fixed budget in millijoules.
class Battery {
 public:
  explicit Battery(double capacity_mj);

  double capacity_mj() const { return capacity_mj_; }
  double remaining_mj() const { return remaining_mj_; }
  double fraction() const { return remaining_mj_ / capacity_mj_; }
  bool empty() const { return remaining_mj_ <= 0.0; }

  /// Draws energy; returns false (and drains to 0) if not enough remains.
  bool drain(double energy_mj);

  void recharge() { remaining_mj_ = capacity_mj_; }

 private:
  double capacity_mj_;
  double remaining_mj_;
};

/// Steps down the V/F ladder as the battery drains: level i of
/// `levels` is used while battery fraction is above thresholds[i+1]
/// (thresholds sorted descending, implicit 0 at the end).
class Governor {
 public:
  /// levels: indices into a VfTable ordered high->low frequency;
  /// thresholds: battery fractions at which to step DOWN to the next
  /// level; must have levels.size() - 1 entries, strictly descending.
  Governor(std::vector<std::int64_t> levels, std::vector<double> thresholds);

  /// Equal battery-fraction tranches over the given levels (the paper's
  /// Table II experiment splits the budget across F/N/E modes).
  static Governor equal_tranches(std::vector<std::int64_t> levels);

  std::int64_t level_for(double battery_fraction) const;

  /// POSITION of the chosen level within this governor's level list
  /// (0 = fastest rung), the index the serving loop uses for per-level
  /// sparsities, plans, and stats.
  std::int64_t level_position(double battery_fraction) const;

  /// Battery fraction at which the level selected for `battery_fraction`
  /// steps down to the next rung (0 when already on the last level —
  /// there is nothing below).  Governor-aware batching shrinks batches
  /// when `battery_fraction - next_step_down(...)` falls inside a margin,
  /// so the drain-then-switch point arrives sooner.
  double next_step_down(double battery_fraction) const;

  const std::vector<std::int64_t>& levels() const { return levels_; }

 private:
  std::vector<std::int64_t> levels_;
  std::vector<double> thresholds_;
};

}  // namespace rt3

// Host wall-clock helpers for the handful of places that time real work
// (kernel execution, plan swaps, mask installs).  Virtual serving
// time never comes from here — only measured host-side costs do.
#pragma once

#include <chrono>

namespace rt3 {

/// Host-clock timestamp for measured wall time.  Store this alias, not a
/// chrono clock type: tools/rt3_lint.py bans direct clock primitives
/// outside this header so every wall-time read is greppable here.
using WallTimePoint = std::chrono::steady_clock::time_point;

inline WallTimePoint wall_now() { return std::chrono::steady_clock::now(); }

/// Milliseconds elapsed since `t0` on the steady clock.
inline double wall_ms_since(WallTimePoint t0) {
  return std::chrono::duration<double, std::milli>(wall_now() - t0).count();
}

}  // namespace rt3

// The benchmark's one host-clock read.  Every timed span in perfbench
// goes through host_ms(), so the wall-clock dependency sits in one place
// and never feeds back into the library's virtual clock.
#pragma once

#include "common/wall_time.hpp"

namespace perfbench {

/// Host wall milliseconds since the first call (steady clock).
inline double host_ms() {
  // rt3-lint: allow(wall-timing) benchmark origin: host time is what it measures
  static const rt3::WallTimePoint origin = rt3::wall_now();
  // rt3-lint: allow(wall-timing) elapsed host time of calls timed from outside
  return rt3::wall_ms_since(origin);
}

}  // namespace perfbench

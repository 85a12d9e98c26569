// The benchmark's four fixed workloads. Each pass builds a fresh engine,
// generates its inputs from the seed, replays them to completion in a
// closed loop on one thread, and checks the outcome.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "recorder.hpp"

namespace perfbench {

/// `full` is the measured size; `tiny` keeps every code path but finishes
/// in well under a second (the smoke test's size).
enum class Size { full, tiny };

/// What one pass over a workload produced.
struct PassResult {
  double build_s = 0;  // engine creation from the recipe
  double setup_s = 0;  // build_s plus input generation (plus the fill)
  double timed_s = 0;  // the replay itself
  std::uint64_t jobs = 0;       // jobs completed (pairs on lod_churn)
  std::uint64_t attempted = 0;  // engine operations issued
  std::uint64_t failed = 0;     // failed operations plus failed checks
  std::vector<std::string> errors;  // one line per failure
  /// Hash of every job's start time and resource paths.
  std::uint64_t digest = 0;
  /// Deterministic per-layer work totals ("queue.match_calls", ...), read
  /// after traced passes only.
  std::map<std::string, double> counters;
  /// Wall time the engine measures itself, read after traced passes only:
  /// its total traverser match time inside queue calls, and the median
  /// federation routing latency.
  double engine_match_us = 0;
  double route_latency_us_p50 = 0;
};

using RunPass = PassResult (*)(std::uint64_t seed, Size size, Recorder& rec);

struct Workload {
  const char* name;
  RunPass run;
};

const std::vector<Workload>& workloads();

}  // namespace perfbench

// The one replay loop behind every trace and scenario entry point, flat
// (queue::JobQueue) or federated (hier::Federation). A trace is a
// scenario with no events: jobs and resource events merge into one act
// list, and for each batch of acts sharing a timestamp the loop advances
// the engine to it (firing starts/completions and re-scheduling on the
// way), applies the batch and runs one scheduling pass. Checkpointed and
// resumed replays run the same loop, so they stay act-for-act identical
// to a straight replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/workload.hpp"
#include "util/expected.hpp"

namespace fluxion::sim::detail {

/// One replay step: a job arrival or a resource event.
struct Act {
  util::TimePoint at = 0;
  bool is_job = false;
  std::size_t idx = 0;  // into the job or the event list
};

/// Replay order: by time, events before jobs at equal timestamps (a rack
/// grown at t can host a job arriving at t), input order otherwise.
inline std::vector<Act> act_order(const std::vector<TraceJob>& jobs,
                                  const std::vector<DynEvent>& events) {
  std::vector<Act> acts;
  acts.reserve(jobs.size() + events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    acts.push_back({events[i].at, false, i});
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    acts.push_back({jobs[i].arrival, true, i});
  }
  std::stable_sort(acts.begin(), acts.end(), [](const Act& a, const Act& b) {
    if (a.at != b.at) return a.at < b.at;
    return !a.is_job && b.is_job;
  });
  return acts;
}

/// Optional hooks of one replay.
struct Hooks {
  /// Applies events[idx]; required when the act list holds events.
  std::function<util::Status(std::size_t idx)> apply_event;
  /// Fired once, at the act-batch boundary right before the first act
  /// later than `checkpoint_at` (or just before the final drain), with
  /// the number of acts applied so far. The plain replay passes through
  /// the same state, so a checkpoint taken here perturbs nothing.
  std::function<void(std::size_t applied)> on_checkpoint;
  util::TimePoint checkpoint_at = 0;
};

/// Fails when `engine` has already run or taken jobs.
template <class Engine>
util::Status require_fresh(const Engine& engine, const char* who) {
  if (engine.now() != 0 || !engine.all_jobs().empty()) {
    return util::Error{util::Errc::invalid_argument,
                       std::string(who) + ": engine already used"};
  }
  return util::Status::ok();
}

/// Replay acts[k0..] on `engine`, then run it dry; returns the end time.
/// The first k0 acts must already be applied (a restored engine): their
/// job ids are recovered from engine.all_jobs(), which lists them in
/// submit order. `ids` comes back aligned with `jobs`.
template <class Engine>
util::Expected<util::TimePoint> drive(Engine& engine,
                                      const std::vector<TraceJob>& jobs,
                                      const std::vector<Act>& acts,
                                      std::int64_t cores_per_node,
                                      std::size_t k0, const Hooks& hooks,
                                      std::vector<std::int64_t>& ids) {
  const auto& restored = engine.all_jobs();
  std::size_t prefix_jobs = 0;
  for (std::size_t k = 0; k < k0 && k < acts.size(); ++k) {
    prefix_jobs += acts[k].is_job ? 1 : 0;
  }
  if (k0 > acts.size() || prefix_jobs != restored.size()) {
    return util::Error{util::Errc::invalid_argument,
                       "resume: engine holds " +
                           std::to_string(restored.size()) +
                           " jobs, which is not a prefix of this replay"};
  }
  ids.assign(jobs.size(), -1);
  for (std::size_t k = 0, j = 0; k < k0; ++k) {
    if (acts[k].is_job) ids[acts[k].idx] = restored[j++];
  }
  bool pending_checkpoint = static_cast<bool>(hooks.on_checkpoint);
  for (std::size_t k = k0; k < acts.size();) {
    const util::TimePoint at = acts[k].at;
    if (pending_checkpoint && at > hooks.checkpoint_at) {
      hooks.on_checkpoint(k);
      pending_checkpoint = false;
    }
    // Fire events (completions free resources) on the way to this batch.
    while (true) {
      const util::TimePoint ev = engine.next_event();
      if (ev >= at) break;
      if (auto st = engine.advance_to(ev); !st) return st.error();
      engine.schedule();
    }
    if (auto st = engine.advance_to(std::max(engine.now(), at)); !st) {
      return st.error();
    }
    for (; k < acts.size() && acts[k].at <= engine.now(); ++k) {
      const Act& act = acts[k];
      if (act.is_job) {
        auto js = trace_jobspec(jobs[act.idx], cores_per_node);
        if (!js) return js.error();
        ids[act.idx] = engine.submit(std::move(*js));
      } else if (auto st = hooks.apply_event(act.idx); !st) {
        return st.error();
      }
    }
    engine.schedule();
  }
  if (pending_checkpoint) hooks.on_checkpoint(acts.size());
  return engine.run_to_completion();
}

}  // namespace fluxion::sim::detail

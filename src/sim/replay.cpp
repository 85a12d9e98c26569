#include "sim/replay.hpp"

#include "sim/driver.hpp"

namespace fluxion::sim {

namespace {

/// Replay `trace` from act `k0` with an optional checkpoint hook; a
/// trace is a scenario with no events.
util::Expected<ReplayResult> drive_trace(queue::JobQueue& q,
                                         const std::vector<TraceJob>& trace,
                                         std::int64_t cores_per_node,
                                         std::size_t k0,
                                         detail::Hooks hooks = {}) {
  ReplayResult result;
  auto end = detail::drive(q, trace, detail::act_order(trace, {}),
                           cores_per_node, k0, hooks, result.ids);
  if (!end) return end.error();
  result.end_time = *end;
  return result;
}

}  // namespace

util::Expected<ReplayResult> replay_trace(queue::JobQueue& q,
                                          const std::vector<TraceJob>& trace,
                                          std::int64_t cores_per_node) {
  if (auto st = detail::require_fresh(q, "replay_trace"); !st) {
    return st.error();
  }
  return drive_trace(q, trace, cores_per_node, 0);
}

util::Expected<ReplayResult> replay_trace_checkpoint(
    queue::JobQueue& q, const std::vector<TraceJob>& trace,
    std::int64_t cores_per_node, util::TimePoint checkpoint_at,
    const CheckpointFn& on_checkpoint) {
  if (auto st = detail::require_fresh(q, "replay_trace"); !st) {
    return st.error();
  }
  if (!on_checkpoint) {
    return util::Error{util::Errc::invalid_argument,
                       "replay_trace: null checkpoint callback"};
  }
  // With no events, the number of acts applied is the number submitted.
  detail::Hooks hooks;
  hooks.on_checkpoint = [&](std::size_t applied) { on_checkpoint(q, applied); };
  hooks.checkpoint_at = checkpoint_at;
  return drive_trace(q, trace, cores_per_node, 0, std::move(hooks));
}

util::Expected<ReplayResult> resume_trace(queue::JobQueue& q,
                                          const std::vector<TraceJob>& trace,
                                          std::int64_t cores_per_node) {
  return drive_trace(q, trace, cores_per_node,
                     static_cast<std::size_t>(q.stats().submitted));
}

}  // namespace fluxion::sim

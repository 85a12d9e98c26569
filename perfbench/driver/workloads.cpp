#include "workloads.hpp"

#include <algorithm>
#include <utility>

#include "core/resource_query.hpp"
#include "grug/recipes.hpp"
#include "hier/federation.hpp"
#include "jobspec/jobspec.hpp"
#include "obs/metrics.hpp"
#include "queue/job_queue.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace fluxion;

constexpr std::int64_t kCoresPerNode = 36;  // quartz
constexpr std::int64_t kNodesPerRack = 62;  // quartz
constexpr std::uint64_t kMixSeed = 20240601;

void fail(PassResult& out, std::string why) {
  ++out.failed;
  out.errors.push_back(std::move(why));
}

/// Order-sensitive 64-bit hash (FNV-1a style, one step per word).
class Digest {
 public:
  void mix(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hash of each vertex's containment path, indexed by vertex id, so the
/// digest names resources by path without hashing strings per claim.
std::vector<std::uint64_t> path_hashes(const graph::ResourceGraph& g) {
  std::vector<std::uint64_t> out(g.vertex_count());
  for (std::size_t v = 0; v < out.size(); ++v) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : g.vertex(static_cast<graph::VertexId>(v)).path) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    out[v] = h;
  }
  return out;
}

void mix_resources(Digest& d, const std::vector<std::uint64_t>& paths,
                   const std::vector<traverser::ResourceUnit>& units) {
  d.mix(units.size());
  for (const auto& u : units) {
    d.mix(paths.at(static_cast<std::size_t>(u.vertex)));
    d.mix(static_cast<std::uint64_t>(u.units));
  }
}

/// End-of-pass structural checks on one engine.
void check_engine(PassResult& out, const traverser::Traverser& t,
                  const std::string& who) {
  if (!t.audit()) fail(out, who + ": Traverser::audit() failed");
  if (!t.verify_filters()) fail(out, who + ": verify_filters() failed");
}

/// Traverser, planner and SDFU work totals shared by every workload. The
/// planner and SDFU ones exist only in the obs catalogue, which is
/// enabled in traced passes only.
void read_counters(PassResult& out, const traverser::TraverserStats& t) {
  const auto& m = obs::monitor();
  auto& c = out.counters;
  c["traverser.visits"] = t.visits;
  c["traverser.pruned"] = t.pruned;
  c["traverser.match_attempts"] = t.match_attempts;
  c["traverser.postorder_rejects"] = t.postorder_rejects;
  c["planner.avail_queries"] = m.planner_avail_queries.value();
  c["planner.span_adds"] = m.planner_span_adds.value();
  c["planner.rekeys"] = m.planner_rekeys.value();
  c["planner.point_inserts"] = m.planner_point_inserts.value();
  c["planner.atf_probes"] = m.planner_atf_probes.value();
  c["planner_multi.atf_rounds"] = m.multi_atf_rounds.value();
  c["sdfu.spans"] = m.sdfu_spans.value();
  c["sdfu.commits"] = m.sdfu_commits.value();
}

void read_queue_counters(PassResult& out, const queue::QueueStats& s) {
  auto& c = out.counters;
  c["queue.match_calls"] = s.match_calls;
  c["queue.match_skipped"] = s.match_skipped;
  c["queue.placements"] = s.started_immediately + s.reservations_made;
  c["queue.heap_pops"] = s.heap_pops;
  c["queue.events_fired"] = s.events_fired;
  c["queue.reservations_made"] = s.reservations_made;
}

/// A trace generated from the seed: whole-node jobspecs plus their
/// arrival times, in arrival order.
struct Trace {
  std::vector<jobspec::Jobspec> specs;
  std::vector<util::TimePoint> arrivals;
};

struct TraceShape {
  std::size_t jobs = 0;
  std::int64_t max_nodes = 0;
  util::Duration quantum = 0;        // 0: durations keep every shape
  double mean_interarrival = 0;      // 0: everything arrives at t=0
};

bool make_trace(const TraceShape& shape, std::uint64_t seed, Trace& out,
                PassResult& res) {
  sim::TraceConfig cfg;
  cfg.job_count = shape.jobs;
  cfg.max_nodes = shape.max_nodes;
  cfg.duration_quantum = shape.quantum;
  // The job mix (node counts and durations) is drawn once from a fixed
  // seed, so every seed schedules the same total work; the run's seed
  // orders the mix and draws the arrivals. Drawing the mix per seed made
  // throughput vary by about 11% between seeds on easy_backlog.
  util::Rng mix_rng(kMixSeed);
  auto trace = sim::generate_trace(cfg, mix_rng);
  util::Rng rng(seed);
  rng.shuffle(trace);
  if (shape.mean_interarrival > 0) {
    sim::stamp_poisson_arrivals(trace, shape.mean_interarrival, rng);
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const sim::TraceJob& a, const sim::TraceJob& b) {
                     return a.arrival < b.arrival;
                   });
  for (const auto& tj : trace) {
    auto js = sim::trace_jobspec(tj, kCoresPerNode);
    if (!js) {
      fail(res, "trace_jobspec: " + js.error().message);
      return false;
    }
    out.specs.push_back(std::move(*js));
    out.arrivals.push_back(tj.arrival);
  }
  return true;
}

struct LoopCalls {
  Call submit, schedule, next_event, advance;
};

/// The closed loop shared by the queue and federation workloads: handle
/// the next event (an arrival batch or a start/completion time), then run
/// one scheduling pass, and only then look at the next event. A pass
/// counts as a decision when `work()` (match calls + cache skips) moved.
template <class Engine, class Work>
void closed_loop(Engine& e, Trace& in, const LoopCalls& calls, Work work,
                 Recorder& rec, std::vector<std::int64_t>& ids,
                 PassResult& out) {
  const std::size_t n = in.specs.size();
  std::size_t k = 0;
  while (true) {
    rec.begin_step();
    util::TimePoint ev = util::kMaxTime;
    rec.call(calls.next_event, [&] { ev = e.next_event(); });
    const util::TimePoint at = k < n ? in.arrivals[k] : util::kMaxTime;
    if (ev == util::kMaxTime && at == util::kMaxTime) {
      rec.end_step();
      return;
    }
    const util::TimePoint t = std::max(e.now(), std::min(ev, at));
    util::Status st = util::Status::ok();
    rec.call(calls.advance, [&] { st = e.advance_to(t); });
    if (!st) {
      fail(out, "advance_to: " + st.error().message);
      rec.end_step();
      return;
    }
    while (k < n && in.arrivals[k] <= e.now()) {
      rec.call(calls.submit,
               [&] { ids.push_back(e.submit(std::move(in.specs[k]))); });
      ++k;
    }
    const auto before = work();
    const double us = rec.timed_call(calls.schedule, [&] { e.schedule(); });
    if (work() != before) rec.decision(us);
    rec.end_step();
  }
}

// --- flat queue workloads ----------------------------------------------------

struct QueueShape {
  int racks = 2;
  TraceShape trace;
  queue::QueuePolicy policy = queue::QueuePolicy::easy_backfill;
};

PassResult run_queue(const QueueShape& shape, std::uint64_t seed,
                     Recorder& rec) {
  PassResult out;
  const auto t0 = Clock::now();
  auto rq = core::ResourceQuery::create(
      grug::recipes::quartz(true, shape.racks));
  out.build_s = seconds_since(t0);
  if (!rq) {
    fail(out, "ResourceQuery::create: " + rq.error().message);
    return out;
  }
  Trace in;
  if (!make_trace(shape.trace, seed, in, out)) return out;
  queue::JobQueue q((*rq)->traverser(), shape.policy);
  out.setup_s = seconds_since(t0);

  const std::size_t n = in.specs.size();
  std::vector<std::int64_t> ids;
  ids.reserve(n);
  obs::monitor().reset();
  rec.start();
  const auto t1 = Clock::now();
  closed_loop(
      q, in,
      {Call::queue_submit, Call::queue_schedule, Call::queue_next_event,
       Call::queue_advance},
      [&] { return q.stats().match_calls + q.stats().match_skipped; }, rec,
      ids, out);
  out.timed_s = seconds_since(t1);

  out.attempted = n;
  const auto& g = (*rq)->graph();
  const auto paths = path_hashes(g);
  Digest d;
  for (const std::int64_t id : ids) {
    const queue::Job* job = q.find(id);
    if (job == nullptr || job->state != queue::JobState::completed) {
      fail(out, "job " + std::to_string(id) + " ended " +
                    (job ? queue::job_state_name(job->state) : "missing"));
      continue;
    }
    ++out.jobs;
    d.mix(static_cast<std::uint64_t>(job->start_time));
    mix_resources(d, paths, job->resources);
  }
  if (ids.size() != n) fail(out, "not every job was submitted");
  out.digest = d.value();
  if ((*rq)->traverser().job_count() != 0) {
    fail(out, "traverser still holds jobs after the queue drained");
  }
  check_engine(out, (*rq)->traverser(), "queue");

  if (rec.traced()) {
    read_queue_counters(out, q.stats());
    read_counters(out, (*rq)->traverser().stats());
    out.engine_match_us = q.stats().total_match_seconds * 1e6;
  }
  return out;
}

PassResult easy_backlog(std::uint64_t seed, Size size, Recorder& rec) {
  QueueShape s;
  s.trace.jobs = size == Size::full ? 1600 : 60;
  s.trace.max_nodes = s.racks * kNodesPerRack;
  s.trace.quantum = 3600;
  s.policy = queue::QueuePolicy::easy_backfill;
  return run_queue(s, seed, rec);
}

PassResult conservative_arrivals(std::uint64_t seed, Size size,
                                 Recorder& rec) {
  QueueShape s;
  s.trace.jobs = size == Size::full ? 1000 : 40;
  s.trace.max_nodes = s.racks * kNodesPerRack;
  s.trace.mean_interarrival = 30;
  s.policy = queue::QueuePolicy::conservative_backfill;
  return run_queue(s, seed, rec);
}

// --- lod_churn -----------------------------------------------------------------

PassResult lod_churn(std::uint64_t seed, Size size, Recorder& rec) {
  const int racks = size == Size::full ? 14 : 2;
  const std::size_t pairs = size == Size::full ? 10000 : 200;
  constexpr int kNodesPerLodRack = 18;
  // Fig 6a's shared-node request: four fit on each High-LOD node.
  constexpr std::uint64_t kPerNode = 4;

  PassResult out;
  const auto t0 = Clock::now();
  auto rq = core::ResourceQuery::create(
      grug::recipes::high_lod(true, racks, kNodesPerLodRack));
  out.build_s = seconds_since(t0);
  if (!rq) {
    fail(out, "ResourceQuery::create: " + rq.error().message);
    return out;
  }
  auto& engine = **rq;
  auto js = jobspec::make(
      {jobspec::res("node", 1,
                    {jobspec::slot(1, {jobspec::res("core", 10),
                                       jobspec::res("memory", 8),
                                       jobspec::res("bb", 1)})})},
      3600);
  if (!js) {
    fail(out, "jobspec::make: " + js.error().message);
    return out;
  }
  std::vector<traverser::JobId> live;
  while (true) {
    auto r = engine.match_allocate(*js);
    if (!r) break;
    live.push_back(r->job);
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(racks) * kNodesPerLodRack * kPerNode;
  out.attempted = live.size();
  if (live.size() != expected) {
    fail(out, "fill placed " + std::to_string(live.size()) + " jobs, want " +
                  std::to_string(expected));
    return out;
  }
  util::Rng rng(seed);
  std::vector<std::size_t> victims(pairs);
  for (auto& v : victims) {
    v = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
  }
  const auto paths = path_hashes(engine.graph());
  const auto stats0 = engine.traverser().stats();
  out.setup_s = seconds_since(t0);

  Digest d;
  obs::monitor().reset();
  rec.start();
  const auto t1 = Clock::now();
  for (const std::size_t slot : victims) {
    rec.begin_step();
    const auto p0 = Clock::now();
    util::Status st = util::Status::ok();
    rec.call(Call::traverser_cancel, [&] { st = engine.cancel(live[slot]); });
    util::Expected<traverser::MatchResult> r = util::Error{};
    rec.call(Call::traverser_match, [&] { r = engine.match_allocate(*js); });
    rec.decision(
        std::chrono::duration<double, std::micro>(Clock::now() - p0).count());
    out.attempted += 2;
    if (!st) fail(out, "cancel: " + st.error().message);
    if (!r) {
      fail(out, "re-allocate: " + r.error().message);
    } else {
      ++out.jobs;
      live[slot] = r->job;
      d.mix(slot);
      mix_resources(d, paths, r->resources);
    }
    rec.end_step();
  }
  out.timed_s = seconds_since(t1);
  out.digest = d.value();
  if (engine.traverser().job_count() != live.size()) {
    fail(out, "live job count drifted");
  }
  // verify_filters() costs grow with the square of the live claim count
  // (minutes at full size), so the full-size check runs after releasing
  // every job: filters must return exactly to full capacity. The tiny
  // size also checks the loaded state.
  if (size == Size::tiny) check_engine(out, engine.traverser(), "lod loaded");
  for (const traverser::JobId id : live) {
    if (auto st = engine.cancel(id); !st) {
      fail(out, "final cancel: " + st.error().message);
    }
  }
  if (engine.traverser().job_count() != 0) fail(out, "jobs left after drain");
  check_engine(out, engine.traverser(), "lod drained");

  if (rec.traced()) {
    auto t = engine.traverser().stats();
    t.visits -= stats0.visits;
    t.pruned -= stats0.pruned;
    t.match_attempts -= stats0.match_attempts;
    t.postorder_rejects -= stats0.postorder_rejects;
    read_counters(out, t);
  }
  return out;
}

// --- fed_backlog ---------------------------------------------------------------

PassResult fed_backlog(std::uint64_t seed, Size size, Recorder& rec) {
  const int racks = 4;
  const int nodes_per_rack = size == Size::full ? kNodesPerRack : 4;
  hier::FederationConfig cfg;
  cfg.children = 4;
  cfg.levels = 1;
  cfg.route = hier::RoutePolicy::least_loaded;
  cfg.queue_policy = queue::QueuePolicy::easy_backfill;
  cfg.steal_threshold = 2.0;
  TraceShape shape;
  shape.jobs = size == Size::full ? 2000 : 60;
  shape.max_nodes = nodes_per_rack;  // one leaf's share
  shape.quantum = 3600;

  PassResult out;
  const auto t0 = Clock::now();
  auto created = hier::Federation::create(
      grug::recipes::quartz(true, racks, nodes_per_rack, kCoresPerNode), cfg);
  out.build_s = seconds_since(t0);
  if (!created) {
    fail(out, "Federation::create: " + created.error().message);
    return out;
  }
  auto& fed = **created;
  Trace in;
  if (!make_trace(shape, seed, in, out)) return out;
  out.setup_s = seconds_since(t0);

  auto members_work = [&] {
    std::uint64_t w = 0;
    for (std::size_t m = 0; m < fed.member_count(); ++m) {
      const auto& s = fed.member(m).queue->stats();
      w += s.match_calls + s.match_skipped;
    }
    return w;
  };
  const std::size_t n = in.specs.size();
  std::vector<std::int64_t> ids;
  ids.reserve(n);
  obs::monitor().reset();
  rec.start();
  const auto t1 = Clock::now();
  closed_loop(fed, in,
              {Call::hier_submit, Call::hier_schedule, Call::hier_next_event,
               Call::hier_advance},
              members_work, rec, ids, out);
  out.timed_s = seconds_since(t1);

  out.attempted = n;
  std::vector<std::vector<std::uint64_t>> paths;
  for (std::size_t m = 0; m < fed.member_count(); ++m) {
    auto& engine = fed.member(m).instance->engine();
    paths.push_back(path_hashes(engine.graph()));
    const std::string who = "member " + std::to_string(m);
    if (!fed.member(m).is_root && engine.traverser().job_count() != 0) {
      fail(out, who + ": traverser still holds jobs after the queue drained");
    }
    // The root member still holds the four leaf grants (9k claims at full
    // size), where verify_filters() takes about 16 s; see lod_churn.
    if (size == Size::tiny || !fed.member(m).is_root) {
      check_engine(out, engine.traverser(), who);
    }
  }
  Digest d;
  for (const std::int64_t id : ids) {
    const hier::Federation::JobRef* ref = fed.find(id);
    const queue::Job* job = fed.find_job(id);
    if (ref == nullptr || job == nullptr ||
        job->state != queue::JobState::completed) {
      fail(out, "job " + std::to_string(id) + " ended " +
                    (job ? queue::job_state_name(job->state) : "unrouted"));
      continue;
    }
    ++out.jobs;
    d.mix(ref->member);
    d.mix(static_cast<std::uint64_t>(job->start_time));
    mix_resources(d, paths[ref->member], job->resources);
  }
  if (ids.size() != n) fail(out, "not every job was submitted");
  out.digest = d.value();

  if (rec.traced()) {
    queue::QueueStats qs;
    traverser::TraverserStats ts;
    for (std::size_t m = 0; m < fed.member_count(); ++m) {
      const auto& s = fed.member(m).queue->stats();
      qs.match_calls += s.match_calls;
      qs.match_skipped += s.match_skipped;
      qs.started_immediately += s.started_immediately;
      qs.reservations_made += s.reservations_made;
      qs.heap_pops += s.heap_pops;
      qs.events_fired += s.events_fired;
      qs.total_match_seconds += s.total_match_seconds;
      const auto& t = fed.member(m).instance->engine().traverser().stats();
      ts.visits += t.visits;
      ts.pruned += t.pruned;
      ts.match_attempts += t.match_attempts;
      ts.postorder_rejects += t.postorder_rejects;
    }
    read_queue_counters(out, qs);
    read_counters(out, ts);
    out.counters["hier.stolen"] = fed.stats().stolen;
    out.counters["hier.escalated"] = fed.stats().escalated;
    out.engine_match_us = qs.total_match_seconds * 1e6;
    out.route_latency_us_p50 =
        obs::monitor().hier_route_latency_us.quantile(0.5);
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"easy_backlog", easy_backlog},
      {"conservative_arrivals", conservative_arrivals},
      {"lod_churn", lod_churn},
      {"fed_backlog", fed_backlog},
  };
  return all;
}

}  // namespace perfbench

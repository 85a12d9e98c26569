// Depth-first traverser: matches an abstract resource request graph
// (jobspec) against the resource graph store (paper §3.2, §3.4, Figure 1c).
//
// Responsibilities:
//   * walk the containment subsystem depth-first from the root, matching
//     request vertices to resource vertices (levels not named in the
//     request are passed through);
//   * honour exclusivity: everything under a slot — and anything flagged
//     exclusive — is claimed whole; shared walks are recorded in each
//     vertex's x_checker so later exclusive claims can detect overlap;
//   * consult pruning filters before descending (a subtree whose aggregate
//     availability cannot cover even one instance of the pending request
//     is skipped) — paper §3.4;
//   * on success, commit planner spans and perform Scheduler-Driven
//     Filter Updates (SDFU) along the selected vertices' ancestor paths;
//   * for ALLOCATE_ORELSE_RESERVE, find the earliest feasible start by
//     probing `now` and then each future release time, fast-forwarded by
//     the root pruning filter's PlannerMultiAvailTimeFirst when present.
//
// The match *policy* — which of several viable candidates to prefer — is a
// callback object (paper §3.5); implementations live in policy/.
//
// Probe/commit split: a match is two phases. `probe()` is strictly
// read-only — it walks the frozen graph, builds a Selection into a
// caller-owned MatchScratch, and captures the mutation epoch it saw.
// `commit()` validates the probe's epoch, writes planner spans and SDFU
// filter updates, and folds the probe's stats delta into the traverser.
// `match()` is exactly probe()+commit() over the traverser's own scratch.
// Read replicas (snapshot::Replica) run probe() alone on their own
// engine copy. See docs/extending.md, "Concurrency contract".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/resource_graph.hpp"
#include "jobspec/jobspec.hpp"
#include "traverser/match_scratch.hpp"
#include "util/expected.hpp"
#include "util/time.hpp"

namespace fluxion::snapshot {
class EngineSnapshot;
}

namespace fluxion::traverser {

using graph::VertexId;
using util::Duration;
using util::TimePoint;

using JobId = std::int64_t;

enum class MatchOp {
  allocate,                  // at `now` or fail
  allocate_orelse_reserve,   // earliest feasible start, possibly future
  satisfiability,            // could this ever run on an idle system?
  allocate_with_satisfiability,  // allocate at `now`; on failure, report
                                 // resource_busy vs unsatisfiable precisely
};

/// One selected resource: `units` of vertex v for the job's window.
/// `exclusive` marks slot-contained or explicitly exclusive claims.
struct ResourceUnit {
  VertexId vertex = graph::kInvalidVertex;
  std::int64_t units = 0;
  bool exclusive = false;
};

struct MatchResult {
  JobId job = -1;
  TimePoint at = 0;
  Duration duration = 0;
  bool reserved = false;  // true when the start is in the future
  std::vector<ResourceUnit> resources;
};

/// Policy callback: ranks candidate vertices at each selection point.
class MatchPolicy {
 public:
  virtual ~MatchPolicy() = default;
  virtual std::string name() const = 0;

  /// Order `candidates` best-first. Called for every typed selection.
  virtual void order_candidates(const graph::ResourceGraph& g,
                                std::vector<VertexId>& candidates) const = 0;

  /// Set-level hook invoked when `needed` instances will be drawn from
  /// `candidates`; the default just orders them. Variation-aware
  /// scheduling overrides this to minimise performance-class spread.
  virtual void plan_selection(const graph::ResourceGraph& g,
                              std::vector<VertexId>& candidates,
                              std::int64_t needed) const {
    (void)needed;
    order_candidates(g, candidates);
  }
};

class Traverser {
 private:
  // Declared ahead of the public section so Probe can embed a Selection;
  // external code holds Probes opaquely and never names these types.
  struct Claim {
    VertexId vertex;
    std::int64_t units;
    bool exclusive;       // claimed under a slot / exclusive request
    bool whole_instance;  // full-vertex claim: SDFU uses subtree counts
    bool under_exclusive; // an ancestor claim already covers it for SDFU
  };

  struct Selection {
    std::vector<Claim> claims;
    std::vector<VertexId> shared_marks;  // deduplicated, ordered
    std::unordered_map<VertexId, std::int64_t> pending_units;
    std::unordered_set<VertexId> pending_excl;
    std::unordered_set<VertexId> shared_set;

    struct Checkpoint {
      std::size_t claims;
      std::size_t shared;
    };
    Checkpoint checkpoint() const {
      return {claims.size(), shared_marks.size()};
    }
    void rollback(const Checkpoint& cp);
    void push_claim(const Claim& c);
    bool mark_shared(VertexId v);  // false if already marked
  };

 public:
  /// The policy must outlive the traverser; the graph is mutated by
  /// match/cancel (planner spans, filter spans).
  Traverser(graph::ResourceGraph& g, VertexId root, const MatchPolicy& policy);

  /// Match a jobspec at time `now` per `op`. On success the resources are
  /// committed under `job` until cancel(job). Implemented as
  /// probe() + commit() over the traverser's own scratch. The first
  /// overload uses the traverser's default traversal mode; the second
  /// selects the mode per call (how the queue applies its configured
  /// mode).
  util::Expected<MatchResult> match(const jobspec::Jobspec& js, MatchOp op,
                                    TimePoint now, JobId job);
  util::Expected<MatchResult> match(const jobspec::Jobspec& js, MatchOp op,
                                    TimePoint now, JobId job,
                                    TraversalMode mode);

  /// The read-only half of a match: the outcome of the full time search
  /// and selection walk, captured against the mutation epoch it saw, with
  /// nothing committed. Consumed exactly once by commit(). A probe must
  /// not overlap any mutation of the same engine — commit, cancel,
  /// grow/shrink/extend, restore, or graph changes.
  struct Probe {
    JobId job = -1;
    MatchOp op = MatchOp::allocate;
    TimePoint now = 0;
    std::uint64_t epoch = 0;   // mutation_epoch() observed by the probe
    bool ran = false;          // passed validation; stats delta is live
    bool ok = false;           // a feasible selection was found
    util::TimeWindow window{}; // selected window when ok
    util::Error error{};       // failure when !ok
    TraverserStats delta{};    // this probe's stats contribution
    std::chrono::steady_clock::time_point t0{};  // probe start, for op latency
    Selection sel;             // the selection commit() will apply
    /// Match-failure attribution for this probe's walk; populated only
    /// when introspection is enabled (empty + disabled otherwise). Rides
    /// in the probe so an uncommitted probe leaves no trace, exactly like
    /// `delta`.
    RejectionProfile rejections;
  };

  Probe probe(const jobspec::Jobspec& js, MatchOp op, TimePoint now,
              JobId job, MatchScratch& scratch) const;
  Probe probe(const jobspec::Jobspec& js, MatchOp op, TimePoint now,
              JobId job, MatchScratch& scratch, TraversalMode mode) const;

  /// The mutating half: validate the probe against the current epoch, apply
  /// its selection (planner spans + SDFU filter updates), fold its stats
  /// delta, and run the op accounting/audit hooks. A stale probe (epoch
  /// moved since probe time) fails with resource_busy — callers re-probe.
  util::Expected<MatchResult> commit(Probe&& p);

  /// Release everything held by `job`.
  util::Status cancel(JobId job);

  /// Re-establish a previously-emitted allocation verbatim — the restart
  /// path: a resource manager replays its R documents after a crash so
  /// the new scheduler instance starts with the true cluster state.
  /// Claims are committed exactly as recorded (no matching); fails with
  /// resource_busy if any claim no longer fits, exists for duplicate ids.
  util::Expected<MatchResult> restore(const MatchResult& allocation);

  // --- elastic jobs (paper §5.5: malleability) ------------------------------
  /// Add `extra` resources to a live job for the remainder of its window
  /// ([max(now, start), end)). On success the job's recorded resource set
  /// is extended; the window itself never changes. Fails with
  /// resource_busy when the extra resources cannot be matched.
  util::Expected<MatchResult> grow(JobId job, const jobspec::Jobspec& extra,
                                   TimePoint now);

  /// Release the job's claims on `vertex` and everything beneath it
  /// (containment), keeping the rest of the allocation. Pruning filters
  /// are re-derived from the remaining claims. Fails with not_found when
  /// the job holds nothing there.
  util::Status shrink(JobId job, VertexId vertex);

  /// Walltime extension: lengthen the job's window by `extra`. Succeeds
  /// only if every held resource is still free for [old_end, old_end +
  /// extra) — i.e. no later reservation collides. All spans (claims,
  /// shared marks, filters) are extended atomically.
  util::Status extend(JobId job, Duration extra);

  /// Active (allocated or reserved) job count.
  std::size_t job_count() const noexcept { return jobs_.size(); }

  /// Jobs holding at least one claim on `vertex` or below it (containment
  /// path prefix), in ascending id order — the set a dynamic down/shrink
  /// must evict. Reserved jobs are included: their planned spans block the
  /// subtree just like running ones.
  std::vector<JobId> jobs_on_subtree(VertexId vertex) const;

  /// Look up a job's committed window; nullptr when unknown.
  const MatchResult* find_job(JobId job) const;

  const TraverserStats& stats() const noexcept { return stats_; }

  /// Monotone mutation epoch: bumped whenever committed scheduler state
  /// may have changed — successful match/restore/grow/cancel/shrink/
  /// extend, a cancel/shrink/extend that failed with Errc::internal
  /// (best-effort repair may have left spans moved), and external graph
  /// changes reported via note_external_mutation(). Cleanly failed
  /// attempts (not_found, resource_busy) touch nothing and do NOT move
  /// the epoch. Consumers (the queue's satisfiability cache, read
  /// replicas) compare epochs to decide whether cached match failures or
  /// replica answers are still current.
  std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }

  /// Report a mutation the traverser cannot see (graph grow/shrink,
  /// status flips) so epoch-based caches invalidate. Called by
  /// dynamic::DynamicResources.
  void note_external_mutation() noexcept { ++mutation_epoch_; }

  /// Zero the lifetime counters (the `clear-stats` command). The global
  /// obs::monitor() is reset separately by its owner.
  void clear_stats() noexcept { stats_ = TraverserStats{}; }

  /// Default traversal mode for match()/probe() calls that do not pass
  /// one explicitly. First-match stops the selection walk at the first
  /// feasible slot and never calls the policy scorer (see TraversalMode).
  void set_traversal_mode(TraversalMode m) noexcept { mode_ = m; }
  TraversalMode traversal_mode() const noexcept { return mode_; }

  /// Match-failure attribution gate. When on, every probe tallies a
  /// RejectionProfile (per-type rejection reasons + the planner's
  /// earliest-feasible hint) and commit() keeps the last consumed
  /// probe's profile for last_rejections(). When off — the default —
  /// the walk pays one predictable branch per rejection and nothing
  /// else, so counter-gated perf baselines are unaffected.
  void set_introspection(bool on) noexcept { introspect_ = on; }
  bool introspection() const noexcept { return introspect_; }

  /// Attribution of the most recently consumed (committed) probe —
  /// meaningful after a failed match when introspection is on. The
  /// profile of a successful match is typically sparse (rejections the
  /// walk stepped over on its way to a selection).
  const RejectionProfile& last_rejections() const noexcept {
    return last_rejections_;
  }

  /// last_rejections() rendered as key/value JSON fragments — ("dominant",
  /// quoted type name), one (reason, count) per non-zero reason bucket,
  /// and ("hint", earliest-feasible time) when known. The shared currency
  /// of the explain surfaces: the queue's eventlog "blocked" events,
  /// `resource-query explain` and `reapi_explain_json` all carry exactly
  /// these fragments.
  std::vector<std::pair<std::string, std::string>> explain_args() const;

  /// The match policy this traverser ranks candidates with (scored mode
  /// only). Exposed so callers that key caches on match behaviour — the
  /// queue's satisfiability cache — can fold the policy identity in.
  const MatchPolicy& policy() const noexcept { return policy_; }

  const graph::ResourceGraph& graph() const noexcept { return g_; }

  /// Verify all pruning filters against a from-scratch recount of the
  /// planner spans below them (test hook, O(V * jobs)).
  bool verify_filters() const;

  /// Deep structural audit: every vertex planner (schedule, x_checker,
  /// filter) validates and verify_filters() holds. Expensive; the oracle
  /// behind the post-mutation audit hook below.
  bool audit() const;

  /// Post-mutation audit hook (test/fuzzing aid). When enabled, every
  /// compound mutation (match, cancel, grow, shrink, extend, restore)
  /// re-runs audit() before returning and converts a divergence into an
  /// Errc::internal failure — so property tests catch corruption at the
  /// mutation that caused it, not at the end of the run.
  void set_audit(bool enabled) noexcept { audit_enabled_ = enabled; }
  bool audit_enabled() const noexcept { return audit_enabled_; }

  /// Test hook: make the next internal planner operation tagged `point`
  /// fail, driving the rollback paths that no public call sequence can
  /// reach (they only fire on state corruption). Points: "apply:claim",
  /// "apply:shared", "apply:filter" (the add routine, adding a schedule,
  /// shared-use or pruning-filter span — match, restore, grow, and the add
  /// half of every shrink/extend swap) and "swap:rem" (the swap routine
  /// removing one of the job's current spans).
  void fail_next(std::string point) { fault_point_ = std::move(point); }

 private:
  /// The binary snapshot codec serialises job records (claims, shared
  /// marks, filter spans) and re-commits them through add_spans on load.
  friend class fluxion::snapshot::EngineSnapshot;

  // A JobRecord holds every planner span a committed job owns. Each entry
  // describes itself — vertex, window and amount — so the add routine can
  // (re)create it and the swap routine can put it back; `span` is the id
  // the planner returned, kInvalidSpan while the entry is not added.

  /// One committed claim (schedule span). Grow extensions may cover a
  /// suffix of the job window.
  struct CommittedClaim {
    Claim claim;
    util::TimeWindow window;
    planner::SpanId span = planner::kInvalidSpan;
  };

  /// One shared walk through a vertex (x_checker span of one unit).
  struct SharedSpan {
    VertexId vertex;
    util::TimeWindow window;
    planner::SpanId span = planner::kInvalidSpan;
  };

  /// One pruning-filter span (SDFU aggregate below `vertex`).
  struct FilterSpan {
    VertexId vertex;
    util::TimeWindow window;
    std::vector<std::int64_t> counts;
    planner::SpanId span = planner::kInvalidSpan;
  };

  struct JobRecord {
    MatchResult result;
    std::vector<CommittedClaim> claims;
    std::vector<SharedSpan> shared_spans;
    std::vector<FilterSpan> filter_spans;
  };

  // --- selection (probe path: const, scratch-backed) --------------------------
  bool select_all(const jobspec::Jobspec& js, const util::TimeWindow& w,
                  Selection& sel, MatchScratch& sc) const;
  bool satisfy(const jobspec::Resource& req, VertexId under,
               std::int64_t multiplier, bool under_slot, bool under_excl,
               const util::TimeWindow& w, Selection& sel, std::size_t depth,
               MatchScratch& sc) const;
  bool satisfy_instances(const jobspec::Resource& req, VertexId under,
                         std::int64_t needed, std::int64_t needed_max,
                         bool exclusive, bool under_excl,
                         const util::TimeWindow& w, Selection& sel,
                         std::size_t depth, MatchScratch& sc) const;
  bool satisfy_units(const jobspec::Resource& req, VertexId under,
                     std::int64_t needed, std::int64_t needed_max,
                     bool exclusive, bool under_excl,
                     const util::TimeWindow& w, Selection& sel,
                     std::size_t depth, MatchScratch& sc) const;

  /// The candidate walk shared by both traversal modes: a DFS from `from`
  /// (inclusive) over shareable, unpruned containment edges that records
  /// the pass-through chain in `parent_of` (so shared marks can be applied
  /// on selection) and hands each vertex of `type` to `visit`. The walk
  /// unwinds — returning true — as soon as `visit` returns true. The
  /// scored mode collects every candidate (visit never stops); first-match
  /// claims inline and stops once the request is covered.
  template <class Visit>
  bool walk_candidates(VertexId from, util::InternId type,
                       const util::TimeWindow& w, const Selection& sel,
                       const DenseDemand& per_instance_demand,
                       ParentMap& parent_of, MatchScratch& sc,
                       Visit& visit) const;

  /// Why `v` cannot be walked/used shared (RejectReason::none = it can).
  /// vertex_shareable() is the boolean view of the same checks.
  RejectReason shareable_reason(VertexId v, const util::TimeWindow& w,
                                const Selection& sel) const;
  /// Why `v` cannot be claimed whole-and-exclusive (none = it can).
  RejectReason exclusive_reason(VertexId v, const util::TimeWindow& w,
                                const Selection& sel) const;
  bool vertex_shareable(VertexId v, const util::TimeWindow& w,
                        const Selection& sel) const {
    return shareable_reason(v, w, sel) == RejectReason::none;
  }
  bool vertex_exclusively_claimable(VertexId v, const util::TimeWindow& w,
                                    const Selection& sel) const {
    return exclusive_reason(v, w, sel) == RejectReason::none;
  }
  bool filter_admits(VertexId v, const util::TimeWindow& w,
                     const DenseDemand& demand) const;
  void mark_chain(VertexId candidate, VertexId stop_above,
                  const ParentMap& parent_of, Selection& sel) const;

  /// Aggregate per-type demand of one instance of req's subtree, written
  /// into `out` (cleared first). Types unknown to the graph are omitted:
  /// no filter tracks them and no vertex carries them, so their absence
  /// cannot change any admit/match outcome.
  void instance_demand(const jobspec::Resource& req, DenseDemand& out) const;

  // --- commit / time search -------------------------------------------------
  util::Expected<MatchResult> commit_selection(JobId job,
                                               const util::TimeWindow& w,
                                               TimePoint now, Selection& sel);
  /// Fold a consumed probe's stats delta into the lifetime counters and,
  /// when obs is enabled, into the obs catalogue's traverser counters.
  void fold_stats(const TraverserStats& d) noexcept;
  /// Turn a selection into committed spans appended to `rec` (schedule,
  /// shared-use and pruning-filter spans). Leaves `rec` unchanged on
  /// failure.
  util::Status apply_selection(JobRecord& rec, const util::TimeWindow& w,
                               const Selection& sel);
  /// SDFU (paper §3.4): the pruning-filter spans `claims` imply — one per
  /// (filtered ancestor, window) with the amounts consumed beneath it, in
  /// (vertex, window) order; all-zero aggregates are dropped.
  std::vector<FilterSpan> derive_filter_spans(
      const std::vector<CommittedClaim>& claims) const;

  // The only places planner spans of committed jobs are added or removed:
  // add_spans, replace_spans and release_record (through rem_span_at).
  // Spans are ordered schedule claims, then shared-use marks, then filter
  // spans; `k` indexes that order.
  static std::size_t span_count(const JobRecord& rec) noexcept {
    return rec.claims.size() + rec.shared_spans.size() +
           rec.filter_spans.size();
  }
  /// The transactional add: add the first `n` spans of `rec`. On failure
  /// remove the ones it added and return Errc::internal.
  util::Status add_spans(JobRecord& rec, std::size_t n);
  /// The transactional swap: remove rec's spans, add next's, and move
  /// `next` into `rec`. On any failure rec's spans are put back and
  /// Errc::internal is returned ("rollback incomplete" when even that
  /// fails).
  util::Status replace_spans(JobRecord& rec, JobRecord&& next);
  /// Remove span `k` of `rec` from its planner.
  util::Status rem_span_at(JobRecord& rec, std::size_t k);
  /// Recompute rec.result.resources from rec.claims.
  void refresh_resources(JobRecord& rec) const;
  /// Release every span held by rec (best effort: keeps going past a
  /// failed removal, then reports it as Errc::internal).
  util::Status release_record(JobRecord& rec);
  /// Earliest aggregate-feasible start per the root pruning filter (read
  /// path: touches no planner state).
  util::Expected<TimePoint> next_candidate_time(TimePoint after,
                                                Duration duration,
                                                const jobspec::Jobspec& js)
      const;

  // --- mutation bodies (public entry points wrap these with the audit
  // hook) --------------------------------------------------------------------
  util::Status cancel_impl(JobId job);
  util::Expected<MatchResult> restore_impl(const MatchResult& allocation);
  util::Expected<MatchResult> grow_impl(JobId job,
                                        const jobspec::Jobspec& extra,
                                        TimePoint now);
  util::Status shrink_impl(JobId job, VertexId vertex);
  util::Status extend_impl(JobId job, Duration extra);

  util::Status run_audit(const char* op) const;
  /// True when the pending injected fault (fail_next) matches `point`;
  /// consumes it.
  bool fault_fires(const char* point);

  graph::ResourceGraph& g_;
  VertexId root_;
  const MatchPolicy& policy_;
  std::unordered_map<JobId, JobRecord> jobs_;
  std::map<TimePoint, int> release_times_;
  TraverserStats stats_;
  MatchScratch scratch_;  // match()/grow scratch
  TraversalMode mode_ = TraversalMode::scored;
  std::uint64_t mutation_epoch_ = 0;
  bool audit_enabled_ = false;
  bool introspect_ = false;
  RejectionProfile last_rejections_;  // of the last consumed probe
  std::string fault_point_;
};

}  // namespace fluxion::traverser

// Snapshot subsystem unit tests: codec primitives, corrupt-input
// rejection, engine round-trips, replica/writer agreement, concurrent
// replicas, loading an older format version, and the mutation-epoch
// regression (failed cancel/shrink/extend must not invalidate caches).
// The end-to-end replay differential lives in
// tests/integration/test_snapshot_differential.cpp.
#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>

#include "core/resource_query.hpp"
#include "grug/grug.hpp"
#include "obs/metrics.hpp"
#include "policy/policies.hpp"
#include "queue/job_queue.hpp"
#include "sim/replay.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/replica.hpp"

namespace fluxion::snapshot {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

jobspec::Jobspec whole_nodes(std::int64_t n, util::Duration d) {
  auto js = make({slot(n, {xres("node", 1, {res("core", 4)})})}, d);
  EXPECT_TRUE(js);
  return *js;
}

class SnapshotFixture : public ::testing::Test {
 protected:
  SnapshotFixture() : g(0, 1 << 20) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster\n"
        "cluster count=1\n  node count=4\n    core count=4\n");
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    trav = std::make_unique<traverser::Traverser>(g, *r, pol);
  }
  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
};

// --- codec ----------------------------------------------------------------

TEST(SnapshotCodec, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.uv(0);
  w.uv(127);
  w.uv(128);
  w.uv(0xffffffffffffffffULL);
  w.iv(0);
  w.iv(-1);
  w.iv(1);
  w.iv(INT64_MIN);
  w.iv(INT64_MAX);
  w.f64(0.0);
  w.f64(-3.25);
  w.f64(1e300);
  w.str("");
  w.str("hello snapshot");

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.uv(), 0u);
  EXPECT_EQ(r.uv(), 127u);
  EXPECT_EQ(r.uv(), 128u);
  EXPECT_EQ(r.uv(), 0xffffffffffffffffULL);
  EXPECT_EQ(r.iv(), 0);
  EXPECT_EQ(r.iv(), -1);
  EXPECT_EQ(r.iv(), 1);
  EXPECT_EQ(r.iv(), INT64_MIN);
  EXPECT_EQ(r.iv(), INT64_MAX);
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.f64(), -3.25);
  EXPECT_EQ(r.f64(), 1e300);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.at_end());
}

TEST(SnapshotCodec, IdRunsCompressDenseRanges) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 1024; ++i) ids.push_back(i);
  ids.push_back(5000);
  Writer w;
  w.id_runs(ids);
  // One dense run plus a singleton: a handful of varints, not a thousand.
  EXPECT_LT(w.bytes().size(), 16u);
  Reader r(w.bytes());
  // The decoded set legitimately dwarfs the encoded bytes; only the
  // caller's domain bound (here: the id universe) limits expansion.
  EXPECT_EQ(r.id_runs(6000), ids);
  EXPECT_FALSE(r.failed());

  // The same bytes against a too-small bound are refused — the
  // allocation-bomb guard.
  Reader tight(w.bytes());
  EXPECT_TRUE(tight.id_runs(100).empty());
  EXPECT_TRUE(tight.failed());
}

TEST(SnapshotCodec, ReaderFailsStickyOnTruncation) {
  Writer w;
  w.uv(300);
  w.str("abcdef");
  const std::string full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Reader r(std::string_view(full).substr(0, cut));
    (void)r.uv();
    (void)r.str();
    EXPECT_TRUE(r.failed()) << "cut=" << cut;
    // The flag is sticky: later reads never clear it, so one check at
    // the end of a section catches any earlier truncation.
    (void)r.uv();
    (void)r.u8();
    EXPECT_TRUE(r.failed()) << "cut=" << cut;
  }
}

// --- corrupt input --------------------------------------------------------

TEST_F(SnapshotFixture, LoadRejectsCorruptInput) {
  EXPECT_FALSE(EngineSnapshot::load(""));
  EXPECT_FALSE(EngineSnapshot::load("not a snapshot at all"));

  auto m = trav->match(whole_nodes(2, 100), traverser::MatchOp::allocate,
                       0, 1);
  ASSERT_TRUE(m);
  const std::string good = EngineSnapshot::save(g, *trav, nullptr);
  ASSERT_TRUE(EngineSnapshot::load(good));

  // Wrong magic.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(EngineSnapshot::load(bad));

  // Future version is refused, not misread.
  bad = good;
  bad[4] = static_cast<char>(kSnapshotVersion + 1);
  EXPECT_FALSE(EngineSnapshot::load(bad));

  // Every truncation fails cleanly (never crashes, never half-loads).
  for (std::size_t cut = 0; cut < good.size(); cut += 7) {
    EXPECT_FALSE(EngineSnapshot::load(std::string_view(good).substr(0, cut)))
        << "cut=" << cut;
  }
}

// --- engine round trip ----------------------------------------------------

TEST_F(SnapshotFixture, EngineRoundTripPreservesClaims) {
  auto m1 = trav->match(whole_nodes(2, 100), traverser::MatchOp::allocate,
                        0, 1);
  auto m2 = trav->match(whole_nodes(1, 50), traverser::MatchOp::allocate,
                        0, 2);
  ASSERT_TRUE(m1);
  ASSERT_TRUE(m2);

  const std::string bytes = save_engine(g, *trav, nullptr);
  auto eng = load_engine(bytes);
  ASSERT_TRUE(eng);
  EXPECT_EQ((*eng)->graph->vertex_count(), g.vertex_count());
  EXPECT_EQ((*eng)->policy_name, "low-id");
  EXPECT_EQ((*eng)->queue, nullptr);
  EXPECT_EQ((*eng)->next_job_id, 3);
  EXPECT_EQ((*eng)->traverser->mutation_epoch(), trav->mutation_epoch());

  // The restored claims block the same capacity: a 4-node job cannot start
  // now on either engine, and becomes feasible at the same instant.
  const auto js = whole_nodes(4, 10);
  traverser::Traverser& rt = *(*eng)->traverser;
  auto p_orig = trav->match(js, traverser::MatchOp::allocate_orelse_reserve,
                            0, 10);
  auto p_rest = rt.match(js, traverser::MatchOp::allocate_orelse_reserve,
                         0, 10);
  ASSERT_TRUE(p_orig);
  ASSERT_TRUE(p_rest);
  EXPECT_EQ(p_orig->at, p_rest->at);
  EXPECT_EQ(p_orig->reserved, p_rest->reserved);

  // Restored job records are live: cancelling them releases the claim.
  EXPECT_TRUE(rt.cancel(1));
  EXPECT_TRUE(rt.cancel(2));
  EXPECT_EQ(rt.find_job(1), nullptr);
}

TEST_F(SnapshotFixture, SaveIsDeterministic) {
  auto m = trav->match(whole_nodes(3, 200), traverser::MatchOp::allocate,
                       0, 1);
  ASSERT_TRUE(m);
  EXPECT_EQ(EngineSnapshot::save(g, *trav, nullptr),
            EngineSnapshot::save(g, *trav, nullptr));
}

TEST_F(SnapshotFixture, QueueRoundTripPreservesJobsAndClock) {
  queue::JobQueue q(*trav, queue::QueuePolicy::conservative_backfill);
  q.set_eventlog(true);
  const auto a = q.submit(whole_nodes(4, 100));
  const auto b = q.submit(whole_nodes(2, 50));
  q.schedule();
  ASSERT_TRUE(q.advance_to(60));

  const std::string bytes = save_engine(g, *trav, &q);
  auto eng = load_engine(bytes);
  ASSERT_TRUE(eng);
  ASSERT_NE((*eng)->queue, nullptr);
  queue::JobQueue& rq = *(*eng)->queue;
  EXPECT_EQ(rq.now(), q.now());
  EXPECT_EQ(rq.stats().submitted, q.stats().submitted);
  EXPECT_EQ(rq.stats().completed, q.stats().completed);
  EXPECT_EQ(rq.all_jobs(), q.all_jobs());
  ASSERT_NE(rq.find(a), nullptr);
  ASSERT_NE(rq.find(b), nullptr);
  EXPECT_EQ(rq.find(a)->state, q.find(a)->state);
  EXPECT_EQ(rq.find(b)->state, q.find(b)->state);
  EXPECT_EQ(rq.find(a)->start_time, q.find(a)->start_time);
  // The eventlog rides along byte-for-byte.
  EXPECT_EQ(rq.eventlog().jsonl(), q.eventlog().jsonl());

  // Both engines finish the workload identically.
  q.run_to_completion();
  rq.run_to_completion();
  EXPECT_EQ(rq.find(b)->end_time, q.find(b)->end_time);
  EXPECT_EQ(rq.eventlog().jsonl(), q.eventlog().jsonl());
}

// --- replica --------------------------------------------------------------

TEST_F(SnapshotFixture, ReplicaAgreesWithWriterAtSameEpoch) {
  // Fill the machine until t=100.
  for (int j = 1; j <= 4; ++j) {
    ASSERT_TRUE(trav->match(whole_nodes(1, 100),
                            traverser::MatchOp::allocate, 0, j));
  }
  const std::string bytes = save_engine(g, *trav, nullptr);
  auto rep = Replica::open(bytes);
  ASSERT_TRUE(rep);
  EXPECT_EQ((*rep)->epoch(), trav->mutation_epoch());
  EXPECT_FALSE((*rep)->stale_against(trav->mutation_epoch()));
  EXPECT_EQ((*rep)->policy_name(), "low-id");

  // Satisfiability matches the writer's graph shape.
  EXPECT_TRUE((*rep)->satisfiable(whole_nodes(4, 10)));
  EXPECT_FALSE((*rep)->satisfiable(whole_nodes(5, 10)));

  // Earliest start agrees with the writer's own reserve probe.
  auto w = trav->match(whole_nodes(1, 10),
                       traverser::MatchOp::allocate_orelse_reserve, 0, 99);
  ASSERT_TRUE(w);
  auto rs = (*rep)->earliest_start(whole_nodes(1, 10), 0);
  ASSERT_TRUE(rs);
  EXPECT_EQ(*rs, w->at);
  EXPECT_GE((*rep)->queries(), 3u);

  // The writer's reserve moved its epoch: the replica is now stale, and a
  // refresh from a fresh snapshot catches it up.
  EXPECT_TRUE((*rep)->stale_against(trav->mutation_epoch()));
  EXPECT_TRUE((*rep)->refresh(save_engine(g, *trav, nullptr)));
  EXPECT_FALSE((*rep)->stale_against(trav->mutation_epoch()));

  // A failed refresh keeps the replica serving its current snapshot.
  EXPECT_FALSE((*rep)->refresh("garbage"));
  EXPECT_EQ((*rep)->epoch(), trav->mutation_epoch());
  EXPECT_TRUE((*rep)->satisfiable(whole_nodes(4, 10)));
}

TEST_F(SnapshotFixture, ReplicaQueriesLeaveTraverserCountersUnchanged) {
  // Traverser counters count committed probes only. A replica's probes
  // are never committed, so they must not move the obs catalogue that
  // replicas share with the writer.
  ASSERT_TRUE(trav->match(whole_nodes(1, 100),
                          traverser::MatchOp::allocate, 0, 1));
  auto rep = Replica::open(save_engine(g, *trav, nullptr));
  ASSERT_TRUE(rep);
  obs::set_enabled(true);
  obs::monitor().reset();
  const bool sat = (*rep)->satisfiable(whole_nodes(4, 10));
  const auto start = (*rep)->earliest_start(whole_nodes(4, 10), 0);
  const std::uint64_t visits = obs::monitor().trav_visits.value();
  const std::uint64_t attempts = obs::monitor().trav_match_attempts.value();
  const std::uint64_t queries = obs::monitor().replica_queries.value();
  obs::set_enabled(false);
  EXPECT_TRUE(sat);
  ASSERT_TRUE(start);
  EXPECT_EQ(*start, 100);
  EXPECT_EQ(queries, 2u);  // both queries ran a probe
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(attempts, 0u);
}

// --- mutation-epoch regression (failed ops must not invalidate) -----------

TEST_F(SnapshotFixture, FailedMutationsDoNotBumpEpoch) {
  ASSERT_TRUE(trav->match(whole_nodes(1, 100),
                          traverser::MatchOp::allocate, 0, 1));
  const std::uint64_t e0 = trav->mutation_epoch();

  // Cleanly failed attempts: unknown job, unknown vertex. All must leave
  // the epoch alone — they touched no span, so caches stay valid.
  EXPECT_FALSE(trav->cancel(999));
  EXPECT_FALSE(trav->shrink(999, 0));
  EXPECT_FALSE(trav->extend(999, 10));
  EXPECT_EQ(trav->mutation_epoch(), e0);

  // Successful ops still bump it.
  EXPECT_TRUE(trav->extend(1, 10));
  EXPECT_EQ(trav->mutation_epoch(), e0 + 1);
  EXPECT_TRUE(trav->cancel(1));
  EXPECT_EQ(trav->mutation_epoch(), e0 + 2);
}

TEST_F(SnapshotFixture, FailedMutationsDoNotInvalidateMatchCache) {
  queue::JobQueue q(*trav, queue::QueuePolicy::conservative_backfill);
  ASSERT_TRUE(q.match_cache());
  q.submit(whole_nodes(4, 100));
  q.submit(whole_nodes(4, 100));
  q.schedule();
  const std::uint64_t inval0 = q.stats().cache_invalidations;

  // A failed direct mutation between passes must not drop the queue's
  // match cache (the regression: unconditional epoch bumps made every
  // failed cancel/shrink/extend an invalidation).
  EXPECT_FALSE(trav->cancel(424242));
  EXPECT_FALSE(trav->extend(424242, 5));
  q.schedule();
  EXPECT_EQ(q.stats().cache_invalidations, inval0);
}

// --- concurrent replicas ---------------------------------------------------

// The engine is single-threaded; concurrency comes from one Replica per
// thread. Two threads each open, query and refresh their own replica of
// the same bytes with metrics on, so the only state they share is the obs
// catalogue — which is what ThreadSanitizer watches here.
class ReplicaConcurrency : public SnapshotFixture {};

TEST_F(ReplicaConcurrency, TwoThreadsTwoReplicas) {
  for (int j = 1; j <= 2; ++j) {
    ASSERT_TRUE(trav->match(whole_nodes(1, 100),
                            traverser::MatchOp::allocate, 0, j));
  }
  const std::string bytes = save_engine(g, *trav, nullptr);
  obs::set_enabled(true);
  obs::monitor().reset();
  constexpr int kRounds = 20;
  int ok[2] = {0, 0};
  auto serve = [&](int slot) {
    for (int i = 0; i < kRounds; ++i) {
      auto rep = Replica::open(bytes);
      if (!rep) return;
      auto t = (*rep)->earliest_start(whole_nodes(3, 10), 0);
      if ((*rep)->satisfiable(whole_nodes(4, 10)) && t && *t == 100 &&
          (*rep)->refresh(bytes)) {
        ++ok[slot];
      }
    }
  };
  std::thread a(serve, 0);
  std::thread b(serve, 1);
  a.join();
  b.join();
  const std::uint64_t loads = obs::monitor().snap_loads.value();
  const std::uint64_t timed = obs::monitor().snap_load_us.count();
  obs::set_enabled(false);
  EXPECT_EQ(ok[0], kRounds);
  EXPECT_EQ(ok[1], kRounds);
  // Every open and refresh loads an engine; none of the samples is lost.
  EXPECT_EQ(loads, 4u * kRounds);
  EXPECT_EQ(timed, 4u * kRounds);
}

// --- format migration -----------------------------------------------------

// data/v1_queue.flxs is a version-1 image written by the format-1 writer:
//   fluxion-sim --grug SYS --trace TRACE --cores 4 --queue easy
//     --eventlog FILE --snapshot-out v1_queue.flxs --snapshot-at 150
// over the system and trace below, with the since-removed parallel match
// pipeline on so the four queue counters that v2 dropped were non-zero.
// The v2 reader must load it, and the restored engine must finish the
// trace exactly as a straight replay does.
constexpr const char* kV1System =
    "filters node core\nfilter-at cluster\ncluster count=1\n"
    "  node count=4\n    core count=4\n";
const std::vector<sim::TraceJob> kV1Trace = {
    {2, 100, 0},  {4, 50, 0},   {1, 80, 10},  {3, 60, 20},
    {2, 40, 120}, {1, 30, 160}, {4, 20, 200}, {5, 10, 210},
};

std::string read_v1_snapshot() {
  std::ifstream in(FLUXION_SNAPSHOT_DATA_DIR "/v1_queue.flxs",
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(SnapshotMigration, V1QueueSnapshotLoadsAndResumes) {
  const std::string bytes = read_v1_snapshot();
  ASSERT_GT(bytes.size(), 5u);
  ASSERT_EQ(bytes[4], 1) << "fixture must stay a version-1 image";
  auto eng = EngineSnapshot::load(bytes);
  ASSERT_TRUE(eng) << eng.error().message;
  queue::JobQueue& q = *(*eng)->queue;
  EXPECT_EQ((*eng)->policy_name, "low-id");
  EXPECT_EQ(q.policy(), queue::QueuePolicy::easy_backfill);
  EXPECT_EQ(q.now(), 120);  // the last arrival batch before t=150
  EXPECT_EQ(q.stats().submitted, 5u);
  EXPECT_FALSE(q.eventlog().events().empty());

  // Straight replay of the same workload under the current code.
  auto rq = core::ResourceQuery::create_from_text(kV1System, {});
  ASSERT_TRUE(rq) << rq.error().message;
  queue::JobQueue straight((*rq)->traverser(),
                           queue::QueuePolicy::easy_backfill);
  straight.set_eventlog(true);
  const auto r_straight = sim::replay_trace(straight, kV1Trace, 4);
  ASSERT_TRUE(r_straight) << r_straight.error().message;

  const auto r_resume = sim::resume_trace(q, kV1Trace, 4);
  ASSERT_TRUE(r_resume) << r_resume.error().message;
  ASSERT_EQ(r_resume->ids, r_straight->ids);
  EXPECT_EQ(r_resume->end_time, r_straight->end_time);
  EXPECT_EQ(q.eventlog().jsonl(), straight.eventlog().jsonl());
  // The schedule the format-1 writer produced for this trace.
  const util::TimePoint starts[] = {0, 100, 10, 150, 210, 160, 250};
  for (std::size_t i = 0; i < 7; ++i) {
    const queue::Job* job = q.find(r_resume->ids[i]);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, queue::JobState::completed) << "job " << i;
    EXPECT_EQ(job->start_time, starts[i]) << "job " << i;
  }
  EXPECT_EQ(q.find(r_resume->ids[7])->state, queue::JobState::rejected);

  // Saving again writes the current version.
  const std::string v2 = EngineSnapshot::save(*(*eng)->graph,
                                              *(*eng)->traverser, &q);
  EXPECT_EQ(v2[4], static_cast<char>(kSnapshotVersion));
  EXPECT_TRUE(EngineSnapshot::load(v2));
}

}  // namespace
}  // namespace fluxion::snapshot

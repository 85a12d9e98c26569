// perfbench: fixed-work trace replay through the engine's public API.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--trace-dir DIR]
//
// The seed expands into kSubTraces sub-trace seeds. A pass builds a fresh
// engine, generates one sub-trace's inputs and replays them to completion;
// a cycle is one pass per sub-trace. A run repeats whole cycles until the
// next would overrun --seconds. Every pass of one sub-trace makes the same
// decisions, so repeats differ only in timing. Untraced runs report the
// end-to-end metrics; traced runs alternate untraced and traced cycles and
// report the per-layer metrics, including the throughput tracing costs.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check held.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "recorder.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::full;
  std::string trace_dir;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] "
               "[--trace-dir DIR]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "tiny") return false;
      a.size = v == "full" ? Size::full : Size::tiny;
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Linear-interpolated quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer self time of one traced pass, in ms: each call span is its
/// layer's own time (the benchmark wraps only top-level calls); the
/// driver's self time is its step spans minus the calls inside them.
std::map<std::string, double> self_time_ms(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  double steps = 0, calls = 0;
  for (const Span& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.call == Call::count) {
      steps += ms;
      continue;
    }
    const std::string_view name = kCallNames[static_cast<std::size_t>(s.call)];
    out[std::string(name.substr(0, name.find('.')))] += ms;
    calls += ms;
  }
  out["driver"] = steps - calls;
  return out;
}

/// Each seed expands into this many independent sub-traces. A cycle
/// replays every sub-trace once; a run repeats whole cycles. Averaging
/// over several job orders keeps one unlucky order from setting a seed's
/// figures: on easy_backlog, per-job planner work varies by up to 28%
/// between single orders.
constexpr std::size_t kSubTraces = 4;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + k + 1;  // splitmix64
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Pass {
  PassResult result;
  std::vector<double> decisions;
  std::array<double, kCallCount> call_us{};
  std::vector<Span> spans;
};
using Cycle = std::vector<Pass>;  // one pass per sub-trace, in order

/// Sum over sub-traces of the median over cycles of f(pass): the cost of
/// one typical cycle, robust to a pass disturbed by the machine.
template <class F>
double sum_of_medians(const std::vector<Cycle>& cycles, F f) {
  double total = 0;
  for (std::size_t k = 0; k < kSubTraces; ++k) {
    std::vector<double> v;
    for (const Cycle& c : cycles) v.push_back(f(c[k]));
    total += median(v);
  }
  return total;
}

double jobs_per_s(const std::vector<Cycle>& cycles) {
  double jobs = 0;
  for (const Pass& p : cycles.front()) jobs += static_cast<double>(p.result.jobs);
  return per(jobs, sum_of_medians(cycles, [](const Pass& p) {
               return p.result.timed_s;
             }));
}

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing); one
/// thread lane per sub-trace.
bool write_trace(const std::string& path, const Cycle& cycle) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    for (const Span& s : cycle[k].spans) {
      const char* name = s.call == Call::count
                             ? "driver.step"
                             : kCallNames[static_cast<std::size_t>(s.call)];
      f << (first ? "\n" : ",\n") << "{\"name\":\"" << name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << k + 1 << ",\"ts\":"
        << num(static_cast<double>(s.start_ns) / 1e3) << ",\"dur\":"
        << num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"step\":" << s.step << "}}";
      first = false;
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage("bad arguments");
  const Workload* w = nullptr;
  for (const auto& cand : workloads()) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage("unknown workload");

  // Whole cycles until the next would overrun the budget. A traced run
  // alternates untraced and traced cycles so both see the same machine.
  std::vector<Cycle> plain, traced;
  const auto start = Clock::now();
  bool ok = true;
  for (std::size_t i = 0; ok; ++i) {
    const bool trace_this = a.trace && i % 2 == 1;
    const auto c0 = Clock::now();
    Cycle cycle;
    for (std::size_t k = 0; k < kSubTraces; ++k) {
      Recorder rec(trace_this);
      fluxion::obs::monitor().reset();
      fluxion::obs::set_enabled(trace_this);
      PassResult r = w->run(sub_seed(a.seed, k), a.size, rec);
      fluxion::obs::set_enabled(false);
      ok = ok && r.failed == 0;
      cycle.push_back({std::move(r), rec.decisions(), rec.call_us(),
                       trace_this ? rec.spans() : std::vector<Span>{}});
    }
    (trace_this ? traced : plain).push_back(std::move(cycle));
    const bool enough = !plain.empty() && (!a.trace || !traced.empty());
    if (enough && seconds_since(start) + seconds_since(c0) > a.seconds) break;
  }

  // Correctness across cycles: every sub-trace's digest repeats, and in
  // traced runs so do its work counters.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const auto* cycles : {&plain, &traced}) {
    for (const Cycle& c : *cycles) {
      for (std::size_t k = 0; k < c.size(); ++k) {
        const PassResult& r = c[k].result;
        attempted += r.attempted;
        failed += r.failed;
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
        if (k < plain.front().size() &&
            r.digest != plain.front()[k].result.digest) {
          ++failed;
          errors.push_back("schedule digest differs between cycles");
        }
        if (cycles == &traced &&
            r.counters != traced.front()[k].result.counters) {
          ++failed;
          errors.push_back("work counters differ between traced cycles");
        }
      }
    }
  }
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", errors[i].c_str());
  }

  std::uint64_t digest = 0, jobs_per_cycle = 0;
  std::size_t decisions_per_cycle = 0;
  for (const Pass& p : plain.front()) {
    digest = digest * 0x100000001b3ULL ^ p.result.digest;
    jobs_per_cycle += p.result.jobs;
    decisions_per_cycle += p.decisions.size();
  }
  std::vector<double> setups, builds, samples;
  for (const auto* cycles : {&plain, &traced}) {
    for (const Cycle& c : *cycles) {
      for (const Pass& p : c) {
        setups.push_back(p.result.setup_s);
        builds.push_back(p.result.build_s);
      }
    }
  }
  for (const Cycle& c : plain) {
    for (const Pass& p : c) {
      samples.insert(samples.end(), p.decisions.begin(), p.decisions.end());
    }
  }
  std::sort(samples.begin(), samples.end());
  const double rate = jobs_per_s(plain);

  std::printf("# perfbench %s seed=%llu size=%s cycles=%zu+%zu traced, "
              "%zu sub-traces each\n",
              w->name, static_cast<unsigned long long>(a.seed),
              a.size == Size::full ? "full" : "tiny", plain.size(),
              traced.size(), kSubTraces);
  std::printf("# run {\"workload\":\"%s\",\"seed\":%llu,\"digest\":"
              "\"%016llx\",\"jobs_per_cycle\":%llu,\"decisions_per_cycle\":"
              "%zu,\"decision_samples\":%zu}\n",
              w->name, static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(jobs_per_cycle),
              decisions_per_cycle, samples.size());
  std::printf("# untraced passes (timed s / setup s):");
  for (const Cycle& c : plain) {
    for (const Pass& p : c) {
      std::printf(" %.3f/%.3f", p.result.timed_s, p.result.setup_s);
    }
  }
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"jobs_per_s", rate, "1/s"},
        {"decision_p50_us", quantile(samples, 0.5), "us"},
        {"decision_p90_us", quantile(samples, 0.9), "us"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else if (!traced.empty()) {
    const double jobs = static_cast<double>(jobs_per_cycle);
    std::map<std::string, double> c;  // one traced cycle's work totals
    for (const Pass& p : traced.front()) {
      for (const auto& [k, v] : p.result.counters) c[k] += v;
    }
    auto ratio = [&](const char* num, const char* den) {
      return per(c[num], c[den]);
    };
    auto per_job = [&](const char* name) { return per(c[name], jobs); };
    // Wall µs per job in one call kind (typical traced cycle).
    auto call_us = [&](Call k) {
      return per(sum_of_medians(traced,
                                [k](const Pass& p) {
                                  return p.call_us[static_cast<std::size_t>(k)];
                                }),
                 jobs);
    };
    std::vector<double> route_p50;
    for (const Cycle& cy : traced) {
      for (const Pass& p : cy) route_p50.push_back(p.result.route_latency_us_p50);
    }
    metrics = {
        {"queue.schedule_us_per_job", call_us(Call::queue_schedule), "us"},
        {"queue.advance_us_per_job",
         call_us(Call::queue_advance) + call_us(Call::queue_next_event), "us"},
        {"queue.submit_us_per_job", call_us(Call::queue_submit), "us"},
        {"queue.match_calls_per_job", per_job("queue.match_calls"), "count"},
        {"queue.match_skipped_per_job", per_job("queue.match_skipped"),
         "count"},
        {"queue.match_success_ratio",
         ratio("queue.placements", "queue.match_calls"), "ratio"},
        {"queue.cache_hit_ratio",
         per(c["queue.match_skipped"],
             c["queue.match_calls"] + c["queue.match_skipped"]),
         "ratio"},
        {"queue.heap_pops_per_event",
         ratio("queue.heap_pops", "queue.events_fired"), "ratio"},
        {"queue.reservations_made_per_job", per_job("queue.reservations_made"),
         "count"},
        {"traverser.match_us_per_job",
         call_us(Call::traverser_match) +
             per(sum_of_medians(traced,
                                [](const Pass& p) {
                                  return p.result.engine_match_us;
                                }),
                 jobs),
         "us"},
        {"traverser.cancel_us_per_job", call_us(Call::traverser_cancel), "us"},
        {"traverser.visits_per_job", per_job("traverser.visits"), "count"},
        {"traverser.pruned_per_job", per_job("traverser.pruned"), "count"},
        {"traverser.match_attempts_per_job",
         per_job("traverser.match_attempts"), "count"},
        {"traverser.postorder_rejects_per_job",
         per_job("traverser.postorder_rejects"), "count"},
        {"planner.avail_queries_per_job", per_job("planner.avail_queries"),
         "count"},
        {"planner.span_adds_per_job", per_job("planner.span_adds"), "count"},
        {"planner.rekeys_per_job", per_job("planner.rekeys"), "count"},
        {"planner.point_inserts_per_job", per_job("planner.point_inserts"),
         "count"},
        {"planner.atf_probes_per_job", per_job("planner.atf_probes"),
         "count"},
        {"planner_multi.atf_rounds_per_job",
         per_job("planner_multi.atf_rounds"), "count"},
        {"sdfu.spans_per_commit", ratio("sdfu.spans", "sdfu.commits"),
         "count"},
        {"hier.schedule_us_per_job", call_us(Call::hier_schedule), "us"},
        {"hier.advance_us_per_job",
         call_us(Call::hier_advance) + call_us(Call::hier_next_event), "us"},
        {"hier.stolen_per_job", per_job("hier.stolen"), "count"},
        {"hier.escalated_per_job", per_job("hier.escalated"), "count"},
        {"hier.route_latency_us_p50", median(route_p50), "us"},
        {"graph.build_s", median(builds), "s"},
        {"obs.overhead_pct", 100.0 * per(rate - jobs_per_s(traced), rate),
         "%"},
    };
    std::map<std::string, double> self;
    for (const Pass& p : traced.back()) {
      for (const auto& [layer, ms] : self_time_ms(p.spans)) self[layer] += ms;
    }
    std::printf("# self time per layer, last traced cycle (ms):");
    for (const auto& [layer, ms] : self) {
      std::printf(" %s=%.3f", layer.c_str(), ms);
    }
    std::printf("\n");
    if (!a.trace_dir.empty()) {
      const std::string path = a.trace_dir + "/" + w->name + "-seed" +
                               std::to_string(a.seed) + ".trace.json";
      if (write_trace(path, traced.back())) {
        std::printf("# spans of the last traced cycle written to %s\n",
                    path.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }

  for (const Metric& m : metrics) {
    std::printf("# %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const bool correct = failed == 0;
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

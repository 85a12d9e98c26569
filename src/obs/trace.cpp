#include "obs/trace.hpp"

#include <chrono>
#include <cmath>

#include "obs/eventlog.hpp"

namespace fluxion::obs {

namespace {

std::int64_t sim_to_us(double sim_seconds) {
  return static_cast<std::int64_t>(std::llround(sim_seconds * 1e6));
}

void append_event(std::string& out, const TraceEvent& ev) {
  out += "{\"name\":\"";
  append_escaped(out, ev.name);
  out += "\",\"cat\":\"";
  append_escaped(out, ev.cat);
  out += "\",\"ph\":\"";
  out += ev.ph;
  out += "\",\"ts\":" + std::to_string(ev.ts);
  if (ev.ph == 'X') out += ",\"dur\":" + std::to_string(ev.dur);
  out += ",\"pid\":" + std::to_string(ev.pid);
  out += ",\"tid\":" + std::to_string(ev.tid);
  if (ev.ph == 'i') out += ",\"s\":\"t\"";  // instant scope: thread
  if (!ev.args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const auto& [k, v] : ev.args) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      append_escaped(out, k);
      out += "\":";
      out += v;  // pre-encoded JSON fragment
    }
    out += "}";
  }
  out += "}";
}

}  // namespace

std::string trace_str(const std::string& s) { return event_str(s); }

void TraceLog::set_enabled(bool on) {
  enabled_ = on;
  if (on && epoch_ns_ < 0) now_us();  // pin the wall epoch at enable time
  if (on && events_.empty()) {
    // Name the two lanes so Perfetto shows "sim" / "wall" instead of pids.
    TraceEvent sim_meta{"process_name", "__metadata", 'M', 0, 0, kSimPid, 0,
                        {{"name", trace_str("sim")}}};
    TraceEvent wall_meta{"process_name", "__metadata", 'M', 0, 0, kWallPid, 0,
                         {{"name", trace_str("wall")}}};
    events_.push_back(std::move(sim_meta));
    events_.push_back(std::move(wall_meta));
  }
}

void TraceLog::push(TraceEvent ev) { events_.push_back(std::move(ev)); }

void TraceLog::sim_instant(
    const std::string& name, double sim_ts, std::int64_t job_id,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled_) return;
  push(TraceEvent{name, "job", 'i', sim_to_us(sim_ts), 0, kSimPid, job_id,
                  std::move(args)});
}

void TraceLog::sim_span(const std::string& name, double sim_start,
                        double sim_dur, std::int64_t job_id,
                        std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled_) return;
  push(TraceEvent{name, "job", 'X', sim_to_us(sim_start), sim_to_us(sim_dur),
                  kSimPid, job_id, std::move(args)});
}

void TraceLog::wall_span(const std::string& name, std::int64_t ts_us,
                         std::int64_t dur_us,
                         std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled_) return;
  push(TraceEvent{name, "match", 'X', ts_us, dur_us, kWallPid, 0,
                  std::move(args)});
}

std::int64_t TraceLog::now_us() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  if (epoch_ns_ < 0) epoch_ns_ = ns;
  return (ns - epoch_ns_) / 1000;
}

std::string TraceLog::chrome_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n";
    append_event(out, events_[i]);
  }
  out += "\n]\n";
  return out;
}

std::string TraceLog::jsonl() const {
  std::string out;
  for (const auto& ev : events_) {
    append_event(out, ev);
    out += "\n";
  }
  return out;
}

TraceLog& trace() noexcept {
  static TraceLog t;
  return t;
}

}  // namespace fluxion::obs

#include "obs/eventlog.hpp"

#include <cstdio>

namespace fluxion::obs {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string event_str(const std::string& s) {
  std::string out = "\"";
  append_escaped(out, s);
  out += "\"";
  return out;
}

void EventLog::record(std::int64_t time, std::int64_t job, std::string kind,
                      std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled_) return;
  events_.push_back(JobEvent{time, job, std::move(kind), std::move(args)});
}

std::vector<const JobEvent*> EventLog::for_job(std::int64_t job) const {
  std::vector<const JobEvent*> out;
  for (const JobEvent& ev : events_) {
    if (ev.job == job) out.push_back(&ev);
  }
  return out;
}

std::string EventLog::to_json(const JobEvent& ev) {
  std::string out = "{\"t\":" + std::to_string(ev.time);
  out += ",\"job\":" + std::to_string(ev.job);
  out += ",\"ev\":\"";
  append_escaped(out, ev.kind);
  out += "\"";
  for (const auto& [k, v] : ev.args) {
    out += ",\"";
    append_escaped(out, k);
    out += "\":";
    out += v;  // pre-encoded JSON fragment
  }
  out += "}";
  return out;
}

std::string EventLog::jsonl() const {
  std::string out;
  for (const JobEvent& ev : events_) {
    out += to_json(ev);
    out += "\n";
  }
  return out;
}

}  // namespace fluxion::obs

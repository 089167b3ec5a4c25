#include "telemetry/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "analysis/profile/trace_profile.hpp"
#include "common/json.hpp"
#include "metadata/state_word.hpp"

namespace ht::telemetry {

namespace {

constexpr int kPid = 1;  // single-process traces

const char* event_category(EventKind k) {
  switch (k) {
    case EventKind::kCoordRoundTrip:
    case EventKind::kCoordBatch:
    case EventKind::kCoordRequest:
    case EventKind::kCoordBatchDrain:
    case EventKind::kSafePointResponse:
    case EventKind::kPsro:
    case EventKind::kBlockingEnter:
    case EventKind::kBlockingExit:
      return "runtime";
    case EventKind::kDeferredFlush:
    case EventKind::kOptConflict:
    case EventKind::kPessAcquire:
    case EventKind::kPessWait:
    case EventKind::kPolicyOptToPess:
    case EventKind::kPolicyPessToOpt:
    case EventKind::kStateTransition:
      return "tracker";
    case EventKind::kRegionRestart:
      return "enforcer";
    case EventKind::kDepEdge:
      return "recorder";
    case EventKind::kLeaseExpired:
    case EventKind::kQuarantine:
    case EventKind::kSeizure:
    case EventKind::kGovernorFlip:
      return "resilience";
    default:
      return "thread";
  }
}

std::string us_string(double us) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", us < 0 ? 0.0 : us);
  return buf;
}

void append_args(std::string& out, const Event& e) {
  out += ",\"args\":{";
  switch (static_cast<EventKind>(e.kind)) {
    case EventKind::kCoordRoundTrip:
      out += "\"cycles\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"owner_tid\":" + json::number(e.arg1);
      out += ",\"implicit\":" + std::string(e.arg2 != 0 ? "true" : "false");
      break;
    case EventKind::kPessWait:
      out += "\"cycles\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"object\":" + json::number(e.arg1);
      break;
    case EventKind::kRegionRestart:
      out += "\"cycles\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"attempt\":" + json::number(e.arg1);
      break;
    case EventKind::kOptConflict:
    case EventKind::kPessAcquire:
    case EventKind::kPolicyOptToPess:
    case EventKind::kPolicyPessToOpt:
      out += "\"object\":" + json::number(e.arg1);
      out += ",\"flags\":" + json::number(e.arg2);
      break;
    case EventKind::kDeferredFlush:
      out += "\"entries\":" + json::number(static_cast<double>(e.arg0));
      break;
    case EventKind::kDepEdge:
      out += "\"src_release\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"src_tid\":" + json::number(e.arg1);
      break;
    case EventKind::kLeaseExpired:
      out += "\"owner_tid\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"ticket\":" + json::number(e.arg1);
      out += ",\"stalled_epochs\":" + json::number(e.arg2);
      break;
    case EventKind::kQuarantine:
      out += "\"victim_tid\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"status_epoch\":" + json::number(e.arg1);
      out += ",\"tickets_released\":" + json::number(e.arg2);
      break;
    case EventKind::kSeizure:
      out += "\"cycles\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"object\":" + json::number(e.arg1);
      out += ",\"victim_tid\":" + json::number(e.arg2);
      break;
    case EventKind::kGovernorFlip:
      out += "\"degraded\":" +
             std::string(e.arg0 != 0 ? "true" : "false");
      out += ",\"storm_windows\":" + json::number(e.arg1);
      out += ",\"calm_windows\":" + json::number(e.arg2);
      break;
    case EventKind::kCoordBatch:
      out += "\"objects\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"owner_tid\":" + json::number(e.arg1);
      out += ",\"implicit\":" + std::string(e.arg2 != 0 ? "true" : "false");
      break;
    case EventKind::kCoordRequest:
      out += "\"span\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"owner_tid\":" + json::number(e.arg1);
      out += ",\"batched\":" + std::string(e.arg2 != 0 ? "true" : "false");
      break;
    case EventKind::kCoordBatchDrain:
      out += "\"span\":" + json::number(static_cast<double>(e.arg0));
      out += ",\"requester_tid\":" + json::number(e.arg1);
      out += ",\"objects\":" + json::number(e.arg2);
      break;
    case EventKind::kStateTransition:
      out += "\"from\":\"";
      out += state_kind_name(
          static_cast<StateKind>(transition_from_kind(e.arg0)));
      out += "\",\"to\":\"";
      out += state_kind_name(
          static_cast<StateKind>(transition_to_kind(e.arg0)));
      out += "\",\"object\":" + json::number(e.arg1);
      break;
    default:
      out += "\"arg0\":" + json::number(static_cast<double>(e.arg0));
      break;
  }
  out.push_back('}');
}

}  // namespace

std::string to_chrome_trace_json(const TraceSnapshot& snap) {
  const double cps = snap.cycles_per_second > 0 ? snap.cycles_per_second : 1e9;
  const double cycles_per_us = cps / 1e6;

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) out.push_back(',');
    first = false;
    out += ev;
  };

  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"hybrid-tracking\"}}");
  for (const ThreadTrace& t : snap.threads) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%u,\"args\":{\"name\":\"T%u\"}}",
                  kPid, t.tid, t.tid);
    emit(buf);
  }

  for (const Event& e : snap.merged()) {
    const auto kind = static_cast<EventKind>(e.kind);
    const double end_us =
        static_cast<double>(e.tsc - snap.base_tsc) / cycles_per_us;
    std::string ev = "{\"name\":\"";
    ev += event_kind_name(kind);
    ev += "\",\"cat\":\"";
    ev += event_category(kind);
    ev += "\",\"pid\":" + json::number(kPid);
    ev += ",\"tid\":" + json::number(e.tid);
    if (event_kind_has_latency(kind)) {
      const double dur_us = static_cast<double>(e.arg0) / cycles_per_us;
      ev += ",\"ph\":\"X\",\"ts\":" + us_string(end_us - dur_us);
      ev += ",\"dur\":" + us_string(dur_us);
    } else {
      ev += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + us_string(end_us);
    }
    append_args(ev, e);
    ev.push_back('}');
    emit(ev);
  }

  out += "]}";
  return out;
}

bool validate_chrome_trace(const std::string& text, std::size_t* event_count,
                           std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  json::Value doc;
  std::string perr;
  if (!json::parse(text, doc, &perr)) return fail("not valid JSON: " + perr);
  if (!doc.is_object()) return fail("top level is not an object");
  const json::Value& events = doc.at("traceEvents");
  if (!events.is_array()) return fail("missing traceEvents array");
  std::size_t n = 0;
  for (const json::Value& e : events.as_array()) {
    if (!e.is_object()) return fail("traceEvents entry is not an object");
    if (!e.at("name").is_string()) return fail("event missing name");
    if (!e.at("ph").is_string()) return fail("event missing ph");
    if (!e.at("pid").is_number() || !e.at("tid").is_number()) {
      return fail("event missing pid/tid");
    }
    const std::string& ph = e.at("ph").as_string();
    if (ph != "M" && !e.at("ts").is_number()) return fail("event missing ts");
    if (ph == "X") {
      if (!e.at("dur").is_number() || e.at("dur").as_double() < 0) {
        return fail("X event with missing or negative dur");
      }
    }
    ++n;
  }
  if (event_count != nullptr) *event_count = n;
  return true;
}

std::vector<HotObject> hot_objects(const TraceSnapshot& snap,
                                   std::size_t top_n) {
  std::map<std::uint32_t, HotObject> by_object;
  for (const ThreadTrace& t : snap.threads) {
    for (const Event& e : t.events) {
      switch (static_cast<EventKind>(e.kind)) {
        case EventKind::kOptConflict: {
          HotObject& h = by_object[e.arg1];
          h.object = e.arg1;
          ++h.opt_conflicts;
          break;
        }
        case EventKind::kPessWait: {
          HotObject& h = by_object[e.arg1];
          h.object = e.arg1;
          ++h.pess_contended;
          break;
        }
        case EventKind::kPessAcquire:
          if ((e.arg2 & kFlagContended) != 0) {
            HotObject& h = by_object[e.arg1];
            h.object = e.arg1;
            ++h.pess_contended;
          }
          break;
        default:
          break;
      }
    }
  }

  // Dwell residency needs the merged (cross-thread) transition order: the
  // thread that moved an object *out* of a state is rarely the one that
  // moved it in. Objects that only ever transitioned (no conflicts) still
  // get rows — they sort after the conflicted ones.
  {
    using analysis::profile::residency_of_kind;
    struct OpenState {
      std::uint64_t tsc = 0;
      std::size_t cls = 0;
    };
    std::map<std::uint32_t, OpenState> open;
    std::uint64_t max_tsc = 0;
    for (const Event& e : snap.merged()) {
      max_tsc = e.tsc;
      if (static_cast<EventKind>(e.kind) != EventKind::kStateTransition) {
        continue;
      }
      HotObject& h = by_object[e.arg1];
      h.object = e.arg1;
      ++h.transitions;
      auto it = open.find(e.arg1);
      if (it != open.end() && e.tsc > it->second.tsc) {
        h.dwell[it->second.cls] += e.tsc - it->second.tsc;
      }
      open[e.arg1] = OpenState{
          e.tsc, static_cast<std::size_t>(
                     residency_of_kind(transition_to_kind(e.arg0)))};
    }
    for (const auto& [obj, os] : open) {
      if (max_tsc > os.tsc) by_object[obj].dwell[os.cls] += max_tsc - os.tsc;
    }
  }

  std::vector<HotObject> ranked;
  ranked.reserve(by_object.size());
  for (const auto& [obj, h] : by_object) ranked.push_back(h);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const HotObject& a, const HotObject& b) {
                     if (a.total() != b.total()) return a.total() > b.total();
                     return a.dwell_total() > b.dwell_total();
                   });
  if (ranked.size() > top_n) ranked.resize(top_n);
  return ranked;
}

std::string hot_object_report(const TraceSnapshot& snap, std::size_t top_n) {
  const std::vector<HotObject> ranked = hot_objects(snap, top_n);
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof buf, "%-4s %-8s %12s %12s %12s %8s %-10s\n", "#",
                "object", "conflicts", "pess-cont", "total", "trans",
                "dwell-top");
  out += buf;
  std::size_t rank = 1;
  for (const HotObject& h : ranked) {
    // Dominant residency class and its share of the object's dwell window.
    std::size_t top_cls = 0;
    for (std::size_t c = 1; c < 5; ++c) {
      if (h.dwell[c] > h.dwell[top_cls]) top_cls = c;
    }
    const std::uint64_t dt = h.dwell_total();
    char dwell_col[32];
    if (dt == 0) {
      std::snprintf(dwell_col, sizeof dwell_col, "-");
    } else {
      std::snprintf(dwell_col, sizeof dwell_col, "%s %3.0f%%",
                    analysis::profile::residency_name(
                        static_cast<analysis::profile::Residency>(top_cls)),
                    100.0 * static_cast<double>(h.dwell[top_cls]) /
                        static_cast<double>(dt));
    }
    std::snprintf(buf, sizeof buf,
                  "%-4zu %08x %12llu %12llu %12llu %8llu %-10s\n", rank++,
                  h.object, static_cast<unsigned long long>(h.opt_conflicts),
                  static_cast<unsigned long long>(h.pess_contended),
                  static_cast<unsigned long long>(h.total()),
                  static_cast<unsigned long long>(h.transitions), dwell_col);
    out += buf;
  }
  if (ranked.empty()) out += "(no conflicting-transition events in trace)\n";
  return out;
}

}  // namespace ht::telemetry

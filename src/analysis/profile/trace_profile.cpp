#include "analysis/profile/trace_profile.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

#include "common/json.hpp"
#include "metadata/state_word.hpp"

namespace ht::analysis::profile {

using telemetry::Event;
using telemetry::EventKind;
using telemetry::ThreadTrace;
using telemetry::TraceSnapshot;

const char* category_name(Category c) {
  switch (c) {
    case Category::kAppCompute: return "app_compute";
    case Category::kCoordWait: return "coord_wait";
    case Category::kPessLockWait: return "pess_lock_wait";
    case Category::kDeferredFlush: return "deferred_flush";
    case Category::kRegionRestart: return "region_restart";
    case Category::kResilience: return "resilience";
  }
  return "unknown";
}

const char* residency_name(Residency r) {
  switch (r) {
    case Residency::kWrEx: return "WrEx";
    case Residency::kRdEx: return "RdEx";
    case Residency::kRdSh: return "RdSh";
    case Residency::kPess: return "Pess";
    case Residency::kInt: return "Int";
  }
  return "unknown";
}

Residency residency_of_kind(unsigned state_kind) {
  switch (static_cast<StateKind>(state_kind)) {
    case StateKind::kWrExOpt: return Residency::kWrEx;
    case StateKind::kRdExOpt: return Residency::kRdEx;
    case StateKind::kRdShOpt: return Residency::kRdSh;
    case StateKind::kInt: return Residency::kInt;
    default: return Residency::kPess;  // all pessimistic flavors + sentinel
  }
}

namespace {

// True when scalar ticket `t` falls in the half-open watermark range
// (before, after] — all three compared in the low 32 bits the response
// events carry, wrap-safe.
bool ticket_answered(std::uint32_t t, std::uint32_t before,
                     std::uint32_t after) {
  return static_cast<std::uint32_t>(t - before - 1) <
         static_cast<std::uint32_t>(after - before);
}

bool is_response_kind(EventKind k) {
  return k == EventKind::kSafePointResponse || k == EventKind::kPsro ||
         k == EventKind::kBlockingEnter || k == EventKind::kThreadExit;
}

struct RespEvent {
  std::uint64_t tsc = 0;
  std::uint32_t before = 0;  // arg2: watermark before the publish
  std::uint32_t after = 0;   // arg1: watermark after it
};

struct Interval {
  std::uint64_t s = 0;
  std::uint64_t e = 0;
  Category cat = Category::kAppCompute;
};

// Innermost-active-wins sweep: divides [first,last] among the wait
// intervals; at any instant the active interval with the latest start (tie:
// earliest end, i.e. the more tightly nested one) owns the time. Waits
// genuinely nest here — a region-restart interval covers the coordination
// round trips the attempt performed — and the innermost cause is the one
// the cycles should be charged to.
void sweep_intervals(std::vector<Interval> ivs, std::uint64_t first,
                     std::uint64_t last,
                     std::uint64_t by_category[kCategoryCount]) {
  std::vector<std::uint64_t> bounds;
  for (Interval& iv : ivs) {
    iv.s = std::max(iv.s, first);
    iv.e = std::min(iv.e, last);
  }
  ivs.erase(std::remove_if(ivs.begin(), ivs.end(),
                           [](const Interval& iv) { return iv.s >= iv.e; }),
            ivs.end());
  for (const Interval& iv : ivs) {
    bounds.push_back(iv.s);
    bounds.push_back(iv.e);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  std::sort(ivs.begin(), ivs.end(),
            [](const Interval& a, const Interval& b) { return a.s < b.s; });

  struct InnermostFirst {
    bool operator()(const Interval& a, const Interval& b) const {
      if (a.s != b.s) return a.s > b.s;  // latest start first
      if (a.e != b.e) return a.e < b.e;  // then earliest end
      return a.cat < b.cat;
    }
  };
  std::multiset<Interval, InnermostFirst> active;
  std::size_t next = 0;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const std::uint64_t a = bounds[i];
    const std::uint64_t b = bounds[i + 1];
    while (next < ivs.size() && ivs[next].s <= a) active.insert(ivs[next++]);
    for (auto it = active.begin(); it != active.end();) {
      if (it->e <= a) {
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    if (!active.empty()) {
      by_category[static_cast<std::size_t>(active.begin()->cat)] += b - a;
    }
  }
}

}  // namespace

double ProfileReport::attribution_error() const {
  if (total_cycles == 0) return 0.0;
  std::uint64_t sum = 0;
  for (std::uint64_t c : category_cycles) sum += c;
  const std::uint64_t diff =
      sum > total_cycles ? sum - total_cycles : total_cycles - sum;
  return static_cast<double>(diff) / static_cast<double>(total_cycles);
}

ProfileReport build_profile(const TraceSnapshot& snap) {
  ProfileReport r;
  r.cycles_per_second = snap.cycles_per_second;

  // --- span stitching ------------------------------------------------------
  std::map<std::uint16_t, std::vector<RespEvent>> responses;  // by owner tid
  // Batch drains keyed by (requester tid, span id): first drain wins (a
  // span is drained exactly once; re-drained rings after a clear() restart
  // the id space, which per-trial snapshots never mix).
  std::unordered_map<std::uint64_t, std::uint64_t> drains;
  auto drain_key = [](std::uint16_t requester, std::uint64_t span_id) {
    return (span_id << 16) | requester;
  };

  for (const ThreadTrace& t : snap.threads) {
    // Open requests awaiting their closing round trip, FIFO per owner.
    // Coordination is synchronous per thread and batches group by owner, so
    // at most one request per (requester, owner) is ever outstanding.
    std::map<std::uint16_t, std::vector<std::size_t>> open;
    for (const Event& e : t.events) {
      const auto kind = static_cast<EventKind>(e.kind);
      switch (kind) {
        case EventKind::kCoordRequest: {
          Span sp;
          sp.requester = e.tid;
          sp.owner = static_cast<std::uint16_t>(e.arg1);
          sp.span_id = e.arg0;
          sp.request_tsc = e.tsc;
          sp.batched = e.arg2 != 0;
          open[sp.owner].push_back(r.spans.size());
          r.spans.push_back(sp);
          (sp.batched ? r.spans_batch : r.spans_scalar)++;
          break;
        }
        case EventKind::kCoordRoundTrip: {
          auto it = open.find(static_cast<std::uint16_t>(e.arg1));
          if (it != open.end() && !it->second.empty()) {
            Span& sp = r.spans[it->second.front()];
            it->second.erase(it->second.begin());
            sp.close_tsc = e.tsc;
            sp.implicit = e.arg2 != 0;
            ++r.spans_closed;
          }
          // No open request: the round trip resolved implicitly before a
          // ticket/post was needed — it is self-contained, not a span.
          break;
        }
        case EventKind::kCoordBatchDrain:
          drains.emplace(drain_key(static_cast<std::uint16_t>(e.arg1), e.arg0),
                         e.tsc);
          break;
        default:
          break;
      }
      if (is_response_kind(kind)) {
        RespEvent re;
        re.tsc = e.tsc;
        re.before = e.arg2;
        re.after = e.arg1;
        if (re.after != re.before) responses[e.tid].push_back(re);
      }
    }
  }

  // Scalar spans join the owner-side response whose watermark range covers
  // the ticket. Watermarks are monotone per owner, so sorting the spans by
  // ticket lets one cursor pass over the response list serve them all.
  std::map<std::uint16_t, std::vector<std::size_t>> scalar_by_owner;
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    Span& sp = r.spans[i];
    if (sp.batched) {
      auto it = drains.find(drain_key(sp.requester, sp.span_id));
      if (it != drains.end()) {
        sp.response_tsc = it->second;
        ++r.spans_response_matched;
      }
    } else {
      scalar_by_owner[sp.owner].push_back(i);
    }
  }
  for (auto& [owner, idxs] : scalar_by_owner) {
    std::sort(idxs.begin(), idxs.end(), [&](std::size_t a, std::size_t b) {
      return r.spans[a].span_id < r.spans[b].span_id;
    });
    const std::vector<RespEvent>& resp = responses[owner];
    std::size_t cur = 0;
    for (std::size_t i : idxs) {
      Span& sp = r.spans[i];
      const auto t32 = static_cast<std::uint32_t>(sp.span_id);
      while (cur < resp.size() &&
             static_cast<std::int32_t>(resp[cur].after - t32) < 0) {
        ++cur;
      }
      if (cur < resp.size() &&
          ticket_answered(t32, resp[cur].before, resp[cur].after)) {
        sp.response_tsc = resp[cur].tsc;
        ++r.spans_response_matched;
      }
      // Otherwise the ticket was answered by a watermark jump with no ring
      // event (quarantine release) or the response was dropped: unmatched.
    }
  }

  // --- attribution ---------------------------------------------------------
  for (const ThreadTrace& t : snap.threads) {
    if (t.events.empty()) continue;
    ThreadAttribution ta;
    ta.tid = t.tid;
    ta.first_tsc = t.events.front().tsc;
    ta.last_tsc = t.events.back().tsc;
    ta.window_cycles = ta.last_tsc - ta.first_tsc;

    std::vector<Interval> ivs;
    for (const Event& e : t.events) {
      std::uint64_t dur = 0;
      Category cat = Category::kAppCompute;
      switch (static_cast<EventKind>(e.kind)) {
        case EventKind::kCoordRoundTrip:
          dur = e.arg0;
          cat = Category::kCoordWait;
          break;
        case EventKind::kPessWait:
          dur = e.arg0;
          cat = Category::kPessLockWait;
          break;
        case EventKind::kRegionRestart:
          dur = e.arg0;
          cat = Category::kRegionRestart;
          break;
        case EventKind::kSeizure:
          dur = e.arg0;
          cat = Category::kResilience;
          break;
        case EventKind::kDeferredFlush:
          dur = e.arg1;  // unlock-loop cycles, low 32 bits
          cat = Category::kDeferredFlush;
          break;
        default:
          continue;
      }
      if (dur == 0) continue;
      Interval iv;
      iv.e = e.tsc;
      iv.s = e.tsc - std::min(dur, e.tsc);
      iv.cat = cat;
      ivs.push_back(iv);
    }
    sweep_intervals(std::move(ivs), ta.first_tsc, ta.last_tsc,
                    ta.by_category);

    std::uint64_t waits = 0;
    for (std::size_t c = 1; c < kCategoryCount; ++c) {
      waits += ta.by_category[c];
    }
    ta.by_category[0] = ta.window_cycles - std::min(waits, ta.window_cycles);
    r.total_cycles += ta.window_cycles;
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
      r.category_cycles[c] += ta.by_category[c];
    }
    r.threads.push_back(ta);
  }

  // --- state dwell ---------------------------------------------------------
  const std::vector<Event> merged = snap.merged();
  const std::uint64_t max_tsc = merged.empty() ? 0 : merged.back().tsc;
  std::map<std::uint32_t, ObjectDwell> agg;
  struct OpenState {
    std::uint64_t tsc = 0;
    Residency cls = Residency::kWrEx;
  };
  std::map<std::uint32_t, OpenState> open_state;
  for (const Event& e : merged) {
    if (static_cast<EventKind>(e.kind) != EventKind::kStateTransition) {
      continue;
    }
    const unsigned to_k = telemetry::transition_to_kind(e.arg0);
    ObjectDwell& d = agg[e.arg1];
    d.object = e.arg1;
    ++d.transitions;
    ++r.transitions_total;
    ++r.dwell_entries[static_cast<std::size_t>(residency_of_kind(to_k))];
    auto it = open_state.find(e.arg1);
    if (it != open_state.end() && e.tsc > it->second.tsc) {
      d.residency[static_cast<std::size_t>(it->second.cls)] +=
          e.tsc - it->second.tsc;
    }
    open_state[e.arg1] = OpenState{e.tsc, residency_of_kind(to_k)};
  }
  for (const auto& [obj, os] : open_state) {
    if (max_tsc > os.tsc) {
      agg[obj].residency[static_cast<std::size_t>(os.cls)] +=
          max_tsc - os.tsc;
    }
  }
  r.dwell.reserve(agg.size());
  for (const auto& [obj, d] : agg) {
    for (std::size_t c = 0; c < kResidencyCount; ++c) {
      r.dwell_cycles[c] += d.residency[c];
    }
    r.dwell.push_back(d);
  }
  std::stable_sort(r.dwell.begin(), r.dwell.end(),
                   [](const ObjectDwell& a, const ObjectDwell& b) {
                     return a.occupied() > b.occupied();
                   });

  // --- critical path -------------------------------------------------------
  if (!r.threads.empty()) {
    std::map<std::uint16_t, const ThreadAttribution*> by_tid;
    const ThreadAttribution* start = &r.threads.front();
    for (const ThreadAttribution& ta : r.threads) {
      by_tid[ta.tid] = &ta;
      if (ta.last_tsc > start->last_tsc) start = &ta;
    }
    // Closed spans per requester, ordered by close time for binary search.
    std::map<std::uint16_t, std::vector<const Span*>> closed;
    for (const Span& sp : r.spans) {
      if (sp.close_tsc != 0) closed[sp.requester].push_back(&sp);
    }
    for (auto& [tid, v] : closed) {
      std::sort(v.begin(), v.end(), [](const Span* a, const Span* b) {
        return a->close_tsc < b->close_tsc;
      });
    }

    std::uint16_t tid = start->tid;
    std::uint64_t cursor = start->last_tsc;
    for (int hops = 0; hops < 64; ++hops) {
      const ThreadAttribution* ta = by_tid.count(tid) ? by_tid[tid] : nullptr;
      const std::uint64_t first = ta != nullptr ? ta->first_tsc : 0;
      const Span* sp = nullptr;
      auto it = closed.find(tid);
      if (it != closed.end()) {
        // Latest span on this thread closing at or before the cursor.
        auto pos = std::upper_bound(
            it->second.begin(), it->second.end(), cursor,
            [](std::uint64_t c, const Span* s) { return c < s->close_tsc; });
        if (pos != it->second.begin()) sp = *std::prev(pos);
      }
      if (sp == nullptr || sp->close_tsc <= first) {
        if (cursor > first) {
          r.critical_path.push_back(
              CriticalHop{tid, Category::kAppCompute, 0, first, cursor});
        }
        break;
      }
      if (cursor > sp->close_tsc) {
        r.critical_path.push_back(CriticalHop{
            tid, Category::kAppCompute, 0, sp->close_tsc, cursor});
      }
      r.critical_path.push_back(CriticalHop{tid, Category::kCoordWait,
                                            sp->owner, sp->request_tsc,
                                            sp->close_tsc});
      if (sp->response_tsc == 0 || !by_tid.count(sp->owner)) {
        // Unstitched (dropped response or quarantine release): continue on
        // the requester before the request was made.
        cursor = sp->request_tsc;
      } else {
        tid = sp->owner;
        cursor = sp->response_tsc;
      }
    }
  }

  return r;
}

namespace {

std::string u64s(std::uint64_t v) { return std::to_string(v); }

double fraction(std::uint64_t part, std::uint64_t total) {
  return total == 0 ? 0.0 : static_cast<double>(part) /
                                static_cast<double>(total);
}

}  // namespace

std::string profile_to_json(const ProfileReport& r, std::size_t max_objects) {
  std::string out = "{\"cycles_per_second\":";
  out += json::number(r.cycles_per_second);
  out += ",\"total_cycles\":" + u64s(r.total_cycles);
  out += ",\"attribution\":{\"categories\":{";
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    if (c != 0) out.push_back(',');
    out.push_back('"');
    out += category_name(static_cast<Category>(c));
    out += "\":{\"cycles\":" + u64s(r.category_cycles[c]);
    out += ",\"fraction\":" +
           json::number(fraction(r.category_cycles[c], r.total_cycles));
    out.push_back('}');
  }
  out += "},\"error\":" + json::number(r.attribution_error());
  out += ",\"threads\":[";
  for (std::size_t i = 0; i < r.threads.size(); ++i) {
    const ThreadAttribution& ta = r.threads[i];
    if (i != 0) out.push_back(',');
    out += "{\"tid\":" + u64s(ta.tid);
    out += ",\"window_cycles\":" + u64s(ta.window_cycles);
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
      out += ",\"";
      out += category_name(static_cast<Category>(c));
      out += "\":" + u64s(ta.by_category[c]);
    }
    out.push_back('}');
  }
  out += "]},\"spans\":{\"total\":" + u64s(r.spans.size());
  out += ",\"scalar\":" + u64s(r.spans_scalar);
  out += ",\"batch\":" + u64s(r.spans_batch);
  out += ",\"responses_matched\":" + u64s(r.spans_response_matched);
  out += ",\"closed\":" + u64s(r.spans_closed);
  out += "},\"dwell\":{\"transitions_total\":" + u64s(r.transitions_total);
  out += ",\"state_cycles\":{";
  for (std::size_t c = 0; c < kResidencyCount; ++c) {
    if (c != 0) out.push_back(',');
    out.push_back('"');
    out += residency_name(static_cast<Residency>(c));
    out += "\":" + u64s(r.dwell_cycles[c]);
  }
  out += "},\"entries\":{";
  for (std::size_t c = 0; c < kResidencyCount; ++c) {
    if (c != 0) out.push_back(',');
    out.push_back('"');
    out += residency_name(static_cast<Residency>(c));
    out += "\":" + u64s(r.dwell_entries[c]);
  }
  out += "},\"objects\":[";
  const std::size_t n_obj = std::min(max_objects, r.dwell.size());
  for (std::size_t i = 0; i < n_obj; ++i) {
    const ObjectDwell& d = r.dwell[i];
    if (i != 0) out.push_back(',');
    out += "{\"object\":" + u64s(d.object);
    out += ",\"transitions\":" + u64s(d.transitions);
    for (std::size_t c = 0; c < kResidencyCount; ++c) {
      out += ",\"";
      out += residency_name(static_cast<Residency>(c));
      out += "\":" + u64s(d.residency[c]);
    }
    out.push_back('}');
  }
  out += "]},\"critical_path\":[";
  for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
    const CriticalHop& h = r.critical_path[i];
    if (i != 0) out.push_back(',');
    out += "{\"tid\":" + u64s(h.tid);
    out += ",\"kind\":\"";
    out += category_name(h.category);
    out.push_back('"');
    if (h.category == Category::kCoordWait) {
      out += ",\"via\":" + u64s(h.via);
    }
    out += ",\"cycles\":" + u64s(h.cycles());
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string profile_to_collapsed(const ProfileReport& r) {
  std::string out;
  for (const ThreadAttribution& ta : r.threads) {
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
      if (ta.by_category[c] == 0) continue;
      out += "T" + u64s(ta.tid);
      out.push_back(';');
      out += category_name(static_cast<Category>(c));
      out.push_back(' ');
      out += u64s(ta.by_category[c]);
      out.push_back('\n');
    }
  }
  for (const CriticalHop& h : r.critical_path) {
    if (h.cycles() == 0) continue;
    out += "critical;T" + u64s(h.tid);
    out.push_back(';');
    out += category_name(h.category);
    if (h.category == Category::kCoordWait) {
      out += ";T" + u64s(h.via);
    }
    out.push_back(' ');
    out += u64s(h.cycles());
    out.push_back('\n');
  }
  return out;
}

std::string attribution_report(const ProfileReport& r) {
  std::string out;
  char buf[160];
  const double cps = r.cycles_per_second;
  std::snprintf(buf, sizeof buf,
                "where the cycles went (%llu thread-window cycles, %zu "
                "threads):\n",
                static_cast<unsigned long long>(r.total_cycles),
                r.threads.size());
  out += buf;
  std::snprintf(buf, sizeof buf, "  %-16s %16s %10s %12s\n", "category",
                "cycles", "percent", "ms");
  out += buf;
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    const std::uint64_t cy = r.category_cycles[c];
    const double ms = cps > 0 ? static_cast<double>(cy) / cps * 1e3 : 0.0;
    std::snprintf(buf, sizeof buf, "  %-16s %16llu %9.2f%% %12.3f\n",
                  category_name(static_cast<Category>(c)),
                  static_cast<unsigned long long>(cy),
                  100.0 * fraction(cy, r.total_cycles), ms);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "spans: %zu (%llu scalar, %llu batch), %llu responses "
                "stitched, %llu closed\n",
                r.spans.size(),
                static_cast<unsigned long long>(r.spans_scalar),
                static_cast<unsigned long long>(r.spans_batch),
                static_cast<unsigned long long>(r.spans_response_matched),
                static_cast<unsigned long long>(r.spans_closed));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "dwell: %llu transitions across %zu objects\n",
                static_cast<unsigned long long>(r.transitions_total),
                r.dwell.size());
  out += buf;
  std::uint64_t dwell_total = 0;
  for (std::uint64_t c : r.dwell_cycles) dwell_total += c;
  for (std::size_t c = 0; c < kResidencyCount; ++c) {
    std::snprintf(buf, sizeof buf, "  %-6s %16llu cycles %9.2f%%\n",
                  residency_name(static_cast<Residency>(c)),
                  static_cast<unsigned long long>(r.dwell_cycles[c]),
                  100.0 * fraction(r.dwell_cycles[c], dwell_total));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "critical path: %zu hops\n",
                r.critical_path.size());
  out += buf;
  return out;
}

}  // namespace ht::analysis::profile

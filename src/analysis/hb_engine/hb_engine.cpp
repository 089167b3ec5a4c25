#include "analysis/hb_engine/hb_engine.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "recorder/recording_validate.hpp"

namespace ht::analysis {

namespace {

struct AccessRef {
  NodeRef node;
  std::uint64_t seq = 0;
  int obj = -1;
  bool write = false;
};

std::vector<AccessRef> collect_accesses(const Trace& trace) {
  std::vector<AccessRef> out;
  for (std::size_t t = 0; t < trace.thread_count(); ++t) {
    for (std::size_t i = 0; i < trace.threads[t].size(); ++i) {
      const TraceEvent& e = trace.threads[t][i];
      if (!e.is_access()) continue;
      out.push_back({NodeRef{static_cast<ThreadId>(t), i}, e.seq, e.obj,
                     e.kind == TraceEventKind::kWrite});
    }
  }
  // Observed schedule order, so witnesses and conflict arcs are reported
  // the way the run serialized them.
  std::sort(out.begin(), out.end(),
            [](const AccessRef& a, const AccessRef& b) {
              return a.seq < b.seq;
            });
  return out;
}

}  // namespace

// --- predictive race detection -----------------------------------------------

PredictiveRaceReport predictive_races(const Trace& trace, const HbOrder& hb) {
  PredictiveRaceReport rep;
  rep.applicable = trace.annotated;
  if (!rep.applicable || !hb.acyclic()) return rep;

  std::map<int, std::vector<AccessRef>> by_obj;
  for (const AccessRef& a : collect_accesses(trace)) {
    by_obj[a.obj].push_back(a);
  }
  for (const auto& [obj, accesses] : by_obj) {
    bool reported = false;
    for (std::size_t i = 0; i < accesses.size() && !reported; ++i) {
      for (std::size_t j = i + 1; j < accesses.size(); ++j) {
        const AccessRef& a = accesses[i];
        const AccessRef& b = accesses[j];
        if (a.node.thread == b.node.thread) continue;
        if (!a.write && !b.write) continue;
        ++rep.pairs_checked;
        if (!hb.concurrent(a.node, b.node)) continue;
        rep.races.push_back(
            {obj, a.node, b.node, a.write && b.write});
        if (obj >= 0 && obj < 64) rep.racy_object_mask |= 1ULL << obj;
        reported = true;  // one witness per object
        break;
      }
    }
  }
  return rep;
}

// --- region serializability ---------------------------------------------------

namespace {

bool ends_region(const TraceEvent& e) {
  return e.kind == TraceEventKind::kBump ||
         e.kind == TraceEventKind::kAcquire ||
         e.kind == TraceEventKind::kRelease;
}

}  // namespace

RegionSerializabilityReport check_region_serializability(const Trace& trace,
                                                         const HbOrder& hb) {
  RegionSerializabilityReport rep;
  const std::size_t n = trace.thread_count();

  // Region index per event: the count of boundary events strictly before it
  // in its thread (a boundary event belongs to the region it ends).
  std::vector<std::vector<std::size_t>> region_of(n);
  std::vector<std::size_t> region_count(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    region_of[t].resize(trace.threads[t].size());
    std::size_t r = 0;
    for (std::size_t i = 0; i < trace.threads[t].size(); ++i) {
      region_of[t][i] = r;
      if (ends_region(trace.threads[t][i])) ++r;
    }
    region_count[t] = trace.threads[t].empty() ? 0 : region_of[t].back() + 1;
  }
  for (std::size_t c : region_count) rep.regions += c;

  // Region-level arcs; program order between a thread's regions is implicit
  // in the sweep, and an arc inside one region orders nothing.
  const auto region = [&](NodeRef e) {
    return NodeRef{e.thread, region_of[e.thread][e.index]};
  };
  std::vector<HbArc> arcs;
  const auto add_arc = [&](NodeRef from, NodeRef to) {
    if (!(region(from) == region(to))) arcs.push_back({region(from), region(to)});
  };
  // Event-graph cross arcs, projected onto regions.
  for (const HbOrder::Arc& a : hb.cross_arcs()) {
    add_arc(a.from, a.to);
    ++rep.region_arcs;
  }
  // Observed-order conflict arcs between regions (annotated traces): two
  // conflicting accesses in different regions must keep their observed
  // order in any serialization, whether or not synchronization orders them.
  if (trace.annotated) {
    std::map<int, std::vector<AccessRef>> by_obj;
    for (const AccessRef& acc : collect_accesses(trace)) {
      by_obj[acc.obj].push_back(acc);  // already seq-sorted
    }
    for (const auto& [obj, accesses] : by_obj) {
      for (std::size_t i = 0; i < accesses.size(); ++i) {
        for (std::size_t j = i + 1; j < accesses.size(); ++j) {
          const AccessRef& a = accesses[i];
          const AccessRef& b = accesses[j];
          if (a.node.thread == b.node.thread) continue;
          if (!a.write && !b.write) continue;
          add_arc(a.node, b.node);
          ++rep.conflict_arcs;
        }
      }
    }
  }

  // A serial region order exists iff the region graph is acyclic.
  CursorSweep sweep(region_count);
  sweep.run_over_arcs(arcs, [](ThreadId, std::size_t, auto) {});
  if (sweep.left() != 0) {
    rep.serializable = false;
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t r = sweep.cursor(static_cast<ThreadId>(t));
           r < region_count[t]; ++r) {
        rep.violating.push_back(RegionRef{static_cast<ThreadId>(t), r});
      }
    }
  }
  return rep;
}

// --- analytics ----------------------------------------------------------------

TraceAnalytics analyze_trace(const Trace& trace, const HbOrder& hb) {
  TraceAnalytics a;
  a.threads = trace.thread_count();
  a.events = trace.total_events();
  a.cross_arcs = hb.cross_arc_count();
  a.critical_path = hb.critical_path_length();
  a.cross_arc_density =
      a.events == 0 ? 0.0
                    : static_cast<double>(a.cross_arcs) /
                          static_cast<double>(a.events);
  a.parallelism = a.critical_path == 0
                      ? 0.0
                      : static_cast<double>(a.events) /
                            static_cast<double>(a.critical_path);
  a.edges_out.assign(a.threads, 0);
  a.edges_in.assign(a.threads, 0);
  for (const HbOrder::Arc& arc : hb.cross_arcs()) {
    ++a.edges_out[arc.from.thread];
    ++a.edges_in[arc.to.thread];
  }
  if (trace.annotated) {
    std::map<int, ObjectConflictStat> stats;
    std::map<int, std::vector<AccessRef>> by_obj;
    for (const AccessRef& acc : collect_accesses(trace)) {
      by_obj[acc.obj].push_back(acc);
    }
    for (const auto& [obj, accesses] : by_obj) {
      ObjectConflictStat& s = stats[obj];
      s.obj = obj;
      for (std::size_t i = 0; i < accesses.size(); ++i) {
        for (std::size_t j = i + 1; j < accesses.size(); ++j) {
          const AccessRef& x = accesses[i];
          const AccessRef& y = accesses[j];
          if (x.node.thread == y.node.thread) continue;
          if (!x.write && !y.write) continue;
          ++s.conflicting_pairs;
          if (hb.acyclic() && hb.concurrent(x.node, y.node)) ++s.racy_pairs;
        }
      }
    }
    for (auto& [obj, s] : stats) a.object_ranking.push_back(s);
    std::sort(a.object_ranking.begin(), a.object_ranking.end(),
              [](const ObjectConflictStat& x, const ObjectConflictStat& y) {
                if (x.conflicting_pairs != y.conflicting_pairs) {
                  return x.conflicting_pairs > y.conflicting_pairs;
                }
                return x.obj < y.obj;
              });
  }
  return a;
}

json::Value TraceAnalytics::to_json() const {
  json::Object o;
  o["threads"] = json::Value(static_cast<std::uint64_t>(threads));
  o["events"] = json::Value(static_cast<std::uint64_t>(events));
  o["cross_arcs"] = json::Value(static_cast<std::uint64_t>(cross_arcs));
  o["critical_path"] = json::Value(static_cast<std::uint64_t>(critical_path));
  o["cross_arc_density"] = json::Value(cross_arc_density);
  o["parallelism"] = json::Value(parallelism);
  json::Array out_arr, in_arr;
  for (std::size_t v : edges_out) {
    out_arr.push_back(json::Value(static_cast<std::uint64_t>(v)));
  }
  for (std::size_t v : edges_in) {
    in_arr.push_back(json::Value(static_cast<std::uint64_t>(v)));
  }
  o["edges_out"] = json::Value(std::move(out_arr));
  o["edges_in"] = json::Value(std::move(in_arr));
  json::Array ranking;
  for (const ObjectConflictStat& s : object_ranking) {
    json::Object e;
    e["obj"] = json::Value(s.obj);
    e["conflicting_pairs"] =
        json::Value(static_cast<std::uint64_t>(s.conflicting_pairs));
    e["racy_pairs"] = json::Value(static_cast<std::uint64_t>(s.racy_pairs));
    ranking.push_back(json::Value(std::move(e)));
  }
  o["object_ranking"] = json::Value(std::move(ranking));
  return json::Value(std::move(o));
}

// --- whole-file driver ----------------------------------------------------------

RecordingAnalysisReport analyze_recording_file(const std::string& path) {
  RecordingAnalysisReport rep;
  rep.load = load_recording_ex(path);
  if (!rep.load.recording.has_value()) return rep;
  rep.lint = lint_recording(*rep.load.recording, rep.load.partial);
  // The graph stages assume only structural well-formedness (in-order logs,
  // in-range sources); they run even when the lint found value issues, so a
  // forged file with a dependence cycle gets the more specific
  // "unserializable" verdict rather than a bare lint failure.
  if (!rep.lint.structure.ok()) return rep;

  const Trace trace = trace_from_recording(*rep.load.recording);
  const HbOrder hb = HbOrder::build(trace);
  rep.hb_acyclic = hb.acyclic();
  rep.rs = check_region_serializability(trace, hb);
  rep.analytics = analyze_trace(trace, hb);
  return rep;
}

int RecordingAnalysisReport::exit_code(bool allow_partial) const {
  if (const int code = load_exit_code(load, allow_partial)) return code;
  if (!lint.structure.ok()) return kExitStructure;
  // A cyclic dependence graph (or a region conflict cycle) is the most
  // specific verdict this tool can give — the recording admits no serial
  // order — so it outranks the remaining per-thread lint findings.
  if (!hb_acyclic || !rs.serializable) return kExitUnserializable;
  if (!lint.ok()) return kExitLint;
  return kExitOk;
}

std::string RecordingAnalysisReport::to_string() const {
  std::ostringstream os;
  // RecordingLoadResult::to_string() already reads "load failed: <reason>".
  if (!load.recording.has_value()) return load.to_string();
  if (!lint.structure.ok()) {
    os << "lint failed: " << lint.to_string();
    return os.str();
  }
  os << "hb: " << analytics.events << " event(s), " << analytics.cross_arcs
     << " cross-thread arc(s), "
     << (hb_acyclic ? "acyclic" : "CYCLIC (corrupt or unserializable)")
     << "; critical path " << analytics.critical_path << "; regions "
     << rs.regions << ", "
     << (rs.serializable ? "serializable" : "NOT serializable");
  if (!rs.serializable && !rs.violating.empty()) {
    os << " (";
    for (std::size_t i = 0; i < rs.violating.size() && i < 8; ++i) {
      if (i != 0) os << ", ";
      os << "T" << rs.violating[i].thread << "#" << rs.violating[i].index;
    }
    if (rs.violating.size() > 8) os << ", ...";
    os << " in a conflict cycle)";
  }
  if (!lint.ok()) os << "; " << lint.to_string();
  if (load.partial) os << " [salvaged prefix]";
  return os.str();
}

json::Value RecordingAnalysisReport::to_json() const {
  json::Object o;
  o["loaded"] = json::Value(load.recording.has_value());
  o["complete"] = json::Value(load.complete());
  o["lint_ok"] = json::Value(load.recording.has_value() && lint.ok());
  o["hb_acyclic"] = json::Value(hb_acyclic);
  o["serializable"] = json::Value(rs.serializable);
  o["regions"] = json::Value(static_cast<std::uint64_t>(rs.regions));
  o["region_arcs"] = json::Value(static_cast<std::uint64_t>(rs.region_arcs));
  o["exit_code"] = json::Value(exit_code());
  o["analytics"] = analytics.to_json();
  return json::Value(std::move(o));
}

}  // namespace ht::analysis

#include "analysis/trace_lint.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/hb_engine/hb_order.hpp"
#include "recorder/recording_io.hpp"

namespace ht::analysis {

namespace {

void issue(LintResult& res, std::size_t thread, std::size_t event,
           std::string message) {
  res.issues.push_back(
      {static_cast<ThreadId>(thread), event, std::move(message)});
}

}  // namespace

LintResult lint_recording(const Recording& recording, bool salvaged) {
  LintResult res;
  res.salvaged_prefix = salvaged;
  res.structure = validate_recording(recording);
  // The graph checks assume in-order logs and in-range source threads;
  // structural corruption already fails the lint, so stop here.
  if (!res.structure.ok()) return res;

  const std::size_t n = recording.threads.size();
  bool stamps_consistent = true;
  std::vector<std::uint64_t> first_stamp(n, 0);  // 0: no bump
  std::vector<std::uint64_t> last_value(n);
  for (std::size_t t = 0; t < n; ++t) {
    const ThreadLog& log = recording.threads[t];
    // Release counters are bumped monotonically and each logged bump event
    // is itself a bump, so stamps are strictly increasing. Validation has
    // rejected a zero stamp, so the k-th bump's stamp is at least k.
    std::uint64_t prev_stamp = 0;
    for (std::size_t i = 0; i < log.events.size(); ++i) {
      const LogEvent& e = log.events[i];
      if (!e.is_bump()) continue;
      if (e.value <= prev_stamp) {
        issue(res, t, i, "response counter stamp not strictly increasing");
        stamps_consistent = false;
      }
      if (first_stamp[t] == 0) first_stamp[t] = e.value;
      prev_stamp = e.value;
    }
    // For a fixed (sink, source) pair, edge values are reads of the
    // source's monotone counter taken at program-ordered moments, so they
    // are non-decreasing along the sink's log.
    std::fill(last_value.begin(), last_value.end(), 0);
    for (std::size_t i = 0; i < log.events.size(); ++i) {
      const LogEvent& e = log.events[i];
      if (e.type != LogEventType::kEdge) continue;
      if (e.value < last_value[e.src]) {
        issue(res, t, i,
              "edge value decreases for the same source thread (source "
              "release counter not monotone)");
      }
      last_value[e.src] = e.value;
    }
  }
  // Inconsistent stamps would make the dependence graph meaningless; the
  // lint already failed above.
  if (!stamps_consistent) return res;

  // ---- Cross-thread dependence graph --------------------------------------
  // Nodes are log events, program order chains each thread's log, and each
  // edge event requiring (S, v) gets an arc from the last bump of S
  // <= v — the HbOrder graph (hb_engine/hb_order.hpp), never materialised
  // here. Stamps are strictly increasing, so S has such a bump iff its first
  // stamp is <= v.
  std::vector<std::size_t> lengths(n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto& events = recording.threads[t].events;
    lengths[t] = events.size();
    res.graph_nodes += events.size();
    for (const LogEvent& e : events) {
      if (e.type == LogEventType::kEdge && first_stamp[e.src] != 0 &&
          first_stamp[e.src] <= e.value) {
        ++res.graph_arcs;
      }
    }
  }
  // Real-time order contains every arc, so a genuine recording's graph is
  // acyclic; a cycle proves the file was corrupted, spliced, or forged. One
  // cursor sweep decides it. An edge's anchor is behind S's cursor iff the
  // next bump at or after that cursor is stamped above v (or there is
  // none), so one look-ahead index per source thread replaces any
  // per-event state.
  CursorSweep sweep(std::move(lengths));
  std::vector<std::size_t> next_bump(n, 0);
  sweep.run(
      [&](ThreadId t, std::size_t i) {
        const LogEvent& e = recording.threads[t].events[i];
        if (e.type != LogEventType::kEdge) return true;
        const auto& src = recording.threads[e.src].events;
        std::size_t& j = next_bump[e.src];
        j = std::max(j, sweep.cursor(e.src));
        while (j < src.size() && !src[j].is_bump()) ++j;
        return j == src.size() || src[j].value > e.value;
      },
      [](ThreadId, std::size_t) {});
  if (sweep.left() != 0) {
    const NodeRef cyc = sweep.first_left().value_or(NodeRef{});
    std::ostringstream os;
    os << "cross-thread dependence graph has a cycle (" << sweep.left()
       << " event(s) unorderable; no topological order exists)";
    issue(res, cyc.thread, cyc.index, os.str());
  }
  return res;
}

std::string LintResult::to_string() const {
  std::ostringstream os;
  if (ok()) {
    os << "lint OK: " << graph_nodes << " event(s), " << graph_arcs
       << " cross-thread arc(s), topological order exists";
  } else if (!structure.ok()) {
    os << "structure: " << structure.to_string();
  } else {
    os << issues.size() << " lint issue(s):";
    for (const LintIssue& i : issues)
      os << "\n  T" << i.thread << " event " << i.event << ": " << i.message;
  }
  if (salvaged_prefix)
    os << " [salvaged prefix: file was truncated or corrupted]";
  return os.str();
}

std::string FileLintResult::to_string() const {
  std::ostringstream os;
  os << load.to_string();
  if (load.recording.has_value()) os << "; " << lint.to_string();
  return os.str();
}

FileLintResult lint_recording_file(const std::string& path) {
  FileLintResult r;
  r.load = load_recording_ex(path);
  if (r.load.recording.has_value())
    r.lint = lint_recording(*r.load.recording, r.load.partial);
  return r;
}

}  // namespace ht::analysis

// Offline happens-before partial order over a Trace (DESIGN.md §12.2).
//
// The event graph contains one node per trace event and two arc families:
//
//   * program order — consecutive events of the same thread;
//   * cross-thread arcs —
//       - dependence anchoring (sync traces): an edge event requiring source
//         S to reach counter v gets an arc from the LAST bump of S stamped
//         <= v. A bump stamped w <= v happened in real time before any
//         access that waited for S's counter to reach v, so real-time order
//         contains the arc (the anchor is sound); with kRegionEnd marks
//         every bump is logged and the anchor is exact (stamp == v).
//       - lock synchronization (annotated traces): each release of lock L is
//         ordered before the next acquire of L in the observed global order
//         — exactly the sync the runtime FastTrack detector tracks, so the
//         offline and runtime HB relations agree by construction.
//
// A cursor sweep (CursorSweep below) proves acyclicity without building
// successor lists: program order is the cursor itself, and each event is
// visited once its cross-thread predecessors are (a genuine trace's graph
// embeds in real time, so an event that can never be visited proves
// corruption — or, at region granularity, a serializability violation).
// Per-event vector clocks are computed at each visit, making every
// subsequent happens_before query an O(1) component comparison:
// clock(e)[t] counts the events of thread t ordered at-or-before e, so
// a strictly-before b iff clock(b)[a.thread] > a.index.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "analysis/hb_engine/hb_trace.hpp"
#include "common/vector_clock.hpp"

namespace ht::analysis {

// Position of an event in a Trace: threads[thread][index].
struct NodeRef {
  ThreadId thread = kNoThread;
  std::size_t index = 0;

  bool operator==(const NodeRef&) const = default;
};

// A cross-thread arc: `from` is ordered before `to`.
struct HbArc {
  NodeRef from;
  NodeRef to;
};

// Topological visit of per-thread event lists with one cursor per thread.
// A thread's cursor advances while `ready(t, i)` says every cross-thread
// predecessor of its next event i lies behind its own thread's cursor
// (visited()); program order needs no check. Passes over the threads repeat
// until one moves no cursor. The events left are exactly those a Kahn sort
// leaves unsorted — the ones with an ancestor on a cycle — and the sweep's
// own state is one cursor per thread, whatever the event count.
class CursorSweep {
 public:
  explicit CursorSweep(std::vector<std::size_t> lengths);

  // `ready(t, i)` may be asked more than once per event; `visit(t, i)` runs
  // once per visited event, after every predecessor's visit.
  template <class Ready, class Visit>
  void run(Ready&& ready, Visit&& visit) {
    for (bool moved = true; moved;) {
      moved = false;
      for (ThreadId t = 0; t < cursor_.size(); ++t) {
        while (cursor_[t] < length_[t] && ready(t, cursor_[t])) {
          visit(t, cursor_[t]);
          ++cursor_[t];
          moved = true;
        }
      }
    }
  }

  // run() with the cross-thread predecessors given as arcs. An event is
  // ready once the source of every arc into it is visited; a malformed
  // input may aim several arcs at one event, and all of them count.
  // `visit(t, i, in)` gets the indices into `arcs` of the arcs into (t, i).
  template <class Visit>
  void run_over_arcs(const std::vector<HbArc>& arcs, Visit&& visit) {
    const std::vector<std::vector<std::size_t>> into = arcs_into(arcs);
    std::vector<std::size_t> next(into.size(), 0);  // first arc not consumed
    const auto arcs_end = [&](ThreadId t, std::size_t i) {
      std::size_t k = next[t];
      while (k < into[t].size() && arcs[into[t][k]].to.index == i) ++k;
      return k;
    };
    run(
        [&](ThreadId t, std::size_t i) {
          for (std::size_t k = next[t], end = arcs_end(t, i); k < end; ++k) {
            if (!visited(arcs[into[t][k]].from)) return false;
          }
          return true;
        },
        [&](ThreadId t, std::size_t i) {
          const std::size_t end = arcs_end(t, i);
          visit(t, i,
                std::span<const std::size_t>(into[t]).subspan(
                    next[t], end - next[t]));
          next[t] = end;
        });
  }

  std::size_t cursor(ThreadId t) const { return cursor_[t]; }
  bool visited(NodeRef n) const { return n.index < cursor_[n.thread]; }
  // Events never visited (0 iff the graph is acyclic).
  std::size_t left() const;
  // The cursor of the lowest thread with events left: the node Kahn's
  // lowest-id scan reports. Empty when everything was visited.
  std::optional<NodeRef> first_left() const;

 private:
  // Indices into `arcs` per target thread, in the target's program order.
  std::vector<std::vector<std::size_t>> arcs_into(
      const std::vector<HbArc>& arcs) const;

  std::vector<std::size_t> length_;
  std::vector<std::size_t> cursor_;
};

class HbOrder {
 public:
  // Collects the cross-thread arcs, runs the cursor sweep, and computes the
  // per-event vector clocks of every visited event. The trace must outlive
  // the order.
  static HbOrder build(const Trace& trace);

  bool acyclic() const { return unsorted_ == 0; }
  std::size_t node_count() const { return nodes_; }
  std::size_t cross_arc_count() const { return cross_list_.size(); }
  std::size_t unsorted_count() const { return unsorted_; }
  // A node stuck in a cycle (lowest thread, then program order). Empty when
  // acyclic.
  std::optional<NodeRef> first_cyclic() const { return first_cyclic_; }

  // Strict happens-before between two events. Meaningful only on acyclic
  // orders (clocks are not computed through cycles).
  bool happens_before(NodeRef a, NodeRef b) const {
    if (a == b) return false;
    return clock(b).get(a.thread) > a.index;
  }
  bool concurrent(NodeRef a, NodeRef b) const {
    return !(a == b) && !happens_before(a, b) && !happens_before(b, a);
  }

  const VectorClock& clock(NodeRef n) const {
    return clocks_[flat(n)];
  }

  // Longest chain in the DAG, counted in events — the replay-parallelism
  // limit: no execution respecting the recorded order can finish in fewer
  // than this many sequential steps. 0 for empty traces or cyclic graphs.
  std::size_t critical_path_length() const { return critical_path_; }

  // The cross-thread arcs (dependence anchors + lock sync), for analyses
  // that need the graph itself rather than the order it induces (the region
  // serializability checker maps these onto enforcer regions).
  using Arc = HbArc;
  const std::vector<Arc>& cross_arcs() const { return cross_list_; }

 private:
  std::size_t flat(NodeRef n) const {
    return offsets_[n.thread] + n.index;
  }

  std::size_t nodes_ = 0;
  std::size_t unsorted_ = 0;
  std::size_t critical_path_ = 0;
  std::optional<NodeRef> first_cyclic_;
  std::vector<std::size_t> offsets_;  // per-thread flat-id base, + sentinel
  std::vector<VectorClock> clocks_;   // per flat id; zero if never visited
  std::vector<Arc> cross_list_;
};

}  // namespace ht::analysis

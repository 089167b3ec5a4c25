#include "analysis/hb_engine/hb_order.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace ht::analysis {

CursorSweep::CursorSweep(std::vector<std::size_t> lengths)
    : length_(std::move(lengths)), cursor_(length_.size(), 0) {}

std::size_t CursorSweep::left() const {
  std::size_t n = 0;
  for (std::size_t t = 0; t < cursor_.size(); ++t) n += length_[t] - cursor_[t];
  return n;
}

std::optional<NodeRef> CursorSweep::first_left() const {
  for (std::size_t t = 0; t < cursor_.size(); ++t) {
    if (cursor_[t] < length_[t]) {
      return NodeRef{static_cast<ThreadId>(t), cursor_[t]};
    }
  }
  return std::nullopt;
}

std::vector<std::vector<std::size_t>> CursorSweep::arcs_into(
    const std::vector<HbArc>& arcs) const {
  std::vector<std::vector<std::size_t>> into(length_.size());
  for (std::size_t k = 0; k < arcs.size(); ++k) {
    into[arcs[k].to.thread].push_back(k);
  }
  for (auto& in : into) {
    std::stable_sort(in.begin(), in.end(), [&](std::size_t a, std::size_t b) {
      return arcs[a].to.index < arcs[b].to.index;
    });
  }
  return into;
}

HbOrder HbOrder::build(const Trace& trace) {
  HbOrder o;
  const std::size_t n = trace.thread_count();
  std::vector<std::size_t> lengths(n);
  o.offsets_.assign(n + 1, 0);
  for (std::size_t t = 0; t < n; ++t) {
    lengths[t] = trace.threads[t].size();
    o.offsets_[t + 1] = o.offsets_[t] + lengths[t];
  }
  o.nodes_ = o.offsets_[n];

  // Bumps per thread, in program order (stamps of a genuine trace are
  // strictly increasing; the lint checks that before its own sweep).
  std::vector<std::vector<std::size_t>> bump_index(n);
  std::vector<std::vector<std::uint64_t>> bump_stamp(n);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < trace.threads[t].size(); ++i) {
      const TraceEvent& e = trace.threads[t][i];
      if (e.is_bump()) {
        bump_index[t].push_back(i);
        bump_stamp[t].push_back(e.value);
      }
    }
  }

  // Dependence anchoring: edge (t, i) needing (src, v) <- last bump of src
  // stamped <= v.
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < trace.threads[t].size(); ++i) {
      const TraceEvent& e = trace.threads[t][i];
      if (e.kind != TraceEventKind::kEdge) continue;
      if (e.src >= n) continue;  // structural validation's job; stay safe
      const auto& stamps = bump_stamp[e.src];
      auto it = std::upper_bound(stamps.begin(), stamps.end(), e.value);
      if (it == stamps.begin()) continue;  // satisfied by unlogged bumps
      const std::size_t j = bump_index[e.src][(it - stamps.begin()) - 1];
      o.cross_list_.push_back({NodeRef{e.src, j},
                               NodeRef{static_cast<ThreadId>(t), i}});
    }
  }

  // Lock synchronization (annotated traces): per lock, release -> next
  // acquire in the observed global order.
  if (trace.annotated) {
    struct LockEvent {
      std::uint64_t seq;
      NodeRef node;
      bool release;
    };
    std::map<int, std::vector<LockEvent>> per_lock;
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t i = 0; i < trace.threads[t].size(); ++i) {
        const TraceEvent& e = trace.threads[t][i];
        if (e.kind == TraceEventKind::kAcquire ||
            e.kind == TraceEventKind::kRelease) {
          per_lock[e.lock].push_back(
              {e.seq, NodeRef{static_cast<ThreadId>(t), i},
               e.kind == TraceEventKind::kRelease});
        }
      }
    }
    for (auto& [lock, evs] : per_lock) {
      std::sort(evs.begin(), evs.end(),
                [](const LockEvent& a, const LockEvent& b) {
                  return a.seq < b.seq;
                });
      for (std::size_t k = 0; k < evs.size(); ++k) {
        if (!evs[k].release) continue;
        for (std::size_t m = k + 1; m < evs.size(); ++m) {
          if (!evs[m].release) {
            o.cross_list_.push_back({evs[k].node, evs[m].node});
            break;
          }
        }
      }
    }
  }

  // Clocks and chain depths are computed at each visit from the thread
  // predecessor and the cross predecessors, all visited before.
  o.clocks_.assign(o.nodes_, VectorClock(n));
  std::vector<std::size_t> depth(o.nodes_, 0);
  CursorSweep sweep(std::move(lengths));
  sweep.run_over_arcs(
      o.cross_list_,
      [&](ThreadId t, std::size_t i, std::span<const std::size_t> in) {
        const std::size_t u = o.offsets_[t] + i;
        std::size_t d = 0;
        if (i > 0) {
          o.clocks_[u] = o.clocks_[u - 1];
          d = depth[u - 1];
        }
        for (std::size_t k : in) {
          const std::size_t p = o.flat(o.cross_list_[k].from);
          o.clocks_[u].join(o.clocks_[p]);
          d = std::max(d, depth[p]);
        }
        o.clocks_[u].set(t, i + 1);
        depth[u] = d + 1;
        o.critical_path_ = std::max(o.critical_path_, depth[u]);
      });
  o.unsorted_ = sweep.left();
  if (o.unsorted_ != 0) {
    o.critical_path_ = 0;  // meaningless through a cycle
    o.first_cyclic_ = sweep.first_left();
  }
  return o;
}

}  // namespace ht::analysis

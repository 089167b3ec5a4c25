#include "runtime/thread_context.hpp"

#include "metadata/object_meta.hpp"
#include "runtime/runtime.hpp"

namespace ht {

ThreadContext::ThreadContext() { lock_buffer.reserve(256); }

void ThreadContext::reset(ThreadId new_id, Runtime* rt) {
  id = new_id;
  runtime = rt;
  registered = true;
  fast_wr_ex_opt = StateWord::wr_ex_opt(new_id).raw();
  fast_rd_ex_opt = StateWord::rd_ex_opt(new_id).raw();
  rd_sh_count = 0;
  point_index = 0;
  lock_buffer.clear();
  rd_set.clear();
  stats = TransitionStats{};
  telem = nullptr;
  in_region = false;
  restart_requested = false;
  // A ThreadQuarantined unwind skips commit/rollback; empty the log but keep
  // its storage for the context's next thread.
  region_log.commit();
  undo_log = nullptr;
  flush_self = nullptr;
  flush_fn = nullptr;
  abort_self = nullptr;
  abort_fn = nullptr;
  resp_log_self = nullptr;
  resp_log_fn = nullptr;
  region_log_self = nullptr;
  region_log_fn = nullptr;
  liveness.exited.store(false, std::memory_order_relaxed);
  quarantined_self = false;
  heartbeat = 0;
  coord_span_counter = 0;
  owner_side.status.store(0, std::memory_order_relaxed);
  owner_side.response_watermark.store(0, std::memory_order_relaxed);
  owner_side.release_counter.store(0, std::memory_order_relaxed);
  liveness.last_poll.store(0, std::memory_order_relaxed);
  liveness.heartbeat.store(0, std::memory_order_relaxed);
  requester_side.request_tickets.store(0, std::memory_order_relaxed);
  // Recycle any batch nodes abandoned to this slot's mailbox (possible only
  // when a runtime instance is reused across runs). The nodes belong to
  // *other* threads' pools — this slot's own pool flags are owned by the
  // mailbox drains of whoever those nodes were posted to, never touched here.
  for (CoordBatchNode* n = mailbox.queue.drain(); n != nullptr;) {
    CoordBatchNode* next = n->next;
    n->consumed.store(true, std::memory_order_release);
    n = next;
  }
  mailbox.draining.store(false, std::memory_order_relaxed);
}

}  // namespace ht

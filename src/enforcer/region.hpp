// Undo logging for statically-bounded region serializability (paper §5).
//
// The paper's enforcer transforms regions at compile time so they can restart
// after responding to a coordination request mid-region. Our substrate uses
// speculation with an undo log instead (the equivalent EnfoRSer mechanism):
// every tracked store inside a region records the old value, and if the
// region must restart, the log is replayed backwards *before* the thread
// relinquishes any object state — at that moment the thread still owns every
// written object, so the rollback stores cannot race.
//
// The log is a thread-owned growable buffer (DESIGN.md §4.5): push is an
// inlined capacity check plus one 24-byte entry store, growth is a cold
// out-of-line doubling, and commit keeps the storage, so a steady-state
// region never allocates. Entry storage is cache-line aligned and a whole
// number of lines, so no two threads' entries share a line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/cache_line.hpp"

namespace ht {

class UndoLog {
 public:
  // Restore function: writes `old_bits` back through `addr`.
  using RestoreFn = void (*)(void* addr, std::uint64_t old_bits);

  struct Entry {
    void* addr;
    std::uint64_t old_bits;
    RestoreFn restore;
  };

  // Entries in the first allocation: 64 × 24 bytes = 24 cache lines. Any
  // multiple of 8 entries fills whole lines, and doubling keeps it one.
  static constexpr std::size_t kInitialCapacity = 64;
  static_assert(kInitialCapacity * sizeof(Entry) % kCacheLine == 0,
                "undo entry storage must be a whole number of cache lines");

  UndoLog() = default;
  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;
  ~UndoLog() { ::operator delete(entries_, kAlign); }

  void push(void* addr, std::uint64_t old_bits, RestoreFn restore) {
    if (end_ == cap_) [[unlikely]] grow();
    *end_++ = Entry{addr, old_bits, restore};
  }

  // Roll back in reverse order (later writes to the same location must be
  // undone first so the earliest old value wins).
  void rollback() {
    while (end_ != entries_) {
      const Entry& e = *--end_;
      e.restore(e.addr, e.old_bits);
    }
  }

  void commit() { end_ = entries_; }

  std::size_t size() const {
    return static_cast<std::size_t>(end_ - entries_);
  }
  bool empty() const { return end_ == entries_; }
  std::size_t capacity() const {
    return static_cast<std::size_t>(cap_ - entries_);
  }
  const Entry* data() const { return entries_; }

 private:
  static constexpr std::align_val_t kAlign{kCacheLine};

  [[gnu::cold, gnu::noinline]] void grow() {
    const std::size_t n = size();
    const std::size_t cap =
        entries_ == nullptr ? kInitialCapacity : 2 * capacity();
    auto* bigger =
        static_cast<Entry*>(::operator new(cap * sizeof(Entry), kAlign));
    if (n > 0) std::memcpy(bigger, entries_, n * sizeof(Entry));
    ::operator delete(entries_, kAlign);
    entries_ = bigger;
    end_ = bigger + n;
    cap_ = bigger + cap;
  }

  // [entries_, end_) is the region's log; [entries_, cap_) the storage.
  Entry* entries_ = nullptr;
  Entry* end_ = nullptr;
  Entry* cap_ = nullptr;
};

}  // namespace ht

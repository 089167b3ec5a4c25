// Recording persistence: a record & replay system is only useful if the
// recording survives the recording process (offline replay, replication-
// based fault tolerance — the §4.1 use cases), including processes that die
// mid-write. The on-disk format is version 2, streaming and crash-tolerant;
// a file of any other version (version 1 had one whole-file checksum) fails
// as kBadVersion:
//   magic "HTRC" | version u32=2 | thread_count u32 | header FNV u64
//   chunk*:      thread u32 | event_count u32 | events | chunk FNV u64
//                events: point u64 | type u8 | src u32 | value u64
//   trailer:     thread u32=0xFFFFFFFF | event_count u32=0 | FNV u64
//   Chunk checksums are chained (each chunk's FNV is seeded by the previous
//   chunk's), so chunks cannot be reordered or spliced. A load walks chunks
//   until the trailer; a truncated or torn file yields every intact chunk —
//   the longest valid prefix of each thread's log — flagged as partial.
//
// Integers are little-endian host order, fields packed with no padding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "recorder/dependence_log.hpp"

namespace ht {

class FaultInjector;

inline constexpr std::uint32_t kRecordingFormatVersion = 2;

// Why a load failed (or was cut short).
enum class RecordingLoadError : std::uint8_t {
  kNone = 0,   // complete, intact load
  kIo,         // open/read failure
  kBadMagic,   // not a recording file
  kBadVersion, // a format version other than kRecordingFormatVersion
  kTruncated,  // file ends early (a valid prefix was salvaged)
  kChecksum,   // corrupted payload (the prefix before it was salvaged)
};

const char* recording_load_error_name(RecordingLoadError e);

struct RecordingLoadResult {
  // Present on a complete load AND on a salvaged-prefix load; nullopt only
  // when nothing could be recovered (bad magic/version, unreadable file,
  // corrupt header).
  std::optional<Recording> recording;
  RecordingLoadError error = RecordingLoadError::kNone;
  bool partial = false;           // true when recording holds a prefix only
  std::size_t chunks_loaded = 0;  // intact chunks accepted
  std::uint32_t version = 0;      // kBadVersion: the version the file names

  bool complete() const {
    return recording.has_value() && error == RecordingLoadError::kNone;
  }
  std::string to_string() const;
};

// Streaming writer: header at construction, one checksummed chunk per
// append (flushed through the stream so a crash loses at most the chunk
// being written), trailer at finish().
//
// Transient-failure hardening (DESIGN.md §11.3): a torn or failed block
// write is retried up to max_write_attempts times with a capped backoff —
// the stream is rewound to the block start first, so a retried tear never
// leaves partial bytes on disk. Only after the retries are exhausted does
// the failure latch (the torn prefix stays on disk, still loadable as a
// valid-prefix salvage); from then on every call returns false.
class RecordingStreamWriter {
 public:
  static constexpr std::uint32_t kDefaultWriteAttempts = 4;

  RecordingStreamWriter(const std::string& path, std::uint32_t thread_count,
                        FaultInjector* faults = nullptr);
  ~RecordingStreamWriter();
  RecordingStreamWriter(const RecordingStreamWriter&) = delete;
  RecordingStreamWriter& operator=(const RecordingStreamWriter&) = delete;

  // 1 disables retrying (every failure latches immediately, the pre-§11
  // behavior); 0 is clamped to 1.
  void set_max_write_attempts(std::uint32_t n) {
    max_write_attempts_ = n == 0 ? 1 : n;
  }

  bool ok() const { return ok_; }
  bool append(ThreadId thread, const LogEvent* events, std::size_t count);
  bool finish();  // writes the trailer; idempotent

 private:
  bool write_block(const std::string& bytes);

  void* out_;  // std::ofstream, kept out of the header
  std::uint64_t chain_;
  std::uint32_t thread_count_;
  bool ok_;
  bool finished_ = false;
  std::uint32_t max_write_attempts_ = kDefaultWriteAttempts;
  FaultInjector* faults_;
};

// Writes `recording` to `path`; returns false on I/O failure (including
// injected faults — a short write leaves a loadable prefix).
bool save_recording(const Recording& recording, const std::string& path,
                    FaultInjector* faults = nullptr);

// Loads a recording with a structured reason. Truncation/corruption
// salvages the longest valid prefix (error + partial set).
RecordingLoadResult load_recording_ex(const std::string& path,
                                      FaultInjector* faults = nullptr);

// Compatibility wrapper: the recording when anything was recoverable
// (complete or salvaged prefix), std::nullopt otherwise.
std::optional<Recording> load_recording(const std::string& path);

}  // namespace ht

#include "recorder/recording_io.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "faultinject/fault_injector.hpp"

namespace ht {

namespace {

// Capped exponential backoff between write-retry attempts: 20us, 40us, 80us,
// ... clamped to 256us. The range is that of Backoff's sleep ticks
// (common/spin.hpp), without its spin and yield phases: a failed write is
// not a wait on another thread.
void retry_backoff(std::uint32_t attempt) {
  const int us = std::min(20 << std::min(attempt, 8u), 256);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

constexpr char kMagic[4] = {'H', 'T', 'R', 'C'};
constexpr std::uint32_t kTrailerThread = 0xFFFFFFFFu;
constexpr std::size_t kEventBytes = 8 + 1 + 4 + 8;
// Events per chunk: small enough that a crash loses little, large enough
// that chunk framing (16 bytes) is noise.
constexpr std::size_t kChunkEvents = 512;
// A corrupt chunk count must not trigger a giant allocation.
constexpr std::uint32_t kMaxChunkEvents = 1u << 22;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

class Fnv1a {
 public:
  explicit Fnv1a(std::uint64_t seed = kFnvBasis) : hash_(seed) {}

  void feed(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_;
};

template <typename T>
void put_pod(std::string& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_event(std::string& buf, const LogEvent& e) {
  put_pod(buf, e.point);
  put_pod(buf, static_cast<std::uint8_t>(e.type));
  put_pod(buf, static_cast<std::uint32_t>(e.src));
  put_pod(buf, e.value);
}

RecordingLoadResult fail(RecordingLoadError e) {
  RecordingLoadResult r;
  r.error = e;
  return r;
}

}  // namespace

const char* recording_load_error_name(RecordingLoadError e) {
  switch (e) {
    case RecordingLoadError::kNone: return "ok";
    case RecordingLoadError::kIo: return "io-error";
    case RecordingLoadError::kBadMagic: return "bad-magic";
    case RecordingLoadError::kBadVersion: return "bad-version";
    case RecordingLoadError::kTruncated: return "truncated";
    case RecordingLoadError::kChecksum: return "checksum-mismatch";
  }
  return "?";
}

std::string RecordingLoadResult::to_string() const {
  std::ostringstream out;
  if (complete()) {
    out << "loaded (" << chunks_loaded << " chunks)";
  } else if (recording.has_value()) {
    out << "partial load: " << recording_load_error_name(error) << ", kept "
        << chunks_loaded << " chunks (" << recording->total_edges()
        << " edges, " << recording->total_responses() << " responses)";
  } else {
    out << "load failed: " << recording_load_error_name(error);
    if (error == RecordingLoadError::kBadVersion) {
      out << " (file is version " << version << "; only version "
          << kRecordingFormatVersion << " loads)";
    }
  }
  return out.str();
}

// --- streaming writer ----------------------------------------------------------

RecordingStreamWriter::RecordingStreamWriter(const std::string& path,
                                             std::uint32_t thread_count,
                                             FaultInjector* faults)
    : out_(nullptr),
      chain_(0),
      thread_count_(thread_count),
      ok_(false),
      faults_(faults) {
  if (faults_ != nullptr && faults_->fail_open()) return;
  auto* out = new std::ofstream(path, std::ios::binary | std::ios::trunc);
  out_ = out;
  if (!*out) return;
  out->write(kMagic, sizeof kMagic);
  std::string header;
  put_pod(header, kRecordingFormatVersion);
  put_pod(header, thread_count);
  Fnv1a h;
  h.feed(header.data(), header.size());
  put_pod(header, h.value());
  out->write(header.data(), static_cast<std::streamsize>(header.size()));
  out->flush();
  chain_ = h.value();
  ok_ = out->good();
}

RecordingStreamWriter::~RecordingStreamWriter() {
  // Deliberately no auto-finish: a writer destroyed without finish() models
  // a crash mid-recording, leaving a trailer-less (partial) file.
  delete static_cast<std::ofstream*>(out_);
}

bool RecordingStreamWriter::write_block(const std::string& bytes) {
  auto* out = static_cast<std::ofstream*>(out_);
  const std::ofstream::pos_type block_start = out->tellp();
  for (std::uint32_t attempt = 0;; ++attempt) {
    const bool last_attempt = attempt + 1 >= max_write_attempts_;
    if (faults_ != nullptr) {
      if (const auto keep = faults_->short_write(bytes.size())) {
        if (!last_attempt) {
          // Transient tear: rewind to the block start and retry after a
          // capped backoff, so the failed attempt leaves nothing on disk.
          out->clear();
          out->seekp(block_start);
          retry_backoff(attempt);
          continue;
        }
        // Retries exhausted: model the crash — the torn prefix stays on
        // disk (still a loadable valid prefix) and the failure latches.
        out->write(bytes.data(), static_cast<std::streamsize>(*keep));
        out->flush();
        ok_ = false;
        return false;
      }
    }
    out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out->flush();
    if (out->good()) {
      ok_ = true;
      return true;
    }
    if (last_attempt) {
      ok_ = false;
      return false;
    }
    out->clear();
    out->seekp(block_start);
    retry_backoff(attempt);
  }
}

bool RecordingStreamWriter::append(ThreadId thread, const LogEvent* events,
                                   std::size_t count) {
  if (!ok_ || finished_) return false;
  HT_ASSERT(thread < thread_count_, "chunk thread out of range");
  HT_ASSERT(count <= kMaxChunkEvents, "chunk too large");
  std::string chunk;
  chunk.reserve(8 + count * kEventBytes + 8);
  put_pod(chunk, static_cast<std::uint32_t>(thread));
  put_pod(chunk, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) put_event(chunk, events[i]);
  Fnv1a h(chain_);  // chained: chunks cannot be reordered or spliced
  h.feed(chunk.data(), chunk.size());
  put_pod(chunk, h.value());
  if (!write_block(chunk)) return false;
  chain_ = h.value();
  return true;
}

bool RecordingStreamWriter::finish() {
  if (finished_) return ok_;
  if (!ok_) return false;
  std::string trailer;
  put_pod(trailer, kTrailerThread);
  put_pod(trailer, std::uint32_t{0});
  Fnv1a h(chain_);
  h.feed(trailer.data(), trailer.size());
  put_pod(trailer, h.value());
  if (!write_block(trailer)) return false;
  finished_ = true;
  return true;
}

// --- save ----------------------------------------------------------------------

bool save_recording(const Recording& recording, const std::string& path,
                    FaultInjector* faults) {
  RecordingStreamWriter w(
      path, static_cast<std::uint32_t>(recording.threads.size()), faults);
  // One-shot semantics: a whole-file save has no live run to keep alive, so
  // an injected tear fails it immediately (the fault-schedule tests depend
  // on this); write retries are the *streaming* path's hardening.
  w.set_max_write_attempts(1);
  if (!w.ok()) return false;
  for (std::size_t t = 0; t < recording.threads.size(); ++t) {
    const auto& events = recording.threads[t].events;
    for (std::size_t i = 0; i < events.size(); i += kChunkEvents) {
      const std::size_t n = std::min(kChunkEvents, events.size() - i);
      if (!w.append(static_cast<ThreadId>(t), events.data() + i, n)) {
        return false;
      }
    }
  }
  return w.finish();
}

// --- load ----------------------------------------------------------------------

namespace {

bool read_exact(std::istream& in, void* dst, std::size_t n) {
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  return in.gcount() == static_cast<std::streamsize>(n);
}

// The stream is positioned right after the magic + version.
// Walks chained chunks; any failure salvages the prefix loaded so far.
RecordingLoadResult load_chunks(std::istream& in, FaultInjector* faults) {
  std::uint32_t threads = 0;
  std::uint64_t header_fnv = 0;
  if (!read_exact(in, &threads, sizeof threads) ||
      !read_exact(in, &header_fnv, sizeof header_fnv)) {
    return fail(RecordingLoadError::kTruncated);
  }
  Fnv1a h;
  const std::uint32_t version = kRecordingFormatVersion;
  h.feed(&version, sizeof version);
  h.feed(&threads, sizeof threads);
  if (h.value() != header_fnv || threads > kMaxThreads) {
    // Corrupt header: the thread structure is unknown, nothing to salvage.
    return fail(RecordingLoadError::kChecksum);
  }

  RecordingLoadResult res;
  res.recording.emplace();
  res.recording->threads.resize(threads);
  std::uint64_t chain = header_fnv;
  std::vector<char> payload;

  const auto salvage = [&](RecordingLoadError e) {
    res.error = e;
    res.partial = true;
    return res;
  };

  for (;;) {
    if (faults != nullptr && faults->fail_read()) {
      return salvage(RecordingLoadError::kIo);
    }
    std::uint32_t thread = 0;
    in.read(reinterpret_cast<char*>(&thread), sizeof thread);
    if (in.gcount() == 0) {
      // Clean EOF at a chunk boundary but no trailer seen: the writer died
      // before finish(). Everything read so far is the valid prefix.
      return salvage(RecordingLoadError::kTruncated);
    }
    if (in.gcount() != sizeof thread) {
      return salvage(RecordingLoadError::kTruncated);
    }
    std::uint32_t count = 0;
    if (!read_exact(in, &count, sizeof count)) {
      return salvage(RecordingLoadError::kTruncated);
    }

    if (thread == kTrailerThread) {
      std::uint64_t stored = 0;
      if (count != 0) return salvage(RecordingLoadError::kChecksum);
      if (!read_exact(in, &stored, sizeof stored)) {
        return salvage(RecordingLoadError::kTruncated);
      }
      Fnv1a t(chain);
      t.feed(&thread, sizeof thread);
      t.feed(&count, sizeof count);
      if (t.value() != stored) return salvage(RecordingLoadError::kChecksum);
      return res;  // complete
    }

    if (thread >= threads || count > kMaxChunkEvents) {
      return salvage(RecordingLoadError::kChecksum);
    }
    payload.resize(static_cast<std::size_t>(count) * kEventBytes);
    if (!payload.empty() && !read_exact(in, payload.data(), payload.size())) {
      return salvage(RecordingLoadError::kTruncated);
    }
    std::uint64_t stored = 0;
    if (!read_exact(in, &stored, sizeof stored)) {
      return salvage(RecordingLoadError::kTruncated);
    }
    Fnv1a c(chain);
    c.feed(&thread, sizeof thread);
    c.feed(&count, sizeof count);
    c.feed(payload.data(), payload.size());
    if (c.value() != stored) return salvage(RecordingLoadError::kChecksum);

    auto& events = res.recording->threads[thread].events;
    events.reserve(events.size() + count);
    const char* p = payload.data();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t point, value;
      std::uint8_t type;
      std::uint32_t src;
      std::memcpy(&point, p, sizeof point);
      p += sizeof point;
      std::memcpy(&type, p, sizeof type);
      p += sizeof type;
      std::memcpy(&src, p, sizeof src);
      p += sizeof src;
      std::memcpy(&value, p, sizeof value);
      p += sizeof value;
      if (type > static_cast<std::uint8_t>(LogEventType::kRegionEnd)) {
        return salvage(RecordingLoadError::kChecksum);
      }
      events.push_back(LogEvent{point, static_cast<LogEventType>(type),
                                static_cast<ThreadId>(src), value});
    }
    chain = stored;
    ++res.chunks_loaded;
  }
}

}  // namespace

RecordingLoadResult load_recording_ex(const std::string& path,
                                      FaultInjector* faults) {
  if (faults != nullptr && faults->fail_open()) {
    return fail(RecordingLoadError::kIo);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(RecordingLoadError::kIo);
  char magic[4];
  if (!read_exact(in, magic, sizeof magic)) {
    return fail(RecordingLoadError::kBadMagic);
  }
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return fail(RecordingLoadError::kBadMagic);
  }

  std::uint32_t version = 0;
  if (!read_exact(in, &version, sizeof version)) {
    return fail(RecordingLoadError::kTruncated);
  }
  if (version != kRecordingFormatVersion) {
    RecordingLoadResult r = fail(RecordingLoadError::kBadVersion);
    r.version = version;
    return r;
  }
  return load_chunks(in, faults);
}

std::optional<Recording> load_recording(const std::string& path) {
  return load_recording_ex(path).recording;
}

}  // namespace ht

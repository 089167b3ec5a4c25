#include "telemetry/trace_io.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

namespace ht::telemetry {

namespace {

constexpr std::uint32_t kMagic = 0x4C455448u;  // "HTEL"
// Only this version loads. v3 renumbered the event kinds when the governor
// flip (old 19) and the elision flush (old 24) were retired; the container
// layout is the same as v2's, so the version is what stops an older file's
// kinds from being read under the new numbers.
constexpr std::uint32_t kVersion = 3;
// A corrupt count must not trigger a giant allocation (same guard idiom as
// recording_io).
constexpr std::uint64_t kMaxEventsPerThread = std::uint64_t{1} << 28;
constexpr std::uint32_t kMaxThreads = 1u << 16;

template <typename T>
void put_pod(std::ostream& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get_pod(std::istream& in, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return in.gcount() == static_cast<std::streamsize>(sizeof v);
}

}  // namespace

const char* trace_load_result_name(TraceLoadResult r) {
  switch (r) {
    case TraceLoadResult::kOk: return "ok";
    case TraceLoadResult::kOpenFailed: return "open-failed";
    case TraceLoadResult::kBadMagic: return "bad-magic";
    case TraceLoadResult::kBadVersion: return "bad-version";
    case TraceLoadResult::kTruncated: return "truncated";
    case TraceLoadResult::kCorrupt: return "corrupt";
  }
  return "unknown";
}

bool save_trace(const TraceSnapshot& snap, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  put_pod(out, kMagic);
  put_pod(out, kVersion);
  put_pod(out, snap.cycles_per_second);
  put_pod(out, snap.base_tsc);
  put_pod(out, static_cast<std::uint32_t>(snap.threads.size()));
  put_pod(out, std::uint32_t{0});
  for (const ThreadTrace& t : snap.threads) {
    put_pod(out, static_cast<std::uint32_t>(t.tid));
    put_pod(out, std::uint32_t{0});
    put_pod(out, t.recorded);
    put_pod(out, t.dropped);
    put_pod(out, static_cast<std::uint64_t>(t.events.size()));
    if (!t.events.empty()) {
      out.write(reinterpret_cast<const char*>(t.events.data()),
                static_cast<std::streamsize>(t.events.size() * sizeof(Event)));
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

TraceLoadResult load_trace(const std::string& path, TraceSnapshot& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return TraceLoadResult::kOpenFailed;

  std::uint32_t magic = 0, version = 0, nthreads = 0, reserved = 0;
  if (!get_pod(in, magic)) return TraceLoadResult::kTruncated;
  if (magic != kMagic) return TraceLoadResult::kBadMagic;
  if (!get_pod(in, version)) return TraceLoadResult::kTruncated;
  if (version != kVersion) return TraceLoadResult::kBadVersion;

  out = TraceSnapshot{};
  if (!get_pod(in, out.cycles_per_second)) return TraceLoadResult::kTruncated;
  if (!get_pod(in, out.base_tsc)) return TraceLoadResult::kTruncated;
  if (!get_pod(in, nthreads)) return TraceLoadResult::kTruncated;
  if (!get_pod(in, reserved)) return TraceLoadResult::kTruncated;
  if (nthreads > kMaxThreads) return TraceLoadResult::kCorrupt;

  out.threads.reserve(nthreads);
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ThreadTrace t;
    std::uint32_t tid = 0;
    std::uint64_t count = 0;
    if (!get_pod(in, tid)) return TraceLoadResult::kTruncated;
    if (!get_pod(in, reserved)) return TraceLoadResult::kTruncated;
    if (!get_pod(in, t.recorded)) return TraceLoadResult::kTruncated;
    if (!get_pod(in, t.dropped)) return TraceLoadResult::kTruncated;
    if (!get_pod(in, count)) return TraceLoadResult::kTruncated;
    if (count > kMaxEventsPerThread || count > t.recorded) {
      return TraceLoadResult::kCorrupt;
    }
    t.tid = static_cast<std::uint16_t>(tid);
    t.events.resize(static_cast<std::size_t>(count));
    if (count > 0) {
      const std::streamsize bytes =
          static_cast<std::streamsize>(count * sizeof(Event));
      in.read(reinterpret_cast<char*>(t.events.data()), bytes);
      if (in.gcount() != bytes) return TraceLoadResult::kTruncated;
    }
    out.threads.push_back(std::move(t));
  }
  // Trailing garbage means the writer and reader disagree about the format.
  char extra = 0;
  in.read(&extra, 1);
  if (in.gcount() != 0) return TraceLoadResult::kCorrupt;
  return TraceLoadResult::kOk;
}

}  // namespace ht::telemetry

#include "recorder/recording_validate.hpp"

#include <sstream>

namespace ht {

std::string ValidationResult::to_string() const {
  if (ok()) return "recording OK";
  std::ostringstream out;
  out << issues.size() << " issue(s):";
  for (const ValidationIssue& i : issues) {
    out << "\n  T" << i.thread << " event " << i.event << ": " << i.message;
  }
  return out.str();
}

ValidationResult validate_recording(const Recording& recording) {
  ValidationResult r;
  const std::size_t n = recording.threads.size();
  if (n == 0) {
    r.issues.push_back({0, 0, "recording has no threads"});
    return r;
  }
  for (std::size_t t = 0; t < n; ++t) {
    const auto& events = recording.threads[t].events;
    std::uint64_t last_point = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const LogEvent& e = events[i];
      if (e.point < last_point) {
        r.issues.push_back(
            {static_cast<ThreadId>(t), i,
             "event point decreases (log not in program order)"});
      }
      last_point = e.point;
      if (e.is_bump() && e.value == 0) {
        r.issues.push_back({static_cast<ThreadId>(t), i,
                            "bump stamped 0 (a post-bump counter is >= 1)"});
      } else if (e.type == LogEventType::kEdge) {
        if (e.src >= n) {
          r.issues.push_back({static_cast<ThreadId>(t), i,
                              "edge source thread out of range"});
        } else if (e.src == t) {
          r.issues.push_back({static_cast<ThreadId>(t), i,
                              "self-edge would deadlock replay"});
        }
      }
    }
  }
  return r;
}

std::string FileCheckResult::to_string() const {
  std::ostringstream out;
  out << load.to_string();
  if (load.recording.has_value()) out << "; structure: " << structure.to_string();
  return out.str();
}

FileCheckResult check_recording_file(const std::string& path) {
  FileCheckResult r;
  r.load = load_recording_ex(path);
  if (r.load.recording.has_value()) {
    r.structure = validate_recording(*r.load.recording);
  }
  return r;
}

int FileCheckResult::exit_code(bool allow_partial) const {
  if (const int code = load_exit_code(load, allow_partial)) return code;
  return structure.ok() ? kExitOk : kExitStructure;
}

int exit_code_for(RecordingLoadError error) {
  switch (error) {
    case RecordingLoadError::kNone:       return kExitOk;
    case RecordingLoadError::kIo:         return kExitIo;
    case RecordingLoadError::kBadMagic:   return kExitBadMagic;
    case RecordingLoadError::kBadVersion: return kExitBadVersion;
    case RecordingLoadError::kTruncated:  return kExitTruncated;
    case RecordingLoadError::kChecksum:   return kExitChecksum;
  }
  return kExitIo;  // unreachable; conservative for corrupted enum values
}

int load_exit_code(const RecordingLoadResult& load, bool allow_partial) {
  if (load.recording.has_value() && allow_partial) return kExitOk;
  return exit_code_for(load.error);
}

}  // namespace ht

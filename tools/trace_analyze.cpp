// trace_analyze: the offline tool for both file kinds this project writes —
// recordings ("HTRC", format version 2, salvaged prefixes included) and
// drained telemetry traces ("HTEL", from workload_run --trace or
// TelemetrySession + save_trace).
//
// Recordings:
//   trace_analyze validate [--allow-partial] <recording.bin>
//     structural well-formedness only (recorder/recording_validate.hpp), the
//     same validation the replayer relies on; exits 0-7.
//   trace_analyze lint [--allow-partial] <recording.bin>
//     adds the cross-thread dependence checks (analysis/trace_lint.hpp):
//     release-counter stamps strictly increasing per thread, edge values
//     non-decreasing per (sink, source) pair, the dependence graph acyclic;
//     exits 0-8.
//   trace_analyze [options] <recording.bin>
//     the offline happens-before engine (DESIGN.md §12): reconstructs the
//     happens-before partial order from dependence edges + release-counter
//     stamps, and reports the lint verdict, HB acyclicity and critical-path
//     length, region serializability (conflict cycles among enforcer
//     regions) and dependence-graph analytics, exportable as JSON.
//       --json FILE        write the full analysis report as JSON
//       --bench FILE       write a BENCH_*.json throughput report (events/sec)
//       --allow-partial    accept a salvaged prefix
//       --make-violation FILE
//                          write a synthetic recording with a dependence
//                          cycle (two threads each waiting on the other's
//                          bump) and exit; analyzing it exits 9 — the CI
//                          injected-violation fixture
//   Exit codes are the shared ToolExitCode values (README.md): 0 OK, 1 usage,
//   2 bad magic, 3 bad version, 4 truncated, 5 checksum mismatch, 6 I/O
//   error, 7 structural validation failure, 8 lint failure, 9
//   region-serializability violation. Salvaged-prefix files exit 4 or 5
//   unless --allow-partial accepts them.
//
// Telemetry traces:
//   trace_analyze export <trace.bin> [--out FILE] [--check [--strict]]
//                        [--top N] [--metrics json|prom]
//     Chrome trace-event JSON for Perfetto / chrome://tracing (to stdout
//     unless --out, --check, --top or --metrics is given), its structural
//     check, the Fig-6-style hot-object report, and the aggregate metrics.
//     A trace with ring-overwrite drops is incomplete evidence: a warning
//     goes to stderr, and --strict turns it into exit 6.
//   trace_analyze profile <trace.bin> [--attribution] [--json FILE]
//                         [--collapsed FILE] [--tolerance PCT]
//     the "where do the cycles go" report (src/analysis/profile/): stitched
//     coordination spans, per-thread time attribution across wait
//     categories, per-object state dwell and the cross-thread critical path;
//     --collapsed writes folded stacks for flamegraph.pl. The attribution
//     invariant (categories sum to the thread windows) is always checked.
//   Exit codes: 0 OK, 2 usage, 3 trace load failure (the reason is printed,
//   e.g. "bad-magic"), 4 generated JSON failed validation (export; a bug in
//   the exporter, never silent), 5 output I/O error, 6 ring drops under
//   --strict (export) or attribution error above --tolerance, default 5%
//   (profile).
//
// "-" as an output FILE writes to stdout. A bare `trace_analyze FILE` looks
// at the file's magic: an HTEL trace runs `profile` over the same arguments
// (so --json means the profile report there); anything else (a recording,
// or a file that is neither) runs the recording analysis, which reports why
// it cannot load.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/hb_engine/hb_engine.hpp"
#include "analysis/profile/trace_profile.hpp"
#include "analysis/trace_lint.hpp"
#include "recorder/recording_io.hpp"
#include "recorder/recording_validate.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_io.hpp"

namespace {

// Usage exit code of the telemetry subcommands (the recording ones use
// ht::kExitUsage).
constexpr int kTraceUsage = 2;

int usage(int code) {
  std::fprintf(
      stderr,
      "usage: trace_analyze [options] <recording.bin|trace.bin>\n"
      "       trace_analyze validate [--allow-partial] <recording.bin>\n"
      "       trace_analyze lint [--allow-partial] <recording.bin>\n"
      "       trace_analyze export <trace.bin> [--out <file.json>] [--check]"
      " [--strict] [--top <n>] [--metrics json|prom]\n"
      "       trace_analyze profile <trace.bin> [--attribution]"
      " [--json <file|->] [--collapsed <file|->] [--tolerance <percent>]\n"
      "  options of the recording analysis:\n"
      "  --json FILE           write the analysis report as JSON\n"
      "  --bench FILE          write an events/sec benchmark report\n"
      "  --allow-partial       accept a salvaged v2 prefix (the checks\n"
      "                        still run on the recovered events)\n"
      "  --make-violation FILE write a recording with an injected\n"
      "                        serializability violation and exit\n"
      "  A bare trace.bin (HTEL magic) runs `profile`.\n");
  return code;
}

struct Flag {
  const char* name;
  bool takes_value;
};
using Flags = std::vector<Flag>;
const Flags kCheckFlags = {{"--allow-partial", false}};  // validate, lint
const Flags kAnalyzeFlags = {{"--json", true},
                             {"--bench", true},
                             {"--make-violation", true},
                             {"--allow-partial", false}};
const Flags kExportFlags = {{"--out", true},
                            {"--check", false},
                            {"--strict", false},
                            {"--top", true},
                            {"--metrics", true}};
const Flags kProfileFlags = {{"--attribution", false},
                             {"--json", true},
                             {"--collapsed", true},
                             {"--tolerance", true}};

// One subcommand's command line: its input file and the flags it was given
// (flag -> value; "" for a switch). A repeated flag keeps its last value.
struct Command {
  std::string path;
  std::map<std::string, std::string> flags;
  bool has(const char* f) const { return flags.count(f) != 0; }
  std::string get(const char* f) const {
    const auto it = flags.find(f);
    return it == flags.end() ? std::string() : it->second;
  }
};

// Parses argv[first..] against `known`. False, after saying why, on an
// unknown option, a flag missing its value or a second input file.
bool parse(int argc, char** argv, int first, const Flags& known,
           Command& cmd) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : known) {
      if (std::strcmp(arg, f.name) == 0) flag = &f;
    }
    if (flag != nullptr) {
      if (flag->takes_value && i + 1 >= argc) {
        std::fprintf(stderr, "trace_analyze: %s needs a value\n", arg);
        return false;
      }
      cmd.flags[arg] = flag->takes_value ? argv[++i] : "";
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "trace_analyze: unknown option '%s'\n", arg);
      return false;
    } else if (cmd.path.empty()) {
      cmd.path = arg;
    } else {
      std::fprintf(stderr, "trace_analyze: more than one input file\n");
      return false;
    }
  }
  return true;
}

// Writes `text` to `path`, or to stdout when `path` is "-"; false, after
// saying so, when the file cannot be written.
bool write_output(const std::string& path, const std::string& text) {
  bool ok = false;
  if (path == "-") {
    ok = std::fputs(text.c_str(), stdout) != EOF;
  } else if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "trace_analyze: cannot write '%s'\n", path.c_str());
  }
  return ok;
}

// The file's first four bytes ("" when it has fewer or cannot be opened).
std::string magic_of(const std::string& path) {
  char m[4] = {};
  std::ifstream in(path, std::ios::binary);
  in.read(m, sizeof m);
  return in.gcount() == sizeof m ? std::string(m, sizeof m) : std::string();
}

// --- recordings ----------------------------------------------------------

// `validate`: structural checks only.
int validate(const std::string& path, bool allow_partial) {
  const ht::FileCheckResult r = ht::check_recording_file(path);
  std::printf("%s: %s\n", path.c_str(), r.to_string().c_str());
  return r.exit_code(allow_partial);
}

// `lint`: structural checks plus the cross-thread dependence checks.
int lint(const std::string& path, bool allow_partial) {
  const ht::analysis::FileLintResult r =
      ht::analysis::lint_recording_file(path);
  std::printf("%s: %s\n", path.c_str(), r.to_string().c_str());
  if (const int code = ht::load_exit_code(r.load, allow_partial)) return code;
  if (!r.lint.structure.ok()) return ht::kExitStructure;
  return r.lint.issues.empty() ? ht::kExitOk : ht::kExitLint;
}

// Two threads, each logging a dependence on the other's first bump BEFORE
// performing its own: stamps are monotone (the per-thread lint passes) but
// the cross-thread graph is cyclic — no serial order of the two regions
// exists. A recording like this cannot come from a real run; analyzing it
// must exit kExitUnserializable.
int make_violation(const std::string& path) {
  ht::Recording rec;
  rec.threads.resize(2);
  rec.threads[0].events = {
      {0, ht::LogEventType::kEdge, 1, 1},
      {1, ht::LogEventType::kResponse, ht::kNoThread, 1},
  };
  rec.threads[1].events = {
      {0, ht::LogEventType::kEdge, 0, 1},
      {1, ht::LogEventType::kResponse, ht::kNoThread, 1},
  };
  if (!ht::save_recording(rec, path)) {
    std::fprintf(stderr, "trace_analyze: cannot write '%s'\n", path.c_str());
    return ht::kExitIo;
  }
  std::printf("%s: wrote injected-violation recording\n", path.c_str());
  return ht::kExitOk;
}

// Events/sec of the full pipeline (trace build + HB order + region check +
// analytics), amortized over enough repetitions to measure.
int bench(const ht::Recording& rec, const std::string& out) {
  using Clock = std::chrono::steady_clock;
  std::size_t events = 0;
  for (const auto& t : rec.threads) events += t.events.size();
  std::size_t reps = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    const ht::analysis::Trace trace = ht::analysis::trace_from_recording(rec);
    const ht::analysis::HbOrder hb = ht::analysis::HbOrder::build(trace);
    const auto rs = ht::analysis::check_region_serializability(trace, hb);
    (void)rs;
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < 0.2 && reps < 10000);
  const double events_per_sec =
      elapsed > 0 ? static_cast<double>(events * reps) / elapsed : 0;
  ht::json::Object o;
  o["name"] = ht::json::Value("trace_analyze_throughput");
  o["events"] = ht::json::Value(static_cast<std::uint64_t>(events));
  o["repetitions"] = ht::json::Value(static_cast<std::uint64_t>(reps));
  o["elapsed_sec"] = ht::json::Value(elapsed);
  o["events_per_sec"] = ht::json::Value(events_per_sec);
  if (!write_output(out, ht::json::Value(std::move(o)).dump() + "\n")) {
    return ht::kExitIo;
  }
  std::printf("bench: %zu event(s) x %zu rep(s) in %.3fs = %.0f events/s\n",
              events, reps, elapsed, events_per_sec);
  return ht::kExitOk;
}

int analyze(const Command& c) {
  const ht::analysis::RecordingAnalysisReport rep =
      ht::analysis::analyze_recording_file(c.path);
  std::printf("%s: %s\n", c.path.c_str(), rep.to_string().c_str());
  if (c.has("--json") &&
      !write_output(c.get("--json"), rep.to_json().dump() + "\n")) {
    return ht::kExitIo;
  }
  if (c.has("--bench") && rep.load.recording.has_value() &&
      rep.lint.structure.ok()) {
    if (const int code = bench(*rep.load.recording, c.get("--bench"))) {
      return code;
    }
  }
  return rep.exit_code(c.has("--allow-partial"));
}

// --- telemetry traces ----------------------------------------------------

// Loads an HTEL trace; on failure prints the reason and returns false (the
// caller exits 3).
bool load(const std::string& path, ht::telemetry::TraceSnapshot& snap) {
  const ht::telemetry::TraceLoadResult lr =
      ht::telemetry::load_trace(path, snap);
  if (lr == ht::telemetry::TraceLoadResult::kOk) return true;
  std::fprintf(stderr, "trace_analyze: %s: %s\n", path.c_str(),
               ht::telemetry::trace_load_result_name(lr));
  return false;
}

int export_trace(const Command& c) {
  const long top_n = c.has("--top") ? std::atol(c.get("--top").c_str()) : 0;
  const std::string metrics = c.get("--metrics");
  if (c.has("--top") && top_n <= 0) return usage(kTraceUsage);
  if (c.has("--metrics") && metrics != "json" && metrics != "prom") {
    return usage(kTraceUsage);
  }
  const bool check = c.has("--check");
  const bool strict = c.has("--strict");

  ht::telemetry::TraceSnapshot snap;
  if (!load(c.path, snap)) return 3;
  const std::uint64_t dropped = snap.total_dropped();
  if (dropped > 0) {
    std::fprintf(stderr,
                 "trace_analyze: warning: %llu events lost to ring overwrite"
                 " (oldest first); the trace is incomplete%s\n",
                 static_cast<unsigned long long>(dropped),
                 strict ? "" : " (use --strict to fail on this)");
  }

  const std::string json = ht::telemetry::to_chrome_trace_json(snap);
  if (check) {
    std::size_t events = 0;
    std::string error;
    if (!ht::telemetry::validate_chrome_trace(json, &events, &error)) {
      std::fprintf(stderr, "trace_analyze: generated trace invalid: %s\n",
                   error.c_str());
      return 4;
    }
    std::printf("%s: ok (%llu ring events, %llu dropped, %zu trace events)\n",
                c.path.c_str(),
                static_cast<unsigned long long>(snap.total_events()),
                static_cast<unsigned long long>(dropped), events);
  }
  if (c.has("--metrics")) {
    const ht::telemetry::MetricsRegistry reg =
        ht::telemetry::aggregate_metrics(snap);
    std::fputs(metrics == "json" ? (reg.to_json() + "\n").c_str()
                                 : reg.to_prometheus().c_str(),
               stdout);
  }
  if (top_n > 0) {
    std::fputs(ht::telemetry::hot_object_report(
                   snap, static_cast<std::size_t>(top_n))
                   .c_str(),
               stdout);
  }
  if (c.has("--out")) {
    if (!write_output(c.get("--out"), json + "\n")) return 5;
  } else if (!check && !c.has("--metrics") && top_n == 0) {
    // Bare export: the JSON is the output.
    std::fputs((json + "\n").c_str(), stdout);
  }
  return strict && dropped > 0 ? 6 : 0;
}

int profile_trace(const Command& c) {
  const double tolerance_pct =
      c.has("--tolerance") ? std::atof(c.get("--tolerance").c_str()) : 5.0;
  if (tolerance_pct < 0) return usage(kTraceUsage);

  ht::telemetry::TraceSnapshot snap;
  if (!load(c.path, snap)) return 3;
  if (snap.total_dropped() > 0) {
    std::fprintf(stderr,
                 "trace_analyze: warning: %llu events lost to ring "
                 "overwrite; attribution covers the surviving window only\n",
                 static_cast<unsigned long long>(snap.total_dropped()));
  }

  namespace profile = ht::analysis::profile;
  const profile::ProfileReport report = profile::build_profile(snap);
  if (c.has("--json") &&
      !write_output(c.get("--json"), profile::profile_to_json(report))) {
    return 5;
  }
  if (c.has("--collapsed") &&
      !write_output(c.get("--collapsed"),
                    profile::profile_to_collapsed(report))) {
    return 5;
  }
  if (c.has("--attribution") || (!c.has("--json") && !c.has("--collapsed"))) {
    std::fputs(profile::attribution_report(report).c_str(), stdout);
  }

  const double err = report.attribution_error();
  if (err * 100.0 > tolerance_pct) {
    std::fprintf(stderr,
                 "trace_analyze: attribution error %.2f%% exceeds "
                 "tolerance %.2f%%\n",
                 err * 100.0, tolerance_pct);
    return 6;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sub = argc > 1 ? argv[1] : "";
  Command c;
  if (sub == "validate" || sub == "lint") {
    if (!parse(argc, argv, 2, kCheckFlags, c) || c.path.empty()) {
      return usage(ht::kExitUsage);
    }
    const bool allow_partial = c.has("--allow-partial");
    return sub == "validate" ? validate(c.path, allow_partial)
                             : lint(c.path, allow_partial);
  }
  const bool trace_sub = sub == "export" || sub == "profile";
  if (!trace_sub) {
    if (!parse(argc, argv, 1, kAnalyzeFlags, c)) return usage(ht::kExitUsage);
    if (c.has("--make-violation")) {
      return make_violation(c.get("--make-violation"));
    }
    if (c.path.empty()) return usage(ht::kExitUsage);
    if (magic_of(c.path) != "HTEL") return analyze(c);
    c = Command{};  // a telemetry trace: `profile` over the same arguments
  }
  const bool exporting = sub == "export";
  if (!parse(argc, argv, trace_sub ? 2 : 1,
             exporting ? kExportFlags : kProfileFlags, c) ||
      c.path.empty()) {
    return usage(kTraceUsage);
  }
  return exporting ? export_trace(c) : profile_trace(c);
}

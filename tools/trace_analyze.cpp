// trace_analyze: offline checks of recording files (format version 2,
// salvaged prefixes included; any other version exits 3).
//
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
//
// Exit codes are the shared ToolExitCode values (see README.md): 0 OK,
// 1 usage, 2 bad magic, 3 bad version, 4 truncated, 5 checksum mismatch,
// 6 I/O error, 7 structural validation failure, 8 lint failure,
// 9 region-serializability violation (conflict cycle among regions).
// Salvaged-prefix files exit 4 or 5 unless --allow-partial accepts them.
//
//   options of the analysis:
//     --json FILE        write the full analysis report as JSON
//     --bench FILE       write a BENCH_*.json throughput report (events/sec)
//     --allow-partial    accept a salvaged prefix
//     --make-violation FILE
//                        write a synthetic recording with a dependence
//                        cycle (two threads each waiting on the other's
//                        bump) and exit; analyzing it exits 9 — the CI
//                        injected-violation fixture
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/hb_engine/hb_engine.hpp"
#include "analysis/trace_lint.hpp"
#include "recorder/recording_io.hpp"
#include "recorder/recording_validate.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: trace_analyze [options] <recording.bin>\n"
      "       trace_analyze validate [--allow-partial] <recording.bin>\n"
      "       trace_analyze lint [--allow-partial] <recording.bin>\n"
      "  --json FILE           write the analysis report as JSON\n"
      "  --bench FILE          write an events/sec benchmark report\n"
      "  --allow-partial       accept a salvaged v2 prefix (the checks\n"
      "                        still run on the recovered events)\n"
      "  --make-violation FILE write a recording with an injected\n"
      "                        serializability violation and exit\n");
  return ht::kExitUsage;
}

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

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kAnalyze, kValidate, kLint } mode = Mode::kAnalyze;
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "validate") == 0) {
    mode = Mode::kValidate;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "lint") == 0) {
    mode = Mode::kLint;
    first = 2;
  }
  const bool analyze = mode == Mode::kAnalyze;
  std::string path, json_out, bench_out, violation_out;
  bool allow_partial = false;
  for (int i = first; i < argc; ++i) {
    const auto arg_value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--allow-partial") == 0) {
      allow_partial = true;
    } else if (analyze && (v = arg_value("--json")) != nullptr) {
      if (*v == '\0') return usage();
      json_out = v;
    } else if (analyze && (v = arg_value("--bench")) != nullptr) {
      if (*v == '\0') return usage();
      bench_out = v;
    } else if (analyze && (v = arg_value("--make-violation")) != nullptr) {
      if (*v == '\0') return usage();
      violation_out = v;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "trace_analyze: unknown option '%s'\n", argv[i]);
      return ht::kExitUsage;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "trace_analyze: more than one input file\n");
      return ht::kExitUsage;
    }
  }
  if (!violation_out.empty()) return make_violation(violation_out);
  if (path.empty()) return usage();
  if (mode == Mode::kValidate) return validate(path, allow_partial);
  if (mode == Mode::kLint) return lint(path, allow_partial);

  const ht::analysis::RecordingAnalysisReport rep =
      ht::analysis::analyze_recording_file(path);
  std::printf("%s: %s\n", path.c_str(), rep.to_string().c_str());

  if (!json_out.empty() && !write_file(json_out, rep.to_json().dump())) {
    std::fprintf(stderr, "trace_analyze: cannot write '%s'\n",
                 json_out.c_str());
    return ht::kExitIo;
  }

  if (!bench_out.empty() && rep.load.recording.has_value() &&
      rep.lint.structure.ok()) {
    // Throughput of the full pipeline (trace build + HB order + region
    // check + analytics), amortized over enough repetitions to measure.
    using Clock = std::chrono::steady_clock;
    const ht::Recording& rec = *rep.load.recording;
    std::size_t events = 0;
    for (const auto& t : rec.threads) events += t.events.size();
    std::size_t reps = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
      const ht::analysis::Trace trace =
          ht::analysis::trace_from_recording(rec);
      const ht::analysis::HbOrder hb = ht::analysis::HbOrder::build(trace);
      const auto rs = ht::analysis::check_region_serializability(trace, hb);
      (void)rs;
      ++reps;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < 0.2 && reps < 10000);
    const double events_per_sec =
        elapsed > 0 ? static_cast<double>(events * reps) / elapsed : 0;
    ht::json::Object bench;
    bench["name"] = ht::json::Value("trace_analyze_throughput");
    bench["events"] = ht::json::Value(static_cast<std::uint64_t>(events));
    bench["repetitions"] = ht::json::Value(static_cast<std::uint64_t>(reps));
    bench["elapsed_sec"] = ht::json::Value(elapsed);
    bench["events_per_sec"] = ht::json::Value(events_per_sec);
    if (!write_file(bench_out, ht::json::Value(std::move(bench)).dump())) {
      std::fprintf(stderr, "trace_analyze: cannot write '%s'\n",
                   bench_out.c_str());
      return ht::kExitIo;
    }
    std::printf("bench: %zu event(s) x %zu rep(s) in %.3fs = %.0f events/s\n",
                events, reps, elapsed, events_per_sec);
  }

  return rep.exit_code(allow_partial);
}

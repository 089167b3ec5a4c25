// workload_run: runs one named workload profile under a chosen tracker (or
// all four), reporting per-trial timings — and, with --trace, performs one
// additional traced run with a TelemetrySession installed and saves the
// drained rings as an "HTEL" file for tools/trace_analyze (`export` for
// Chrome trace JSON, metrics and the hot-object report; `profile` for the
// time attribution).
//
//   build/tools/workload_run --profile xalan6 --tracker hybrid
//       --trials 5 --json BENCH_workload_xalan6.json --trace trace.bin
//
// With --tracker all, the traced run uses the hybrid tracker. Tracing needs
// a -DHT_TELEMETRY=ON build; in a default build the tool still runs and
// writes an empty trace, with a warning. Exit codes: 0 OK, 2 usage (or
// unknown profile), 5 output I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "faultinject/fault_injector.hpp"
#include "recorder/recorder.hpp"
#include "recorder/recording_io.hpp"
#include "resilience/quarantine.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_io.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/ideal_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "tracking/pessimistic_tracker.hpp"
#include "workload/apis.hpp"
#include "workload/harness.hpp"
#include "workload/profiles.hpp"

using namespace ht;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: workload_run --profile <name> "
               "[--tracker hybrid|optimistic|pessimistic|ideal|all] "
               "[--trials <n>] [--json <path>] [--trace <path>]\n"
               "       workload_run --profile <name> --chaos "
               "[--chaos-seed <n>] [--death-p100k <n>] [--stall-epochs <n>] "
               "[--on-stall quarantine|continue] [--record <path>] "
               "[--trace <path>]\n"
               "  --stall-epochs: watchdog window, in lease epochs of at "
               "least 256 us of owner silence each (default 512, about "
               "0.17 s)\n");
  return 2;
}

struct Options {
  std::string profile;
  std::string tracker = "hybrid";
  int trials = 3;
  std::string json_path;
  std::string trace_path;
  // Chaos mode (DESIGN.md §11 / README "chaos workload quickstart"): one
  // hybrid run under injected stuck threads and torn recording writes, with
  // the watchdog escalating to quarantine and the recording streamed
  // crash-tolerantly. Replaces the timed trials.
  bool chaos = false;
  std::uint64_t chaos_seed = 42;
  // Default tuned so deaths land mid-body, when victims hold deferred locks
  // worth seizing (higher rates kill threads during init, before they own
  // anything; see DESIGN.md §11.4).
  std::uint32_t death_p100k = 5;
  std::uint64_t stall_epochs = 512;
  WatchdogConfig::OnStall on_stall = WatchdogConfig::OnStall::kQuarantine;
  std::string record_path;
};

// One chaos run. Exit codes: 0 run completed, 5 output I/O error.
int run_chaos(const Options& opt, const WorkloadConfig& cfg,
              WorkloadData& data) {
  using Tracker = HybridTracker<true, DependenceRecorder>;

  FaultConfig fc;
  fc.seed = opt.chaos_seed;
  fc.enable(FaultSite::kThreadDeath, opt.death_p100k);
  // Chaos deaths are PERMANENT stalls (DESIGN.md §11): the dead thread
  // freezes at every safe-point flavor, so only quarantine + seizure (or
  // fail-fast) can complete the run.
  fc.stuck_death = true;
  // Slow-I/O flavor: torn recording writes as a transient burst the stream
  // writer's capped retry outlives.
  fc.enable(FaultSite::kIoShortWrite, 2'000);
  fc.io_failure_cap = 2;
  FaultInjector injector(fc);

  telemetry::TelemetrySession session;

  // Standard self-healing wiring: lease expiry -> quarantine -> sweep every
  // object the victim still owns and seal its dependence log.
  resilience::QuarantineSweep sweep(
      [&data](const std::function<void(ObjectMeta&)>& fn) {
        data.for_each_meta(fn);
      });

  RuntimeConfig rc;
  rc.watchdog.on_stall = opt.on_stall;
  rc.watchdog.stall_epochs = opt.stall_epochs;
  rc.fault_injector = &injector;
  rc.telemetry = &session;
  rc.resilience.on_quarantine = std::ref(sweep);
  Runtime rt(rc);

  DependenceRecorder recorder(rt);
  sweep.set_seal([&recorder](ThreadId v) { recorder.on_quarantine(v); });

  std::optional<RecordingStreamWriter> writer;
  if (!opt.record_path.empty()) {
    writer.emplace(opt.record_path, static_cast<std::uint32_t>(cfg.threads),
                   &injector);
    if (!writer->ok()) {
      std::fprintf(stderr, "workload_run: cannot open %s\n",
                   opt.record_path.c_str());
      return 5;
    }
    recorder.set_stream_writer(&*writer);
  }

  Tracker trk(rt, HybridConfig{}, &recorder);

  WorkloadRunResult r = run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<Tracker>(rt, trk, &recorder);
  });

  if (writer.has_value()) {
    const bool stream_ok =
        recorder.finish_stream(static_cast<ThreadId>(cfg.threads)) &&
        writer->ok();
    if (!stream_ok) {
      std::fprintf(stderr, "workload_run: recording stream to %s failed\n",
                   opt.record_path.c_str());
      return 5;
    }
    std::printf("recording -> %s\n", opt.record_path.c_str());
  }

  std::printf(
      "chaos run [%s/hybrid]: %.4fs, %d thread(s) quarantined, "
      "%llu object(s) seized\n",
      cfg.name, r.seconds, r.quarantined,
      static_cast<unsigned long long>(sweep.objects_seized()));
  std::printf("%s\n", injector.summary().c_str());

  if (!opt.trace_path.empty()) {
    const telemetry::TraceSnapshot snap = session.snapshot();
    if (!telemetry::save_trace(snap, opt.trace_path)) {
      std::fprintf(stderr, "workload_run: cannot write %s\n",
                   opt.trace_path.c_str());
      return 5;
    }
    std::printf("trace: %llu events from %zu threads -> %s\n",
                static_cast<unsigned long long>(snap.total_events()),
                snap.threads.size(), opt.trace_path.c_str());
#if !HT_TELEM_AVAILABLE
    std::fprintf(stderr,
                 "workload_run: warning: built without -DHT_TELEMETRY=ON; "
                 "the trace records no events\n");
#endif
  }
  return 0;
}

// Runs the timed trials for one tracker configuration and adds its row
// (trial series + merged transition statistics) to the report.
template <typename Tracker, typename MakeTracker>
void run_timed(const Options& opt, const WorkloadConfig& cfg,
               WorkloadData& data, const char* name, MakeTracker&& make,
               BenchJsonReport& report) {
  TransitionStats stats;
  std::vector<TransitionStats> per_thread;
  const TrialSeries series = run_trial_series(opt.trials, [&] {
    Runtime rt;
    Tracker trk = make(rt);
    WorkloadRunResult r = run_workload(cfg, data, [&](ThreadId) {
      return DirectApi<Tracker>(rt, trk);
    });
    stats = r.stats;  // steady-state counters of the latest trial
    per_thread = r.per_thread_stats;
    return r;
  });
  report.add_series(cfg.name, name, series);
  report.add_stats(cfg.name, name, stats);
  // Per-thread fast-path breakdown of the latest trial. Fast-path hits =
  // accesses needing no atomic operation beyond the state load (optimistic
  // same-state + pessimistic reentrant). Thread-to-thread skew here
  // localizes which threads' working sets are churning owners.
  json::Array rows;
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    const TransitionStats& s = per_thread[t];
    json::Object o;
    o["thread"] = json::Value(static_cast<std::uint64_t>(t));
    o["accesses"] = json::Value(s.accesses());
    o["fast_path_hits"] = json::Value(s.opt_same + s.pess_reentrant);
    rows.push_back(json::Value(std::move(o)));
  }
  report.add_value(cfg.name, name, "per_thread", json::Value(std::move(rows)));
  std::printf("%-12s %-12s median %.4fs  mean %.4fs  ±%.4fs (%d trials)\n",
              cfg.name, name, series.seconds.median(), series.seconds.mean(),
              series.seconds.ci95_half_width(), opt.trials);
}

// One extra run with telemetry installed; saves the drained trace.
template <typename Tracker, typename MakeTracker>
int run_traced(const Options& opt, const WorkloadConfig& cfg,
               WorkloadData& data, const char* name, MakeTracker&& make) {
  telemetry::TelemetrySession session;
  RuntimeConfig rc;
  rc.telemetry = &session;
  Runtime rt(rc);
  Tracker trk = make(rt);
  (void)run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<Tracker>(rt, trk);
  });
  telemetry::TraceSnapshot snap = session.snapshot();
  if (!telemetry::save_trace(snap, opt.trace_path)) {
    std::fprintf(stderr, "workload_run: cannot write %s\n",
                 opt.trace_path.c_str());
    return 5;
  }
  std::printf("trace: %llu events (%llu dropped) from %zu threads "
              "[%s/%s] -> %s\n",
              static_cast<unsigned long long>(snap.total_events()),
              static_cast<unsigned long long>(snap.total_dropped()),
              snap.threads.size(), cfg.name, name, opt.trace_path.c_str());
#if !HT_TELEM_AVAILABLE
  std::fprintf(stderr,
               "workload_run: warning: built without -DHT_TELEMETRY=ON; "
               "the trace records no events\n");
#endif
  return 0;
}

template <typename Tracker, typename MakeTracker>
int run_tracker(const Options& opt, const WorkloadConfig& cfg,
                WorkloadData& data, const char* name, MakeTracker&& make,
                BenchJsonReport& report, bool traced) {
  run_timed<Tracker>(opt, cfg, data, name, make, report);
  if (traced && !opt.trace_path.empty()) {
    return run_traced<Tracker>(opt, cfg, data, name, make);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      opt.profile = argv[++i];
    } else if (std::strcmp(argv[i], "--tracker") == 0 && i + 1 < argc) {
      opt.tracker = argv[++i];
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      opt.trials = std::atoi(argv[++i]);
      if (opt.trials < 1) return usage();
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      opt.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      opt.chaos = true;
    } else if (std::strcmp(argv[i], "--chaos-seed") == 0 && i + 1 < argc) {
      opt.chaos_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--death-p100k") == 0 && i + 1 < argc) {
      opt.death_p100k =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--stall-epochs") == 0 && i + 1 < argc) {
      opt.stall_epochs = std::strtoull(argv[++i], nullptr, 10);
      if (opt.stall_epochs == 0) return usage();
    } else if (std::strcmp(argv[i], "--on-stall") == 0 && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "quarantine") {
        opt.on_stall = WatchdogConfig::OnStall::kQuarantine;
      } else if (v == "continue") {
        opt.on_stall = WatchdogConfig::OnStall::kContinue;
      } else {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--record") == 0 && i + 1 < argc) {
      opt.record_path = argv[++i];
    } else {
      std::fprintf(stderr, "workload_run: unknown argument '%s'\n", argv[i]);
      return usage();
    }
  }
  if (opt.profile.empty()) return usage();
  const bool all = opt.tracker == "all";
  if (!all && opt.tracker != "hybrid" && opt.tracker != "optimistic" &&
      opt.tracker != "pessimistic" && opt.tracker != "ideal") {
    std::fprintf(stderr, "workload_run: unknown tracker '%s'\n",
                 opt.tracker.c_str());
    return usage();
  }

  const double scale = scale_from_env();
  const WorkloadConfig cfg = profile_by_name(opt.profile.c_str(), scale);
  WorkloadData data(cfg);

  if (opt.chaos) return run_chaos(opt, cfg, data);

  BenchJsonReport report("workload_run");
  report.set_meta("profile", json::Value(opt.profile));
  report.set_meta("tracker", json::Value(opt.tracker));
  report.set_meta("trials", json::Value(opt.trials));
  report.set_meta("scale", json::Value(scale));
  report.set_meta("threads", json::Value(cfg.threads));
  report.set_meta("ops_per_thread", json::Value(cfg.ops_per_thread));
  report.set_meta("telemetry_build", json::Value(HT_TELEM_AVAILABLE != 0));

  int rc = 0;
  // With --tracker all, the traced run (if any) uses hybrid — the paper's
  // headline configuration.
  if (all || opt.tracker == "hybrid") {
    rc = run_tracker<HybridTracker<true>>(
        opt, cfg, data, "hybrid",
        [](Runtime& rt) { return HybridTracker<true>(rt, HybridConfig{}); },
        report, /*traced=*/true);
    if (rc != 0) return rc;
  }
  if (all || opt.tracker == "optimistic") {
    rc = run_tracker<OptimisticTracker<true>>(
        opt, cfg, data, "optimistic",
        [](Runtime& rt) { return OptimisticTracker<true>(rt); }, report,
        /*traced=*/!all);
    if (rc != 0) return rc;
  }
  if (all || opt.tracker == "pessimistic") {
    rc = run_tracker<PessimisticTracker<true>>(
        opt, cfg, data, "pessimistic",
        [](Runtime& rt) { return PessimisticTracker<true>(rt); }, report,
        /*traced=*/!all);
    if (rc != 0) return rc;
  }
  if (all || opt.tracker == "ideal") {
    rc = run_tracker<IdealTracker<true>>(
        opt, cfg, data, "ideal",
        [](Runtime& rt) { return IdealTracker<true>(rt); }, report,
        /*traced=*/!all);
    if (rc != 0) return rc;
  }

  if (!opt.json_path.empty()) {
    if (!report.write(opt.json_path)) return 5;
    std::printf("json report -> %s\n", opt.json_path.c_str());
  }
  return 0;
}

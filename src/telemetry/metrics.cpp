#include "telemetry/metrics.hpp"

#include "common/json.hpp"
#include "telemetry/dwell.hpp"
#include "telemetry/telemetry.hpp"

namespace ht::telemetry {

std::uint64_t& MetricsRegistry::counter(const std::string& name,
                                        const std::string& help) {
  for (auto& c : counters_) {
    if (c.name == name) return c.value;
  }
  counters_.push_back(CounterEntry{name, help, 0});
  return counters_.back().value;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             const std::string& help) {
  for (auto& h : histograms_) {
    if (h.name == name) return h.hist;
  }
  histograms_.push_back(HistogramEntry{name, help, LatencyHistogram()});
  return histograms_.back().hist;
}

namespace {

// Highest bucket index worth emitting: the last non-empty one (so empty
// histograms emit just the le="0" bucket and +Inf).
std::size_t last_nonempty_bucket(const Log2Histogram& h) {
  std::size_t last = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket(i) != 0) last = i;
  }
  return last;
}

// Upper bound (inclusive) of bucket i: 0, 1, 3, 7, 15, ...
std::uint64_t bucket_le(std::size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

// Exact integer rendering for counter/bucket values. json::number goes
// through double and would round values at and above 2^53 (and print large
// ones in scientific notation, which Prometheus `le` labels must not be).
std::string u64s(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& c : counters_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += json::escape(c.name);
    out += "\":";
    out += u64s(c.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += json::escape(h.name);
    out += "\":{\"count\":";
    out += u64s(h.hist.count());
    out += ",\"sum\":";
    out += u64s(h.hist.sum());
    out += ",\"max\":";
    out += u64s(h.hist.max());
    out += ",\"buckets\":[";
    const auto& b = h.hist.buckets();
    const std::size_t last = last_nonempty_bucket(b);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= last; ++i) {
      cum += b.bucket(i);
      if (i != 0) out.push_back(',');
      out += "{\"le\":";
      out += u64s(bucket_le(i));
      out += ",\"count\":";
      out += u64s(cum);
      out.push_back('}');
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  // HELP and TYPE are emitted for every metric (scrapers treat a TYPE
  // without HELP as an incomplete family); a metric registered without help
  // text gets a bare "# HELP <name>" line.
  auto help_line = [](std::string& out, const std::string& name,
                      const std::string& help) {
    out += "# HELP ";
    out += name;
    if (!help.empty()) {
      out.push_back(' ');
      out += help;
    }
    out.push_back('\n');
  };
  std::string out;
  for (const auto& c : counters_) {
    help_line(out, c.name, c.help);
    out += "# TYPE ";
    out += c.name;
    out += " counter\n";
    out += c.name;
    out.push_back(' ');
    out += u64s(c.value);
    out.push_back('\n');
  }
  for (const auto& h : histograms_) {
    help_line(out, h.name, h.help);
    out += "# TYPE ";
    out += h.name;
    out += " histogram\n";
    const auto& b = h.hist.buckets();
    const std::size_t last = last_nonempty_bucket(b);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= last; ++i) {
      cum += b.bucket(i);
      out += h.name;
      out += "_bucket{le=\"";
      out += u64s(bucket_le(i));
      out += "\"} ";
      out += u64s(cum);
      out.push_back('\n');
    }
    out += h.name;
    out += "_bucket{le=\"+Inf\"} ";
    out += u64s(h.hist.count());
    out.push_back('\n');
    out += h.name;
    out += "_sum ";
    out += u64s(h.hist.sum());
    out.push_back('\n');
    out += h.name;
    out += "_count ";
    out += u64s(h.hist.count());
    out.push_back('\n');
  }
  return out;
}

MetricsRegistry aggregate_metrics(const TraceSnapshot& snap) {
  MetricsRegistry reg;
  auto& events = reg.counter("ht_events_total", "telemetry events drained");
  auto& dropped =
      reg.counter("ht_events_dropped_total", "events lost to ring overwrite");
  auto& coord =
      reg.counter("ht_coord_roundtrips_total", "coordination round trips");
  auto& coord_implicit = reg.counter("ht_coord_implicit_total",
                                     "round trips resolved implicitly");
  auto& responses = reg.counter("ht_safepoint_responses_total",
                                "responding safe points");
  auto& psros = reg.counter("ht_psros_total", "program-synchronization ops");
  auto& flushes =
      reg.counter("ht_deferred_flushes_total", "deferred-unlock buffer flushes");
  auto& opt_conf = reg.counter("ht_opt_conflicts_total",
                               "optimistic conflicting transitions");
  auto& opt_conf_explicit = reg.counter(
      "ht_opt_conflicts_explicit_total", "conflicts needing explicit round trips");
  auto& pess_acq =
      reg.counter("ht_pess_acquires_total", "pessimistic lock acquisitions");
  auto& pess_contended = reg.counter("ht_pess_contended_total",
                                     "contended pessimistic acquisitions");
  auto& to_pess = reg.counter("ht_policy_opt_to_pess_total",
                              "adaptive policy opt->pess moves");
  auto& to_opt = reg.counter("ht_policy_pess_to_opt_total",
                             "adaptive policy pess->opt moves");
  auto& restarts = reg.counter("ht_region_restarts_total", "RS region restarts");
  auto& edges =
      reg.counter("ht_dep_edges_total", "recorded cross-thread dependences");
  auto& lease_expiries = reg.counter("ht_lease_expiries_total",
                                     "liveness leases declared expired");
  auto& quarantines =
      reg.counter("ht_quarantines_total", "threads flipped to Quarantined");
  auto& seizures = reg.counter("ht_seizures_total",
                               "state words seized from quarantined threads");
  auto& coord_batches = reg.counter("ht_coord_batches_total",
                                    "batched coordination rounds");
  auto& coord_batch_objects =
      reg.counter("ht_coord_batch_objects_total",
                  "objects covered by batched coordination rounds");
  auto& coord_requests = reg.counter(
      "ht_coord_requests_total", "coordination requests (span opens)");
  auto& batch_drains = reg.counter("ht_coord_batch_drains_total",
                                   "batched mailbox nodes drained");
  auto& transitions = reg.counter("ht_state_transitions_total",
                                  "state-kind changes (dwell edges)");
  auto& coord_hist = reg.histogram("ht_coord_roundtrip_cycles",
                                   "coordination round-trip latency (cycles)");
  auto& batch_hist = reg.histogram("ht_coord_batch_objects",
                                   "batch size (objects) per batched round");
  auto& wait_hist = reg.histogram("ht_pess_wait_cycles",
                                  "pessimistic lock acquisition wait (cycles)");
  auto& restart_hist = reg.histogram("ht_region_restart_cycles",
                                     "cycles burned by aborted region attempts");
  auto& seizure_hist = reg.histogram(
      "ht_seizure_cycles", "ownership seizure latency per object (cycles)");

  for (const auto& t : snap.threads) {
    dropped += t.dropped;
    for (const Event& e : t.events) {
      ++events;
      switch (static_cast<EventKind>(e.kind)) {
        case EventKind::kCoordRoundTrip:
          ++coord;
          if (e.arg2 != 0) ++coord_implicit;
          coord_hist.add(e.arg0);
          break;
        case EventKind::kSafePointResponse:
          ++responses;
          break;
        case EventKind::kPsro:
          ++psros;
          break;
        case EventKind::kDeferredFlush:
          ++flushes;
          break;
        case EventKind::kOptConflict:
          ++opt_conf;
          if ((e.arg2 & kFlagExplicit) != 0) ++opt_conf_explicit;
          if ((e.arg2 & kFlagWentPess) != 0) ++to_pess;
          break;
        case EventKind::kPessAcquire:
          ++pess_acq;
          if ((e.arg2 & kFlagContended) != 0) ++pess_contended;
          break;
        case EventKind::kPessWait:
          wait_hist.add(e.arg0);
          break;
        case EventKind::kPolicyOptToPess:
          ++to_pess;
          break;
        case EventKind::kPolicyPessToOpt:
          ++to_opt;
          break;
        case EventKind::kRegionRestart:
          ++restarts;
          restart_hist.add(e.arg0);
          break;
        case EventKind::kDepEdge:
          ++edges;
          break;
        case EventKind::kLeaseExpired:
          ++lease_expiries;
          break;
        case EventKind::kQuarantine:
          ++quarantines;
          break;
        case EventKind::kSeizure:
          ++seizures;
          seizure_hist.add(e.arg0);
          break;
        case EventKind::kCoordBatch:
          ++coord_batches;
          coord_batch_objects += e.arg0;
          batch_hist.add(e.arg0);
          break;
        case EventKind::kCoordRequest:
          ++coord_requests;
          break;
        case EventKind::kCoordBatchDrain:
          ++batch_drains;
          break;
        case EventKind::kStateTransition:
          ++transitions;
          break;
        default:
          break;
      }
    }
  }

  // Per-class state-dwell residency (DESIGN.md §14).
  const StateDwell dwell = fold_state_dwell(snap);
  for (std::size_t c = 0; c < kResidencyCount; ++c) {
    std::string name = "ht_dwell_";
    for (const char* p = residency_name(static_cast<Residency>(c)); *p != 0;
         ++p) {
      name += static_cast<char>(
          *p >= 'A' && *p <= 'Z' ? *p - 'A' + 'a' : *p);
    }
    name += "_cycles_total";
    reg.counter(name, "cycles objects dwelt in this state class") =
        dwell.cycles[c];
  }
  return reg;
}

}  // namespace ht::telemetry

// fleetbench — the fleet benchmark: three workloads, four end-to-end
// metrics, and a same-input layer ladder (see README.md in this directory).
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out PATH] [--git-rev REV] [--reps N]
//
// The program is driven only through its public API. Inputs come from
// fleet::make_fleet_scenario (the load generator), which stays off every
// clock. Replay is a closed loop: one producer thread ingests as fast as the
// bounded kBlock queues allow, and no workload runs more than three threads
// (producer + two workers).
//
// --trace 0 replays the workload's input in whole rounds until --seconds have
// been measured and reports the end-to-end metrics (medians over rounds).
// --trace 1 runs the layer ladder once on the same input (RuleTable ->
// FiatProxy -> Shard -> FleetEngine shards=1/2 -> snapshots + journal ->
// ClusterEngine), reports the per-layer metrics, and writes the benchmark's
// own spans as Chrome-trace JSON to --trace-out.
//
// Every run checks its outputs against the generator's ground truth or a
// property the method must have, and prints as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. An operation is one
// home's stream taken to its verdicts in one round; it fails when the home
// lost items (shed, discarded, quarantined or black-holed). In
// cluster_campaign each round also takes one correlator verdict per home of
// the fixed reference input, and a benign home flagged there is a failed
// verdict (the known min_shared_sig_count fault, README.md).
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/humanness.hpp"
#include "core/proxy.hpp"
#include "core/report.hpp"
#include "core/rules.hpp"
#include "core/state_codec.hpp"
#include "fleet/cluster.hpp"
#include "fleet/correlator.hpp"
#include "fleet/engine.hpp"
#include "fleet/fleet_testbed.hpp"
#include "fleet/home.hpp"
#include "fleet/migration.hpp"
#include "fleet/placement.hpp"
#include "fleet/shard.hpp"
#include "gen/attack_types.hpp"
#include "sim/faults.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLEETBENCH_COMPILER
#define FLEETBENCH_COMPILER "unknown"
#endif

namespace {

using namespace fiat;
using Clock = std::chrono::steady_clock;
using fleet::FleetItem;
using fleet::HomeId;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Heap bytes in use across every malloc arena (small chunks + mmapped).
double heap_bytes() {
  struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks) + static_cast<double>(m.hblkhd);
}

// ---- workloads --------------------------------------------------------------

/// FleetScenarioConfig's default seed: the fixed input of the correlator
/// probe, so its known fault shows the same count in every run.
constexpr std::uint64_t kReferenceSeed = 20260806;
constexpr double kDurableSnapshotEvery = 600.0;   // sim-s, durable_long
constexpr double kClusterSnapshotEvery = 3600.0;  // sim-s, cluster_campaign
constexpr std::size_t kShards = 2;
constexpr std::size_t kSetupReps = 7;

enum class Kind { kSteady, kDurable, kCluster };

struct Workload {
  std::string name;
  Kind kind = Kind::kSteady;
  std::uint64_t seed = 0;
  fleet::FleetScenarioConfig scenario;
};

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  auto& sc = w.scenario;
  sc.seed = seed;
  sc.devices_per_home = 2;
  if (name == "fleet_steady") {
    w.kind = Kind::kSteady;
    sc.homes = 2000;
    sc.duration_days = 0.05;
  } else if (name == "durable_long") {
    w.kind = Kind::kDurable;
    sc.homes = 100;
    sc.duration_days = 0.8;
  } else if (name == "cluster_campaign") {
    w.kind = Kind::kCluster;
    sc.homes = 400;
    sc.duration_days = 0.2;
    sc.manual_per_day = 96.0;
    sc.attack.coverage = 0.1;
    sc.attack.sybil_fraction = 0.05;
    sc.attack.seed = seed ^ 0xF1A7;
    sc.churn.join_fraction = 0.1;
    sc.churn.rotate_every = 3600.0;
    sc.churn.revoke_fraction = 0.1;
  } else {
    return std::nullopt;
  }
  return w;
}

fleet::FleetConfig fleet_config(std::size_t shards, bool durable) {
  fleet::FleetConfig c;
  c.shards = shards;
  if (durable) {
    c.recovery.enabled = true;
    c.recovery.snapshot_every = kDurableSnapshotEvery;
    c.recovery.journal = true;
  }
  return c;
}

/// Two nodes, hourly snapshots with the journal on, four scripted live
/// migrations (an attacked, a revoked and a Sybil home where the input has
/// them, filled up with the lowest ids), and node 1 killed at 75% of the
/// trace with failover at the kill instant.
fleet::ClusterConfig cluster_config(const fleet::FleetScenario& s) {
  fleet::ClusterConfig c;
  c.nodes = 2;
  c.snapshot_every = kClusterSnapshotEvery;
  c.journal = true;
  std::vector<HomeId> movers;
  auto add = [&](HomeId h) {
    if (movers.size() < 4 &&
        std::find(movers.begin(), movers.end(), h) == movers.end()) {
      movers.push_back(h);
    }
  };
  if (!s.attack.attacked_homes.empty()) add(s.attack.attacked_homes.front());
  for (const auto& ht : s.churn.homes) {
    if (ht.revoked) {
      add(ht.home);
      break;
    }
  }
  if (!s.attack.sybil_homes.empty()) add(s.attack.sybil_homes.front());
  for (const auto& spec : s.homes) add(spec.id);
  const double t0 = s.items.front().ts;
  const double t1 = s.items.back().ts;
  fleet::PlacementTable table({0, 1});
  for (std::size_t i = 0; i < movers.size(); ++i) {
    const auto to = static_cast<fleet::NodeId>(
        (table.owner_of(movers[i]) + 1) % c.nodes);
    c.migrations.push_back(
        {movers[i], to, t0 + (0.3 + 0.1 * static_cast<double>(i)) * (t1 - t0)});
  }
  c.fault = sim::NodeFaultPlan::kill_at(1, t0 + 0.75 * (t1 - t0), 0.0);
  return c;
}

/// Homes on the killed node at the kill instant: natural owners plus the
/// scripted migrations (all of which precede the kill).
std::vector<HomeId> failover_victims(const fleet::FleetScenario& s,
                                     const fleet::ClusterConfig& c) {
  fleet::PlacementTable table({0, 1});
  std::map<HomeId, fleet::NodeId> moved;
  for (const auto& m : c.migrations) moved[m.home] = m.to;
  std::vector<HomeId> out;
  for (const auto& spec : s.homes) {
    auto it = moved.find(spec.id);
    fleet::NodeId owner =
        it != moved.end() ? it->second : table.owner_of(spec.id);
    if (owner == c.fault.node) out.push_back(spec.id);
  }
  return out;
}

// ---- checks and accounting ---------------------------------------------------

struct Checks {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (cond) return;
    if (failures < 20) {
      std::fprintf(stderr, "fleetbench: check failed: %s\n", what.c_str());
    }
    ++failures;
    ok = false;
  }
  std::size_t failures = 0;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One home's verdicts, reduced to a digest of its counters and rendered
/// security report.
struct HomeDigest {
  HomeId home = 0;
  std::uint64_t digest = 0;
  std::uint64_t verdicts = 0;  // packets allowed + dropped
};
using Digests = std::vector<HomeDigest>;  // sorted by home id

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

HomeDigest digest_of(HomeId home, const core::ProxyCounters& c,
                     const core::SecurityReport& report) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%u:%zu/%zu e%zu p%zu/%zu/%zu/%zu/%zu a%zu d%zu/%zu f%zu\n",
                home, c.packets_allowed, c.packets_dropped, c.events_closed,
                c.proofs_accepted, c.proofs_rejected_signature,
                c.proofs_rejected_nonhuman, c.proofs_late, c.proofs_duplicate,
                c.alerts, c.events_decided_degraded, c.degraded_allows,
                c.violations_forgiven);
  std::string text = line;
  text += report.render();
  return {home, fnv1a(text), c.packets_allowed + c.packets_dropped};
}

HomeDigest digest_of_proxy(HomeId home, core::FiatProxy& proxy) {
  proxy.flush_events();
  return digest_of(home, proxy.counters(), core::build_security_report(proxy));
}

Digests digests_of(const fleet::FleetReport& report) {
  Digests out;
  out.reserve(report.homes.size());
  for (const auto& h : report.homes) {
    out.push_back(digest_of(h.home, h.counters, h.report));
  }
  return out;
}

/// Per-home ground truth the generator knows without running the proxy.
struct Truth {
  std::vector<std::uint64_t> packets;  // by home index (ids are dense)
  std::vector<std::uint64_t> items;
  std::size_t homes = 0;
};

Truth truth_of(const fleet::FleetScenario& s) {
  Truth t;
  t.homes = s.homes.size();
  t.packets.assign(t.homes, 0);
  t.items.assign(t.homes, 0);
  for (const auto& item : s.items) {
    ++t.items[item.home];
    if (item.kind == FleetItem::Kind::kPacket) ++t.packets[item.home];
  }
  return t;
}

/// One round's per-home verdicts against the reference. A home whose
/// verdict count falls short of its generated packets lost items and is a
/// failed operation; every other home must match the reference digest.
void grade_homes(const char* rung, const Digests& reference,
                 const Digests& got, const Truth& truth,
                 std::uint64_t items_lost, Checks& checks, Tally& tally) {
  checks.expect(got.size() == truth.homes,
                std::string(rung) + ": one report per generated home");
  std::uint64_t failed = 0;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < got.size() && i < truth.homes; ++i) {
    ++tally.attempted;
    if (got[i].home != i || got[i].verdicts != truth.packets[i]) {
      ++failed;
      continue;
    }
    if (i >= reference.size() || reference[i].digest != got[i].digest) {
      ++mismatched;
    }
  }
  tally.failed += failed;
  checks.expect(mismatched == 0,
                std::string(rung) + ": " + std::to_string(mismatched) +
                    " homes' verdicts differ from the reference replay");
  checks.expect(items_lost == 0 || failed > 0,
                std::string(rung) + ": items lost but no home short of verdicts");
}

// ---- the benchmark's own spans ----------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : buffer_(enabled ? 65536 : 0), origin_(Clock::now()) {}

  void span(const char* name, const char* category, Clock::time_point a,
            Clock::time_point b, const char* track) {
    telemetry::TraceSpan* s = buffer_.begin_span();
    if (!s) return;
    s->name = name;
    s->category = category;
    s->start = secs(origin_, a);
    s->duration = secs(a, b);
    s->home = 0;
    s->track = track;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << telemetry::chrome_trace_json(buffer_.ordered()).dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  telemetry::TraceBuffer buffer_;
  Clock::time_point origin_;
};

// ---- replay helpers ----------------------------------------------------------

void apply(core::FiatProxy& proxy, const FleetItem& item) {
  switch (item.kind) {
    case FleetItem::Kind::kPacket:
      proxy.process(item.pkt, item.attack);
      break;
    case FleetItem::Kind::kProof:
      proxy.on_auth_payload(item.client_id, item.payload, item.ts, item.attack);
      break;
    case FleetItem::Kind::kLifecycle:
      proxy.on_lifecycle(item.client_id, item.lifecycle_cmd, item.ts);
      break;
  }
}

std::vector<core::FiatProxy> build_proxies(
    const fleet::FleetScenario& s, const core::HumannessVerifier& hv) {
  std::vector<core::FiatProxy> out;
  out.reserve(s.homes.size());
  for (const auto& spec : s.homes) {
    out.push_back(fleet::make_home_proxy(spec, hv));
  }
  return out;
}

Digests direct_digests(std::vector<core::FiatProxy>& proxies) {
  Digests out;
  out.reserve(proxies.size());
  for (std::size_t i = 0; i < proxies.size(); ++i) {
    out.push_back(digest_of_proxy(static_cast<HomeId>(i), proxies[i]));
  }
  return out;
}

/// Everything one engine replay yields; the fields a rung does not produce
/// stay at their defaults.
struct Replay {
  double train_s = 0.0;
  double build_s = 0.0;  // engine construction (every home's proxy) + start()
  double replay_s = 0.0;  // first ingest .. end of drain
  double ingest_busy_s = 0.0;
  double heap_kb_per_home = 0.0;
  double durable_kb_per_home = 0.0;
  double report_s = 0.0;
  double signals_s = 0.0;
  double correlate_s = 0.0;
  double export_s = 0.0;
  double encode_us_per_home = 0.0;
  double decode_us_per_home = 0.0;
  Digests digests;
  std::uint64_t items_lost = 0;
  fleet::FleetStats stats;
  telemetry::MetricsRegistry metrics;
  std::size_t benign_flagged = 0;  // correlator on this input (logged)
  double setup_s() const { return train_s + build_s; }
};

struct ReplayOptions {
  bool time_ingest = false;    // clock every ingest() call
  bool durable_size = false;   // mean encode_proxy_state size at the end
  bool codec_timing = false;   // time encode + decode of every home's state
  bool export_telemetry = false;
  /// When set and the engine is durable, run check_snapshots after drain.
  Checks* snapshot_checks = nullptr;
};

std::set<HomeId> adversarial_homes(const fleet::FleetScenario& s) {
  std::set<HomeId> out(s.attack.attacked_homes.begin(),
                       s.attack.attacked_homes.end());
  out.insert(s.attack.sybil_homes.begin(), s.attack.sybil_homes.end());
  for (const auto& ht : s.churn.homes) {
    if (ht.revoked) out.insert(ht.home);  // a stolen phone replays its proofs
  }
  return out;
}

std::size_t count_benign_flagged(const fleet::CorrelationReport& corr,
                                 const std::set<HomeId>& adversarial) {
  std::size_t n = 0;
  for (HomeId h : corr.flagged_home_ids()) {
    if (!adversarial.contains(h)) ++n;
  }
  return n;
}

/// Snapshot checks after a durable replay: every latest snapshot opens kOk
/// and round-trips encode -> decode -> encode byte-identically, and each
/// home's snapshot count equals the supervisor's documented cadence rule
/// (snapshot when item.ts - last_snapshot_ts >= every; t=0 counts as the
/// last) applied to that home's own item timestamps.
void check_snapshots(const fleet::FleetScenario& s,
                     const fleet::SnapshotStore& store,
                     std::uint64_t snapshots_taken, double every,
                     const core::HumannessVerifier& hv, Checks& checks) {
  std::vector<double> last(s.homes.size(), 0.0);
  std::vector<std::uint64_t> expected(s.homes.size(), 0);
  for (const auto& item : s.items) {
    if (item.ts - last[item.home] >= every) {
      ++expected[item.home];
      last[item.home] = item.ts;
    }
  }
  std::uint64_t expected_total = 0;
  std::size_t bad_count = 0, bad_open = 0, bad_roundtrip = 0;
  for (const auto& spec : s.homes) {
    expected_total += expected[spec.id];
    auto rec = store.latest(spec.id);
    if (!rec) {
      if (expected[spec.id] != 0) ++bad_count;
      continue;
    }
    if (rec->generation != expected[spec.id]) ++bad_count;
    if (core::open_state(rec->blob, core::StateKind::kProxy, spec.id).status !=
        core::CodecStatus::kOk) {
      ++bad_open;
      continue;
    }
    auto fresh = fleet::make_home_proxy(spec, hv);
    if (core::decode_proxy_state(fresh, rec->blob, spec.id) !=
            core::CodecStatus::kOk ||
        core::encode_proxy_state(fresh, spec.id) != rec->blob) {
      ++bad_roundtrip;
    }
  }
  checks.expect(bad_count == 0 && snapshots_taken == expected_total,
                "snapshot counts follow the cadence rule (" +
                    std::to_string(bad_count) + " homes off, " +
                    std::to_string(snapshots_taken) + " taken vs " +
                    std::to_string(expected_total) + " expected)");
  checks.expect(bad_open == 0, std::to_string(bad_open) +
                                   " latest snapshots fail to open kOk");
  checks.expect(bad_roundtrip == 0,
                std::to_string(bad_roundtrip) +
                    " snapshots fail encode -> decode -> encode identity");
}

std::uint64_t counter_value(const telemetry::MetricsRegistry& m,
                            const char* name) {
  const auto* c = m.find_counter(name);
  return c ? c->value() : 0;
}

template <typename Engine>
void ingest_all(Engine& engine, const fleet::FleetScenario& s,
                const ReplayOptions& opt, Replay& r, Tracer& tracer) {
  if (!opt.time_ingest) {
    for (const auto& item : s.items) engine.ingest(item);
    return;
  }
  double busy = 0.0;
  std::size_t n = 0;
  for (const auto& item : s.items) {
    auto a = Clock::now();
    engine.ingest(item);
    auto b = Clock::now();
    busy += secs(a, b);
    if ((++n & 4095) == 0) {
      tracer.span("ingest", "fleet.engine", a, b, "producer");
    }
  }
  r.ingest_busy_s = busy;
}

/// Report, signals and correlation after a drain (timed, off the replay
/// clock), merged telemetry, and the per-home digests. Returns the report.
template <typename Engine>
fleet::FleetReport finish_replay(Engine& engine, const fleet::FleetScenario& s,
                                 const ReplayOptions& opt, Replay& r,
                                 Tracer& tracer, const char* track) {
  r.stats = engine.stats();
  auto t0 = Clock::now();
  auto report = engine.report();
  auto t1 = Clock::now();
  auto signals = engine.signals();
  auto t2 = Clock::now();
  auto corr = fleet::correlate(signals);
  auto t3 = Clock::now();
  r.report_s = secs(t0, t1);
  r.signals_s = secs(t1, t2);
  r.correlate_s = secs(t2, t3);
  tracer.span("report", "report", t0, t1, track);
  tracer.span("signals", "report", t1, t2, track);
  tracer.span("correlate", "report", t2, t3, track);
  r.benign_flagged = count_benign_flagged(corr, adversarial_homes(s));
  r.metrics = engine.merged_metrics();
  if (opt.export_telemetry) {
    auto e0 = Clock::now();
    const std::string metrics_text =
        telemetry::metrics_json(r.metrics, true).dump();
    const std::string trace_text =
        telemetry::chrome_trace_json(engine.merged_trace()).dump();
    auto e1 = Clock::now();
    r.export_s = secs(e0, e1);
    tracer.span("export", "telemetry", e0, e1, track);
  }
  r.digests = digests_of(report);
  return report;
}

/// One FleetEngine round: set up (train + construct + start), ingest the
/// whole input, drain, then measure heap and build the report.
Replay replay_fleet(const Workload& w, const fleet::FleetScenario& s,
                    const fleet::FleetConfig& config, const ReplayOptions& opt,
                    Tracer& tracer, const char* track) {
  Replay r;
  const double heap0 = heap_bytes();
  auto t0 = Clock::now();
  auto hv = core::HumannessVerifier::train_synthetic(w.seed);
  auto t1 = Clock::now();
  fleet::FleetEngine engine(s.homes, hv, config);
  engine.start();
  auto t2 = Clock::now();
  ingest_all(engine, s, opt, r, tracer);
  auto t3 = Clock::now();
  engine.drain();
  auto t4 = Clock::now();
  r.heap_kb_per_home = (heap_bytes() - heap0) / 1024.0 /
                       static_cast<double>(s.homes.size());
  r.train_s = secs(t0, t1);
  r.build_s = secs(t1, t2);
  r.replay_s = secs(t2, t4);
  tracer.span("setup", "setup", t0, t2, track);
  tracer.span("ingest", "fleet.engine", t2, t3, track);
  tracer.span("drain", "fleet.engine", t3, t4, track);
  if (opt.durable_size || opt.codec_timing) {
    double bytes = 0.0, encode_s = 0.0, decode_s = 0.0;
    std::size_t undecodable = 0;
    for (std::size_t i = 0; i < engine.shard_count(); ++i) {
      for (const auto& home : engine.shard(i).homes()) {
        auto a = Clock::now();
        util::Bytes blob = core::encode_proxy_state(home.proxy(), home.id());
        auto b = Clock::now();
        encode_s += secs(a, b);
        bytes += static_cast<double>(blob.size());
        if (!opt.codec_timing) continue;
        auto fresh = fleet::make_home_proxy(s.homes[home.id()], hv);
        auto c = Clock::now();
        if (core::decode_proxy_state(fresh, blob, home.id()) !=
            core::CodecStatus::kOk) {
          ++undecodable;
        }
        decode_s += secs(c, Clock::now());
      }
    }
    const double homes = static_cast<double>(s.homes.size());
    r.durable_kb_per_home = bytes / 1024.0 / homes;
    r.encode_us_per_home = encode_s * 1e6 / homes;
    r.decode_us_per_home = decode_s * 1e6 / homes;
    if (opt.snapshot_checks) {
      opt.snapshot_checks->expect(undecodable == 0,
                                  std::to_string(undecodable) +
                                      " home states fail to decode kOk");
    }
  }
  if (opt.snapshot_checks && engine.supervisor()) {
    const auto taken =
        counter_value(engine.merged_metrics(), "fleet.snapshots_taken");
    check_snapshots(s, engine.supervisor()->store(), taken,
                    config.recovery.snapshot_every, hv, *opt.snapshot_checks);
  }
  finish_replay(engine, s, opt, r, tracer, track);
  r.items_lost = r.stats.shed + r.stats.shed_on_close + r.stats.discarded +
                 r.stats.quarantined;
  return r;
}

/// Command classes DESIGN.md §13.6 requires blocked at 100% (piggyback rides
/// a genuine interaction and is exempt; Sybil homes send no commands).
bool must_block(gen::AttackType t) {
  switch (t) {
    case gen::AttackType::kAccountCompromise:
    case gen::AttackType::kBruteForce:
    case gen::AttackType::kLanInjection:
    case gen::AttackType::kRuleMimicry:
    case gen::AttackType::kBucketMimicry:
    case gen::AttackType::kPaddingEvasion:
    case gen::AttackType::kProofReplay:
      return true;
    default:
      return false;
  }
}

/// Campaign and churn checks on a cluster replay, against the generator's
/// AttackTruth and ChurnTruth.
void check_campaign(const fleet::FleetScenario& s,
                    const fleet::FleetReport& report,
                    fleet::ClusterEngine& engine, Checks& checks) {
  const core::AttackLedger& ledger = report.attack;
  const auto& truth = s.attack;
  bool by_class = true;
  for (std::size_t c = 0; c < truth.packets_by_class.size(); ++c) {
    by_class =
        by_class && ledger.by_class[c].packets == truth.packets_by_class[c];
  }
  checks.expect(ledger.injected() == truth.packets &&
                    ledger.proofs_injected() == truth.proofs && by_class,
                "merged AttackLedger equals AttackTruth (" +
                    std::to_string(ledger.injected()) + "/" +
                    std::to_string(truth.packets) + " packets, " +
                    std::to_string(ledger.proofs_injected()) + "/" +
                    std::to_string(truth.proofs) + " proofs)");
  // A command whose payload lands within human_validity_window of a
  // genuine proof from the home's phone rides a real interaction (the §7
  // piggyback residual, by coincidence at 96 interactions/device/day); every
  // other command of a must-block class must be blocked.
  std::map<HomeId, std::vector<double>> benign_proofs;
  std::map<std::int32_t, std::pair<double, double>> payload_span;
  for (const auto& item : s.items) {
    if (item.kind == FleetItem::Kind::kProof && item.attack.benign()) {
      benign_proofs[item.home].push_back(item.ts);
    } else if (item.attack.payload) {
      auto [it, fresh] =
          payload_span.try_emplace(item.attack.cmd, item.ts, item.ts);
      if (!fresh) it->second.second = item.ts;
    }
  }
  auto covered = [&](const fleet::AttackCommandTruth& cmd) {
    auto span = payload_span.find(cmd.cmd);
    auto proofs = benign_proofs.find(cmd.home);
    if (span == payload_span.end() || proofs == benign_proofs.end()) return false;
    const double window = s.homes[cmd.home].proxy.human_validity_window;
    auto it = std::lower_bound(proofs->second.begin(), proofs->second.end(),
                               span->second.first - window);
    return it != proofs->second.end() && *it <= span->second.second;
  };
  std::size_t unmatched = 0, unblocked = 0, riding = 0;
  for (const auto& cmd : truth.commands) {
    auto it = ledger.commands.find(cmd.cmd);
    if (it == ledger.commands.end() ||
        it->second.cls != static_cast<std::int16_t>(cmd.type) ||
        it->second.payload_seen != cmd.payload_packets) {
      ++unmatched;
      continue;
    }
    if (!must_block(cmd.type) || it->second.payload_dropped > 0) continue;
    if (covered(cmd)) {
      ++riding;
    } else {
      ++unblocked;
      std::fprintf(stderr, "fleetbench: %s command %d at home %u completed\n",
                   gen::attack_name(cmd.type), cmd.cmd, cmd.home);
    }
  }
  if (riding > 0) {
    std::fprintf(stderr,
                 "fleetbench: %zu must-block commands completed on a genuine "
                 "proof inside the validity window\n",
                 riding);
  }
  checks.expect(unmatched == 0 && ledger.commands.size() == truth.commands.size(),
                std::to_string(unmatched) + " campaign commands missing from "
                                            "the ledger or mislabeled");
  checks.expect(unblocked == 0, std::to_string(unblocked) +
                                    " commands of must-block classes completed");

  // Churn: the surviving nodes hold every home after the failover.
  std::map<HomeId, const core::FiatProxy*> proxies;
  std::set<fleet::NodeId> dead;
  for (const auto& f : engine.failovers()) dead.insert(f.node);
  for (std::size_t n = 0; n < engine.node_count(); ++n) {
    if (dead.contains(static_cast<fleet::NodeId>(n))) continue;
    for (auto& [id, home] : engine.node(n).homes()) proxies[id] = &home.proxy();
  }
  // A benign proof may still fail the humanness tree (its false-negative
  // rate, independent of credentials); every other rejection of a benign
  // proof would be a credential-path lockout.
  const std::set<HomeId> attacked(s.attack.attacked_homes.begin(),
                                  s.attack.attacked_homes.end());
  std::size_t lockouts = 0, late_accepts = 0, missing = 0;
  std::uint64_t nonhuman = 0, benign_total = 0;
  const auto revoked_idx =
      static_cast<std::size_t>(gen::AttackType::kRevokedCredential);
  for (const auto& ht : s.churn.homes) {
    auto p = proxies.find(ht.home);
    if (p == proxies.end() || ht.home >= report.homes.size()) {
      ++missing;
      continue;
    }
    const core::FiatProxy& proxy = *p->second;
    const auto& c = report.homes[ht.home].counters;
    const auto& hl = report.homes[ht.home].report.attack;
    std::uint64_t attack_accepted = 0;
    for (const auto& t : hl.by_class) {
      attack_accepted += t.proofs - t.proofs_rejected;
    }
    const std::uint64_t benign_accepted = c.proofs_accepted - attack_accepted;
    const std::uint64_t post_window =
        ht.revoked ? ht.probes - ht.probes_in_window : 0;
    const std::uint64_t shortfall = ht.benign_proofs > benign_accepted
                                        ? ht.benign_proofs - benign_accepted
                                        : 0;
    nonhuman += shortfall;
    benign_total += ht.benign_proofs;
    if (benign_accepted > ht.benign_proofs ||
        shortfall > c.proofs_rejected_nonhuman ||
        proxy.proofs_rejected_lifecycle() != post_window ||
        (!attacked.contains(ht.home) &&
         (c.proofs_rejected_signature != 0 || c.proofs_late != 0 ||
          c.proofs_duplicate != 0))) {
      ++lockouts;
    }
    // Revoked: every probe at or after effective_ts dies on the lifecycle
    // path (count above), the first such reject is not early, and accepted
    // probes never exceed the ones inside the window.
    const auto& rc = hl.by_class[revoked_idx];
    bool ok = rc.proofs == ht.probes &&
              rc.proofs - rc.proofs_rejected <= ht.probes_in_window;
    if (ht.revoked && post_window > 0) {
      auto it = proxy.first_lifecycle_reject_ts().find("phone");
      ok = ok && it != proxy.first_lifecycle_reject_ts().end() &&
           it->second >= ht.effective_ts;
    }
    if (!ok) ++late_accepts;
  }
  checks.expect(missing == 0, std::to_string(missing) +
                                  " churn homes missing from the live nodes");
  checks.expect(lockouts == 0,
                std::to_string(lockouts) +
                    " churn homes rejected a benign proof on the credential "
                    "path");
  checks.expect(late_accepts == 0,
                std::to_string(late_accepts) +
                    " revoked homes accepted a probe at or after effective_ts");
  if (nonhuman > 0) {
    std::fprintf(stderr,
                 "fleetbench: %llu of %llu benign churn-home proofs failed "
                 "the humanness tree\n",
                 static_cast<unsigned long long>(nonhuman),
                 static_cast<unsigned long long>(benign_total));
  }
  const auto stats = engine.stats();
  checks.expect(stats.lifecycle_enrolled == s.churn.enrollments &&
                    stats.lifecycle_rotated == s.churn.rotations &&
                    stats.lifecycle_revoked == s.churn.revocations,
                "lifecycle totals equal ChurnTruth");
  checks.expect(engine.items_black_holed() == 0, "zero items black-holed");
}

Replay replay_cluster(const Workload& w, const fleet::FleetScenario& s,
                      const fleet::ClusterConfig& config,
                      const ReplayOptions& opt, Tracer& tracer,
                      const char* track, Checks& checks,
                      std::optional<double>* restore_s = nullptr) {
  Replay r;
  const double heap0 = heap_bytes();
  auto t0 = Clock::now();
  auto hv = core::HumannessVerifier::train_synthetic(w.seed);
  auto t1 = Clock::now();
  fleet::ClusterEngine engine(s.homes, hv, config);
  engine.start();
  auto t2 = Clock::now();
  ingest_all(engine, s, opt, r, tracer);
  auto t3 = Clock::now();
  engine.drain();
  auto t4 = Clock::now();
  r.heap_kb_per_home = (heap_bytes() - heap0) / 1024.0 /
                       static_cast<double>(s.homes.size());
  r.train_s = secs(t0, t1);
  r.build_s = secs(t1, t2);
  r.replay_s = secs(t2, t4);
  tracer.span("setup", "setup", t0, t2, track);
  tracer.span("ingest", "fleet.cluster", t2, t3, track);
  tracer.span("drain", "fleet.cluster", t3, t4, track);
  std::set<fleet::NodeId> dead;
  for (const auto& f : engine.failovers()) dead.insert(f.node);
  if (opt.durable_size) {
    double bytes = 0.0;
    for (std::size_t n = 0; n < engine.node_count(); ++n) {
      if (dead.contains(static_cast<fleet::NodeId>(n))) continue;
      for (const auto& [id, home] : engine.node(n).homes()) {
        bytes += static_cast<double>(
            core::encode_proxy_state(home.proxy(), id).size());
      }
    }
    r.durable_kb_per_home = bytes / 1024.0 / static_cast<double>(s.homes.size());
  }
  const auto victims = failover_victims(s, config);
  checks.expect(engine.migrations().size() == config.migrations.size(),
                "every scripted migration ran");
  checks.expect(engine.failovers().size() == 1 &&
                    engine.failovers().front().homes_replaced == victims.size(),
                "one failover re-placed the killed node's homes");
  if (restore_s) {
    // The failover restore path, re-run off the durable stores at the end
    // of the trace: every victim restores and loses nothing.
    Truth truth = truth_of(s);
    std::size_t lossy = 0;
    auto a = Clock::now();
    for (HomeId id : victims) {
      fleet::Home home(s.homes[id], hv);
      fleet::RestoreOptions ro;
      ro.expected_ordinal = truth.items[id];
      ro.now = s.items.back().ts;
      ro.revocations = &engine.revocations();
      auto out = fleet::restore_home(home, s.homes[id], hv, engine.snapshots(),
                                     engine.journal(), ro);
      if (out.lost_items != 0) ++lossy;
    }
    auto b = Clock::now();
    *restore_s = secs(a, b);
    tracer.span("restore", "fleet.cluster", a, b, track);
    checks.expect(lossy == 0, std::to_string(lossy) +
                                  " failed-over homes restore lossy at end");
  }
  const auto report = finish_replay(engine, s, opt, r, tracer, track);
  check_campaign(s, report, engine, checks);
  r.items_lost = r.stats.shed + r.stats.shed_on_close + r.stats.discarded +
                 engine.items_black_holed();
  return r;
}

/// Setup only (train + construct + start), then an empty drain.
double setup_once(const Workload& w, const fleet::FleetScenario& s,
                  double* train_s = nullptr, double* build_s = nullptr) {
  auto t0 = Clock::now();
  auto hv = core::HumannessVerifier::train_synthetic(w.seed);
  auto t1 = Clock::now();
  double total = 0.0;
  if (w.kind == Kind::kCluster) {
    fleet::ClusterEngine engine(s.homes, hv, cluster_config(s));
    engine.start();
    auto t2 = Clock::now();
    total = secs(t0, t2);
    if (build_s) *build_s = secs(t1, t2);
    engine.drain();
  } else {
    fleet::FleetEngine engine(s.homes, hv,
                              fleet_config(kShards, w.kind == Kind::kDurable));
    engine.start();
    auto t2 = Clock::now();
    total = secs(t0, t2);
    if (build_s) *build_s = secs(t1, t2);
    engine.drain();
  }
  if (train_s) *train_s = secs(t0, t1);
  return total;
}

// ---- correlator probe (the known fault, on a fixed input) -----------------

/// Signals of the cluster_campaign input at kReferenceSeed, replayed once
/// through FleetEngine (signals are placement-independent). Each round takes
/// one correlator verdict per home of this fixed input.
struct CorrelatorProbe {
  telemetry::SignalSet signals;
  std::set<HomeId> adversarial;
  std::size_t homes = 0;
};

CorrelatorProbe make_correlator_probe(const Workload& w,
                                      const fleet::FleetScenario* seeded) {
  auto ref = *make_workload(w.name, kReferenceSeed);
  std::optional<fleet::FleetScenario> own;
  const fleet::FleetScenario* s = seeded;
  if (w.seed != kReferenceSeed) {
    own = fleet::make_fleet_scenario(ref.scenario);
    s = &*own;
  }
  auto hv = core::HumannessVerifier::train_synthetic(kReferenceSeed);
  fleet::FleetEngine engine(s->homes, hv, fleet_config(kShards, false));
  engine.start();
  for (const auto& item : s->items) engine.ingest(item);
  engine.drain();
  CorrelatorProbe p;
  p.signals = engine.signals();
  p.adversarial = adversarial_homes(*s);
  p.homes = s->homes.size();
  return p;
}

void correlator_round(const CorrelatorProbe& probe, Tally& tally) {
  auto corr = fleet::correlate(probe.signals);
  tally.attempted += probe.homes;
  tally.failed += count_benign_flagged(corr, probe.adversarial);
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  std::string git_rev = "unknown";
  int reps = 1;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") { a.seed = std::stoull(v); have_seed = true; }
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--trace-out") a.trace_out = v;
      else if (k == "--git-rev") a.git_rev = v;
      else if (k == "--reps") a.reps = std::stoi(v);
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || !have_seed || a.seconds <= 0.0 ||
      (a.trace != 0 && a.trace != 1) || a.reps < 1) {
    return std::nullopt;
  }
  if (a.trace_out.empty()) {
    a.trace_out = "fleetbench-trace-" + a.workload + ".json";
  }
  return a;
}

// ---- --trace 0: rounds ------------------------------------------------------

int run_rounds(const Args& args, const Workload& w,
               const fleet::FleetScenario& s) {
  Checks checks;
  Tally tally;
  Tracer tracer(false);
  const Truth truth = truth_of(s);

  // Reference verdicts, off the clock.
  Digests reference;
  std::optional<CorrelatorProbe> probe;
  {
    auto hv = core::HumannessVerifier::train_synthetic(w.seed);
    if (w.kind == Kind::kSteady) {
      // Single-thread direct replay: verdicts must not depend on shards.
      auto proxies = build_proxies(s, hv);
      for (const auto& item : s.items) apply(proxies[item.home], item);
      reference = direct_digests(proxies);
    } else {
      // Durability off (durable_long) / no migration or kill (cluster).
      Replay base = replay_fleet(w, s, fleet_config(kShards, false), {},
                                 tracer, "reference");
      reference = std::move(base.digests);
    }
  }
  if (w.kind == Kind::kCluster) probe = make_correlator_probe(w, &s);

  std::vector<double> ips, setup, heap;
  double durable_kb = 0.0;
  std::size_t seeded_benign_flagged = 0;
  const auto start = Clock::now();
  do {
    ReplayOptions opt;
    opt.durable_size = ips.empty();
    opt.snapshot_checks = &checks;
    Replay r;
    if (w.kind == Kind::kCluster) {
      r = replay_cluster(w, s, cluster_config(s), opt, tracer, "round", checks);
    } else {
      r = replay_fleet(w, s, fleet_config(kShards, w.kind == Kind::kDurable),
                       opt, tracer, "round");
    }
    checks.expect(r.stats.packets_out == s.packet_count &&
                      r.stats.proofs_out == s.proof_count,
                  "every generated item processed");
    grade_homes(w.name.c_str(), reference, r.digests, truth, r.items_lost,
                checks, tally);
    if (probe) correlator_round(*probe, tally);
    if (opt.durable_size) durable_kb = r.durable_kb_per_home;
    seeded_benign_flagged = r.benign_flagged;
    ips.push_back(static_cast<double>(s.items.size()) / r.replay_s);
    setup.push_back(r.setup_s());
    heap.push_back(r.heap_kb_per_home);
  } while (secs(start, Clock::now()) < args.seconds);
  while (setup.size() < kSetupReps) setup.push_back(setup_once(w, s));

  std::string per_round;
  for (double v : ips) per_round += " " + std::to_string(static_cast<long>(v));
  std::fprintf(stderr,
               "fleetbench: %s seed %llu: %zu rounds of %zu items over %zu "
               "homes (items/s:%s); correlator flags %zu benign homes on this "
               "input\n",
               w.name.c_str(), static_cast<unsigned long long>(w.seed),
               ips.size(), s.items.size(), s.homes.size(), per_round.c_str(),
               seeded_benign_flagged);
  print_result(checks.ok, tally,
               {{"items_per_s", median(ips), "items/s"},
                {"setup_s", median(setup), "s"},
                {"heap_kb_per_home", median(heap), "KiB"},
                {"durable_kb_per_home", durable_kb, "KiB"}});
  return 0;
}

// ---- --trace 1: the layer ladder --------------------------------------------

/// RuleTable::match_and_learn per packet, on the workload's own packets: one
/// table per device (the home's rule config), learning through the home's
/// bootstrap window; only the post-bootstrap match_and_learn calls are timed.
double rules_match_ns(const fleet::FleetScenario& s, Tracer& tracer) {
  std::vector<core::RuleTable> tables;
  std::vector<std::vector<std::pair<net::Ipv4Addr, std::uint32_t>>> devices(
      s.homes.size());
  for (const auto& spec : s.homes) {
    for (const auto& dev : spec.devices) {
      devices[spec.id].push_back(
          {dev.ip, static_cast<std::uint32_t>(tables.size())});
      tables.emplace_back(dev.ip, spec.proxy.rules);
    }
  }
  std::vector<double> first(s.homes.size(), -1.0);
  std::vector<std::pair<std::uint32_t, const net::PacketRecord*>> probes;
  for (const auto& item : s.items) {
    if (item.kind != FleetItem::Kind::kPacket) continue;
    const net::PacketRecord& pkt = item.pkt;
    for (const auto& [ip, table] : devices[item.home]) {
      if (pkt.src_ip != ip && pkt.dst_ip != ip) continue;
      double& start = first[item.home];
      if (start < 0.0) start = pkt.ts;
      if (pkt.ts - start < s.homes[item.home].proxy.bootstrap_duration) {
        tables[table].learn(pkt);
      } else {
        probes.emplace_back(table, &pkt);
      }
      break;
    }
  }
  std::size_t hits = 0;
  auto a = Clock::now();
  for (const auto& [table, pkt] : probes) {
    hits += tables[table].match_and_learn(*pkt);
  }
  auto b = Clock::now();
  tracer.span("match_and_learn", "core.rules", a, b, "rules");
  std::fprintf(stderr, "fleetbench: rules: %zu probes, %zu hits\n", probes.size(),
               hits);
  return probes.empty()
             ? 0.0
             : secs(a, b) * 1e9 / static_cast<double>(probes.size());
}

/// Per-call cost of the proxy's three item kinds in a direct single-thread
/// replay. An input without lifecycle items (fleet_steady, durable_long)
/// times one revocation of each home's phone after the replay instead.
void proxy_call_ns(const fleet::FleetScenario& s,
                   const core::HumannessVerifier& hv, Tracer& tracer,
                   double out[3]) {
  auto proxies = build_proxies(s, hv);
  double total[3] = {0.0, 0.0, 0.0};
  std::size_t count[3] = {0, 0, 0};
  for (const auto& item : s.items) {
    const auto k = static_cast<std::size_t>(item.kind);
    auto a = Clock::now();
    apply(proxies[item.home], item);
    auto b = Clock::now();
    total[k] += secs(a, b);
    if ((++count[k] & 4095) == 0) {
      tracer.span("process", "core.proxy", a, b, "proxy");
    }
  }
  if (count[2] == 0) {
    const double end = s.items.back().ts;
    crypto::LifecycleCommand revoke;
    revoke.op = crypto::LifecycleCommand::Op::kRevoke;
    revoke.effective_ts = end + 30.0;
    for (const auto& spec : s.homes) {
      for (const auto& phone : spec.phones) {
        auto a = Clock::now();
        proxies[spec.id].on_lifecycle(phone.client_id, revoke, end);
        total[2] += secs(a, Clock::now());
        ++count[2];
      }
    }
  }
  for (int k = 0; k < 3; ++k) {
    out[k] = count[k] ? total[k] * 1e9 / static_cast<double>(count[k]) : 0.0;
  }
}

/// Shard with no queue: the worker's own batch (or, with batch off, scalar)
/// path fed synchronously in router-sized slices of the merged stream.
Digests replay_shard(const fleet::FleetScenario& s,
                     const core::HumannessVerifier& hv, bool batch,
                     double& seconds, Tracer& tracer) {
  std::vector<fleet::Home> homes;
  homes.reserve(s.homes.size());
  for (const auto& spec : s.homes) homes.emplace_back(spec, hv);
  fleet::Shard shard(std::move(homes), fleet::FleetConfig{}.queue_capacity,
                     fleet::FullPolicy::kBlock);
  const std::size_t slice = fleet::FleetConfig{}.ingest_batch;
  std::span<const FleetItem> items(s.items);
  auto a = Clock::now();
  if (batch) {
    for (std::size_t i = 0; i < items.size(); i += slice) {
      shard.process_batch(items.subspan(i, std::min(slice, items.size() - i)));
    }
  } else {
    for (const auto& item : items) shard.process(item);
  }
  auto b = Clock::now();
  seconds = secs(a, b);
  tracer.span(batch ? "process_batch" : "process", "fleet.shard", a, b, "shard");
  Digests out;
  for (auto& home : shard.homes()) {
    out.push_back(digest_of_proxy(home.id(), home.proxy()));
  }
  return out;
}

double quantile(const telemetry::MetricsRegistry& m, const char* name,
                double q) {
  const auto* h = m.find_histogram(name);
  return h ? h->quantile(q) : 0.0;
}

int run_ladder(const Args& args, const Workload& w,
               const fleet::FleetScenario& s) {
  Checks checks;
  Tally tally;
  Tracer tracer(true);
  const Truth truth = truth_of(s);
  const double items = static_cast<double>(s.items.size());
  std::optional<CorrelatorProbe> probe;
  if (w.kind == Kind::kCluster) probe = make_correlator_probe(w, &s);

  std::map<std::string, std::pair<std::vector<double>, std::string>> samples;
  auto add = [&](const std::string& name, double value, const char* unit) {
    auto& slot = samples[name];
    slot.first.push_back(value);
    slot.second = unit;
  };
  Digests reference;
  // Each rung that produces verdicts is one round: every home graded against
  // the direct single-thread replay (plus the correlator probe).
  auto round = [&](const char* rung, const Digests& got, std::uint64_t lost) {
    grade_homes(rung, reference, got, truth, lost, checks, tally);
    if (probe) correlator_round(*probe, tally);
  };

  for (std::size_t i = 0; i < kSetupReps; ++i) {
    double train = 0.0, build = 0.0;
    setup_once(w, s, &train, &build);
    add("setup.train_s", train, "s");
    add("setup.build_s", build, "s");
  }
  const auto hv = core::HumannessVerifier::train_synthetic(w.seed);
  for (int rep = 0; rep < args.reps; ++rep) {
    add("rules.match_ns", rules_match_ns(s, tracer), "ns");
    {
      auto proxies = build_proxies(s, hv);
      auto a = Clock::now();
      for (const auto& item : s.items) apply(proxies[item.home], item);
      auto b = Clock::now();
      tracer.span("replay", "core.proxy", a, b, "proxy");
      add("proxy.items_per_s", items / secs(a, b), "items/s");
      Digests direct = direct_digests(proxies);
      if (reference.empty()) reference = direct;
      round("proxy", direct, 0);
    }
    double ns[3];
    proxy_call_ns(s, hv, tracer, ns);
    add("proxy.packet_ns", ns[0], "ns");
    add("proxy.proof_ns", ns[1], "ns");
    add("proxy.lifecycle_ns", ns[2], "ns");
    for (bool batch : {true, false}) {
      double seconds = 0.0;
      Digests d = replay_shard(s, hv, batch, seconds, tracer);
      add(batch ? "shard.items_per_s" : "shard.scalar_items_per_s",
          items / seconds, "items/s");
      round(batch ? "shard" : "shard.scalar", d, 0);
    }

    Replay e1 = replay_fleet(w, s, fleet_config(1, false), {}, tracer, "engine1");
    add("engine1.items_per_s", items / e1.replay_s, "items/s");
    round("engine1", e1.digests, e1.items_lost);
    auto scalar = fleet_config(1, false);
    scalar.batch = false;
    Replay e1s = replay_fleet(w, s, scalar, {}, tracer, "engine1.scalar");
    add("engine1.scalar_items_per_s", items / e1s.replay_s, "items/s");
    round("engine1.scalar", e1s.digests, e1s.items_lost);

    ReplayOptions with_export;
    with_export.export_telemetry = true;
    Replay e2 = replay_fleet(w, s, fleet_config(kShards, false), with_export,
                             tracer, "engine2");
    add("engine2.items_per_s", items / e2.replay_s, "items/s");
    double busy = 0.0, util = 0.0, high_water = 0.0;
    for (std::size_t i = 0; i < e2.stats.shards.size(); ++i) {
      busy += e2.stats.shards[i].busy_seconds;
      util += e2.stats.utilization(i);
      high_water = std::max(
          high_water, static_cast<double>(e2.stats.shards[i].queue_high_water));
    }
    add("engine.shard_busy_s", busy, "s");
    add("engine.shard_util", util / static_cast<double>(e2.stats.shards.size()),
        "ratio");
    add("engine.queue_high_water", high_water, "items");
    add("engine.queue_wait_p50_s",
        quantile(e2.metrics, "fleet.queue_wait_seconds", 0.5), "s");
    add("engine.queue_wait_p99_s",
        quantile(e2.metrics, "fleet.queue_wait_seconds", 0.99), "s");
    add("shard.batch_items_p50", quantile(e2.metrics, "fleet.batch_items", 0.5),
        "items");
    add("report.report_s", e2.report_s, "s");
    add("report.signals_s", e2.signals_s, "s");
    add("report.correlate_s", e2.correlate_s, "s");
    add("telemetry.export_s", e2.export_s, "s");
    round("engine2", e2.digests, e2.items_lost);

    // The producer's time inside ingest(), clocked per call; the slowdown
    // against the untimed engine2 rung is the traced run's own overhead.
    ReplayOptions timed;
    timed.time_ingest = true;
    Replay e2t = replay_fleet(w, s, fleet_config(kShards, false), timed, tracer,
                              "engine2.timed");
    add("engine.ingest_busy_s", e2t.ingest_busy_s, "s");
    add("trace.overhead_pct", 100.0 * (e2t.replay_s / e2.replay_s - 1.0), "%");
    round("engine2.timed", e2t.digests, e2t.items_lost);

    auto off = fleet_config(kShards, false);
    off.trace_capacity = 0;
    Replay e0 = replay_fleet(w, s, off, {}, tracer, "engine2.trace_off");
    add("engine.trace_off_items_per_s", items / e0.replay_s, "items/s");
    round("engine2.trace_off", e0.digests, e0.items_lost);

    ReplayOptions durable;
    durable.codec_timing = true;
    durable.snapshot_checks = &checks;
    Replay d = replay_fleet(w, s, fleet_config(kShards, true), durable, tracer,
                            "durable");
    add("durable.items_per_s", items / d.replay_s, "items/s");
    add("supervisor.snapshots",
        static_cast<double>(counter_value(d.metrics, "fleet.snapshots_taken")),
        "count");
    const auto* snap = d.metrics.find_histogram("fleet.snapshot_bytes");
    add("supervisor.snapshot_mb_written", snap ? snap->sum() / 1e6 : 0.0, "MB");
    add("supervisor.snapshot_kb_max", snap ? snap->max() / 1024.0 : 0.0, "KiB");
    const auto* snap_s = d.metrics.find_histogram("fleet.snapshot_seconds");
    add("supervisor.snapshot_s", snap_s ? snap_s->sum() : 0.0, "s");
    add("codec.encode_us_per_home", d.encode_us_per_home, "us");
    add("codec.decode_us_per_home", d.decode_us_per_home, "us");
    round("durable", d.digests, d.items_lost);

    std::optional<double> restore_s;
    Replay c = replay_cluster(w, s, cluster_config(s), {}, tracer, "cluster",
                              checks, &restore_s);
    add("cluster.items_per_s", items / c.replay_s, "items/s");
    add("cluster.migrations",
        static_cast<double>(counter_value(c.metrics, "fleet.cluster.migrations")),
        "count");
    add("cluster.handoff_s_p50",
        quantile(c.metrics, "fleet.cluster.handoff_seconds", 0.5), "s");
    add("cluster.failover_homes",
        static_cast<double>(
            counter_value(c.metrics, "fleet.cluster.homes_replaced")),
        "count");
    add("cluster.restore_s", restore_s.value_or(0.0), "s");
    const auto* csnap = c.metrics.find_histogram("fleet.cluster.snapshot_bytes");
    add("cluster.snapshot_mb_written", csnap ? csnap->sum() / 1e6 : 0.0, "MB");
    round("cluster", c.digests, c.items_lost);
  }

  checks.expect(tracer.write(args.trace_out),
                "trace written to " + args.trace_out);
  std::vector<Metric> metrics;
  for (const auto& [name, slot] : samples) {
    metrics.push_back({name, median(slot.first), slot.second});
  }
  auto value = [&](const char* name) { return median(samples[name].first); };
  std::fprintf(stderr,
               "fleetbench: %s seed %llu ladder (items/s, median of %d): proxy "
               "%.0f | shard %.0f (scalar %.0f) | engine1 %.0f (scalar %.0f) | "
               "engine2 %.0f (trace off %.0f) | durable %.0f | cluster %.0f\n",
               w.name.c_str(), static_cast<unsigned long long>(w.seed),
               args.reps, value("proxy.items_per_s"), value("shard.items_per_s"),
               value("shard.scalar_items_per_s"), value("engine1.items_per_s"),
               value("engine1.scalar_items_per_s"),
               value("engine2.items_per_s"),
               value("engine.trace_off_items_per_s"),
               value("durable.items_per_s"), value("cluster.items_per_s"));
  print_result(checks.ok, tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload fleet_steady|durable_long|"
                 "cluster_campaign --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH] [--git-rev REV] [--reps N]\n");
    return 2;
  }
  auto w = make_workload(args->workload, args->seed);
  if (!w) {
    std::fprintf(stderr, "fleetbench: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }
  std::printf(
      "# env {\"hardware_threads\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_rev\": \"%s\"}\n",
      std::thread::hardware_concurrency(), FLEETBENCH_BUILD_TYPE,
      FLEETBENCH_COMPILER, args->git_rev.c_str());
  std::fflush(stdout);
  auto scenario = fleet::make_fleet_scenario(w->scenario);
  return args->trace ? run_ladder(*args, *w, scenario)
                     : run_rounds(*args, *w, scenario);
}

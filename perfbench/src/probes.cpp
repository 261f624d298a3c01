// Traced layer probes: each replays the workload's own inputs through one
// layer's public function, timing a whole loop (a clock read costs about
// as much as one call) and reporting the median of three repetitions per
// call or per stop.
#include <filesystem>
#include <functional>

#include "core/analytic.h"
#include "core/policies.h"
#include "core/solver_lp.h"
#include "engine/strategy.h"
#include "engine/vehicle_cache.h"
#include "lp/arena.h"
#include "obs/trace.h"
#include "robust/health_monitor.h"
#include "robust/input_guard.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "sim/evaluator.h"
#include "stats/rolling.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = idlered::core;
namespace robust = idlered::robust;
namespace engine = idlered::engine;
using idlered::dist::ShortStopStats;
using idlered::serve::DecisionService;
using idlered::serve::StopEvent;

constexpr int kRepeats = 3;
/// Events of the stream the decision-layer probes replay.
constexpr std::size_t kProbeEvents = 200000;
/// Events of the stream the obs and recovery probes pump.
constexpr std::size_t kSliceEvents = 20000;
/// Vehicles per sweep point the engine probes replay.
constexpr std::size_t kProbeVehiclesPerPoint = 120;

/// Keeps probe results observable so the loops are not optimized away.
volatile double g_sink = 0.0;

/// Median over kRepeats of fn()'s wall time divided by `ops`, in ns.
double ns_per_op(double ops, const std::function<void()>& fn) {
  std::vector<double> ns;
  for (int i = 0; i < kRepeats; ++i) {
    const double t0 = now_s();
    fn();
    ns.push_back((now_s() - t0) / ops * 1e9);
  }
  return median(std::move(ns));
}

/// Median over kRepeats of fn()'s wall time, in ms.
double ms_per_call(const std::function<void()>& fn) {
  return ns_per_op(1e6, fn);
}

double file_bytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path));
}

idlered::serve::ServeConfig probe_config(double break_even) {
  idlered::serve::ServeConfig cfg;
  cfg.num_shards = 4;
  cfg.threads = kServeThreads;
  cfg.break_even = break_even;
  cfg.queue_capacity = 8192;
  cfg.drain_batch = 1024;
  return cfg;
}

}  // namespace

void probe_decision_layers(const Stream& stream, double break_even,
                           const std::string& work_dir, bool report_recover,
                           RunResult& out) {
  Report& r = out.report;
  const std::size_t n = std::min(kProbeEvents, stream.size());
  std::vector<StopEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) events.push_back(stream.at(i));
  const std::size_t vehicles = stream.vehicles();

  // robust: InputGuard::admit over the events in stream order.
  std::vector<std::size_t> accepted;
  r.add("robust.guard_admit_ns",
        ns_per_op(static_cast<double>(n), [&] {
          std::vector<robust::InputGuard> guards(vehicles);
          accepted.clear();
          for (std::size_t i = 0; i < n; ++i)
            if (guards[events[i].vehicle].admit(events[i].stop_length_s,
                                                events[i].timestamp_s) ==
                robust::Verdict::kAccept)
              accepted.push_back(i);
        }),
        "ns");

  // stats: the accumulator over the accepted stops, then stats() per
  // vehicle state reached, which is what the service prices with.
  std::vector<idlered::stats::ShortStopAccumulator> accs;
  r.add("stats.acc_insert_ns",
        ns_per_op(static_cast<double>(accepted.size()), [&] {
          accs.assign(vehicles,
                      idlered::stats::ShortStopAccumulator(break_even));
          for (std::size_t i : accepted)
            accs[events[i].vehicle].insert(events[i].stop_length_s);
        }),
        "ns");
  r.add("stats.acc_stats_ns",
        ns_per_op(static_cast<double>(vehicles), [&] {
          double sum = 0.0;
          for (const auto& acc : accs)
            if (!acc.empty()) sum += acc.stats().mu_b_minus;
          g_sink = sum;
        }),
        "ns");
  // The statistics after every accepted stop: what a warmed vehicle's
  // decision would be priced with at that point of the stream.
  std::vector<ShortStopStats> priced;
  {
    std::vector<idlered::stats::ShortStopAccumulator> replay(
        vehicles, idlered::stats::ShortStopAccumulator(break_even));
    for (std::size_t i : accepted) {
      auto& acc = replay[events[i].vehicle];
      acc.insert(events[i].stop_length_s);
      priced.push_back(acc.stats());
    }
  }
  const double m = static_cast<double>(priced.size());

  // core/lp: the COA vertex choice, by LP and in closed form, and the
  // eq. 36 trust check.
  idlered::lp::Workspace ws(2, 3);
  r.add("core.coa_lp_ns", ns_per_op(m, [&] {
          double sum = 0.0;
          for (const ShortStopStats& s : priced)
            sum += core::solve_constrained_lp(s, break_even, ws).b;
          g_sink = sum;
        }),
        "ns");
  r.add("core.coa_closed_form_ns", ns_per_op(m, [&] {
          double sum = 0.0;
          for (const ShortStopStats& s : priced)
            sum += core::choose_strategy(s, break_even).b;
          g_sink = sum;
        }),
        "ns");
  r.add("robust.trust_b_det_ns", ns_per_op(m, [&] {
          std::size_t trusted = 0;
          for (const ShortStopStats& s : priced)
            trusted += robust::trust_b_det(s, break_even, 0.9) ? 1 : 0;
          g_sink = static_cast<double>(trusted);
        }),
        "ns");
  const core::NRandPolicy n_rand(break_even);
  r.add("core.nrand_draw_ns", ns_per_op(static_cast<double>(n), [&] {
          idlered::util::Rng rng(0x7a4d);
          double sum = 0.0;
          for (std::size_t i = 0; i < n; ++i)
            sum += n_rand.sample_threshold(rng);
          g_sink = sum;
        }),
        "ns");

  // serve storage: the WAL writer and reader, and shard snapshots of the
  // per-vehicle states the replay reached.
  namespace sv = idlered::serve;
  const std::string dir = work_dir + "/probe";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr std::size_t kFlushEvery = 256;
  std::vector<double> flush_us;
  double append_s = 0.0;
  {
    sv::WalWriter wal;
    wal.open(dir, 0, /*truncate=*/true);
    for (std::size_t i = 0; i < n; ++i) {
      const double t0 = now_s();
      wal.append(sv::WalRecord{i + 1, events[i],
                               robust::ControllerMode::kProposed});
      append_s += now_s() - t0;
      if ((i + 1) % kFlushEvery == 0 || i + 1 == n) {
        const double f0 = now_s();
        wal.flush();
        flush_us.push_back((now_s() - f0) * 1e6);
      }
    }
  }
  r.add("serve.wal_append_ns", append_s / static_cast<double>(n) * 1e9, "ns");
  r.add("serve.wal_flush_us", median(flush_us), "us");
  r.add("serve.wal_bytes_per_event",
        file_bytes(sv::wal_path(dir, 0)) / static_cast<double>(n), "B");
  std::size_t wal_records = 0;
  r.add("serve.wal_read_ms", ms_per_call([&] {
          wal_records = sv::read_wal(dir, 0).size();
        }),
        "ms");
  if (wal_records != n)
    out.tally.fail("WAL read back a different record count", 1);

  sv::ShardSnap snap;
  snap.cursor = n;
  for (std::size_t v = 0; v < vehicles; ++v) {
    if (accs[v].empty()) continue;
    sv::VehicleSnap vs;
    vs.vehicle = v;
    vs.last_seq = 1;
    vs.count = accs[v].count();
    vs.long_count = accs[v].long_count();
    vs.short_sum = accs[v].short_sum();
    snap.vehicles.push_back(vs);
  }
  r.add("serve.snapshot_write_ms", ms_per_call([&] {
          sv::write_shard_snapshot(dir, 0, snap);
        }),
        "ms");
  r.add("serve.snapshot_bytes", file_bytes(sv::snapshot_path(dir, 0)), "B");
  std::size_t snap_vehicles = 0;
  r.add("serve.snapshot_read_ms", ms_per_call([&] {
          const auto back = sv::read_shard_snapshot(dir, 0);
          snap_vehicles = back ? back->vehicles.size() : 0;
        }),
        "ms");
  if (snap_vehicles != snap.vehicles.size())
    out.tally.fail("snapshot read back a different vehicle count", 1);

  const std::size_t slice = std::min(kSliceEvents, stream.size());
  if (report_recover) {
    // A durable service fed a slice, checkpointed halfway, then crashed.
    sv::ServeConfig cfg = probe_config(break_even);
    cfg.durable_dir = dir + "/svc";
    std::filesystem::create_directories(cfg.durable_dir);
    {
      DecisionService svc(cfg);
      std::vector<idlered::serve::Decision> decisions;
      closed_loop(svc, stream, 0, slice / 2, 512, decisions);
      svc.checkpoint();
      closed_loop(svc, stream, slice / 2, slice, 512, decisions);
    }
    const double t0 = now_s();
    const auto rec = DecisionService::recover(cfg);
    r.add("serve.recover_s", now_s() - t0, "s");
    if (rec.replayed.empty())
      out.tally.fail("probe recovery replayed nothing", 1);
  }

  // obs: the same slice pumped with the program's recorder off, then on.
  std::vector<double> off_s, on_s;
  double bytes = 0.0;
  auto& rec = idlered::obs::recorder();
  for (int i = 0; i < kRepeats; ++i) {
    for (bool on : {false, true}) {
      DecisionService svc(probe_config(break_even));
      std::vector<idlered::serve::Decision> decisions;
      if (on) rec.start("");
      (on ? on_s : off_s)
          .push_back(closed_loop(svc, stream, 0, slice, 512, decisions));
      if (on) {
        rec.stop();
        bytes = 0.0;
        for (const std::string& line : rec.lines())
          bytes += static_cast<double>(line.size() + 1);
        rec.start("");  // drops the buffered lines
        rec.stop();
      }
    }
  }
  r.add("obs.dspan_ns_per_event",
        (median(on_s) - median(off_s)) / static_cast<double>(slice) * 1e9,
        "ns");
  r.add("obs.trace_bytes_per_event", bytes / static_cast<double>(slice), "B");
  std::filesystem::remove_all(dir);
}

void probe_engine_layers(
    const std::vector<std::shared_ptr<const sim::Fleet>>& fleets,
    double break_even, bool sampled, RunResult& out) {
  std::vector<const sim::StopTrace*> traces;
  for (const auto& f : fleets) {
    std::size_t taken = 0;
    for (const sim::StopTrace& t : *f) {
      if (taken == kProbeVehiclesPerPoint) break;
      if (t.stops.empty()) continue;
      traces.push_back(&t);
      ++taken;
    }
  }
  double stops = 0.0;
  for (const sim::StopTrace* t : traces)
    stops += static_cast<double>(t->stops.size());
  Report& r = out.report;

  std::vector<std::unique_ptr<engine::VehicleCache>> caches;
  r.add("engine.vehicle_cache_ns_per_stop", ns_per_op(stops, [&] {
          caches.clear();
          for (const sim::StopTrace* t : traces) {
            caches.push_back(std::make_unique<engine::VehicleCache>(*t));
            caches.back()->prewarm({break_even}, /*offline_totals=*/true);
          }
        }),
        "ns");

  const auto lineup = engine::standard_strategy_set();
  std::vector<std::vector<core::PolicyPtr>> policies(lineup.size());
  r.add("engine.policy_build_ns",
        ns_per_op(static_cast<double>(caches.size() * lineup.size()), [&] {
          for (std::size_t s = 0; s < lineup.size(); ++s) {
            policies[s].clear();
            for (const auto& c : caches)
              policies[s].push_back(lineup[s]->build(
                  engine::VehicleView(*c, break_even, lineup[s]->needs())));
          }
        }),
        "ns");

  for (std::size_t s = 0; s < lineup.size(); ++s) {
    r.add("sim.kernel_ns_per_stop." + lineup[s]->name(), ns_per_op(stops, [&] {
            idlered::util::Rng rng(0x5eed + s);
            idlered::sim::EvalOptions opt;
            opt.mode = sampled ? idlered::sim::EvalMode::kSampled
                               : idlered::sim::EvalMode::kExpected;
            opt.rng = &rng;
            opt.kernel = idlered::sim::EvalKernel::kBatch;
            double sum = 0.0;
            for (std::size_t v = 0; v < caches.size(); ++v)
              sum += idlered::sim::evaluate(*policies[s][v], caches[v]->batch(),
                                            opt)
                         .online;
            g_sink = sum;
          }),
          "ns");
  }

  std::size_t mom = lineup.size();
  for (std::size_t s = 0; s < lineup.size(); ++s)
    if (lineup[s]->name() == "MOM-Rand") mom = s;
  if (mom == lineup.size()) {
    out.tally.fail("lineup has no MOM-Rand strategy", 1);
    return;
  }
  constexpr std::size_t kDrawsPerVehicle = 64;
  r.add("core.momrand_draw_ns",
        ns_per_op(static_cast<double>(caches.size() * kDrawsPerVehicle), [&] {
          idlered::util::Rng rng(0xd4a3);
          double sum = 0.0;
          for (const auto& p : policies[mom])
            for (std::size_t k = 0; k < kDrawsPerVehicle; ++k)
              sum += p->sample_threshold(rng);
          g_sink = sum;
        }),
        "ns");
}

}  // namespace perfbench

// engine_expected and engine_sampled: the Figure-5 sweep through
// EvalSession, fleet -> EvalReport.
//
// Each run builds the sweep's fleets from --seed (the Chicago stop law
// rescaled to 17 mean stop lengths from B/6 to 6B, B = 28 s), constructs
// one session over the paper's six-strategy lineup with the batch kernel,
// and calls run() repeatedly. Every report must be bit-identical to the
// first, every CR finite and >= 1, and the batch kernel must agree with
// the scalar kernel on an untimed subsample.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "engine/eval_session.h"
#include "traces/area_profiles.h"
#include "traces/fleet_generator.h"
#include "util/math.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

using idlered::engine::EvalPlan;
using idlered::engine::EvalReport;
using idlered::engine::EvalSession;
using FleetPtr = std::shared_ptr<const sim::Fleet>;

constexpr double kBreakEven = 28.0;
constexpr int kSweepPoints = 17;
constexpr int kSetupSamples = 1001;
/// Vehicles per point the kernel cross-check re-evaluates with the scalar
/// kernel.
constexpr std::size_t kKernelCheckVehicles = 24;

std::vector<double> sweep_means() {
  return idlered::util::logspace(kBreakEven / 6.0, kBreakEven * 6.0,
                                 kSweepPoints);
}

std::vector<FleetPtr> sweep_fleets(std::uint64_t seed, int per_point) {
  const auto profile = idlered::traces::chicago();
  idlered::util::Rng rng(seed);
  std::vector<FleetPtr> fleets;
  for (double mean : sweep_means()) {
    idlered::util::Rng point_rng =
        rng.fork(static_cast<std::uint64_t>(mean * 1000.0));
    fleets.push_back(std::make_shared<const sim::Fleet>(
        idlered::traces::generate_scaled_fleet(profile, mean, per_point,
                                               point_rng)));
  }
  return fleets;
}

EvalPlan make_plan(const std::vector<FleetPtr>& fleets, bool sampled,
                   std::uint64_t seed, int threads) {
  EvalPlan plan;
  plan.strategies = idlered::engine::standard_strategy_set();
  plan.mode = sampled ? idlered::engine::EvalMode::kSampled
                      : idlered::engine::EvalMode::kExpected;
  plan.kernel = idlered::sim::EvalKernel::kBatch;
  plan.seed = seed;
  plan.threads = threads;
  const std::vector<double> means = sweep_means();
  for (std::size_t p = 0; p < fleets.size(); ++p) {
    const double axis = fleets.size() == means.size() ? means[p] : 0.0;
    plan.points.push_back({axis, kBreakEven, fleets[p]});
  }
  return plan;
}

std::size_t stop_count(const std::vector<FleetPtr>& fleets) {
  std::size_t n = 0;
  for (const FleetPtr& f : fleets)
    for (const sim::StopTrace& t : *f) n += t.stops.size();
  return n;
}

/// Cells of the first report that are not finite or below 1.
void check_crs(const EvalReport& report, Tally& tally) {
  std::uint64_t bad = 0;
  for (const auto& point : report.points)
    for (const auto& v : point.comparison.vehicles)
      for (double cr : v.cr)
        if (!std::isfinite(cr) || cr < 1.0) ++bad;
  if (bad > 0) tally.fail("CR not finite or below 1", bad);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Cells of `b` whose CR or totals differ in any bit from `a`.
void check_identical(const EvalReport& a, const EvalReport& b, Tally& tally) {
  std::uint64_t bad = 0;
  if (a.points.size() != b.points.size()) {
    tally.fail("report shape changed between runs", a.cells);
    return;
  }
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const auto& va = a.points[p].comparison.vehicles;
    const auto& vb = b.points[p].comparison.vehicles;
    if (va.size() != vb.size()) {
      bad += va.size() * a.strategy_names.size();
      continue;
    }
    for (std::size_t v = 0; v < va.size(); ++v)
      for (std::size_t s = 0; s < va[v].cr.size(); ++s) {
        const auto& ta = a.points[p].totals[v][s];
        const auto& tb = b.points[p].totals[v][s];
        if (!same_bits(va[v].cr[s], vb[v].cr[s]) ||
            !same_bits(ta.online, tb.online) ||
            !same_bits(ta.offline, tb.offline))
          ++bad;
      }
  }
  if (bad > 0) tally.fail("report differs between repetitions", bad);
}

/// Re-evaluate the first vehicles of every point with the scalar kernel
/// and compare their CRs with the batch report to 1e-9 relative.
void check_kernels(const std::vector<FleetPtr>& fleets, const EvalPlan& plan,
                   const EvalReport& batch, Tally& tally) {
  std::vector<FleetPtr> head;
  for (const FleetPtr& f : fleets) {
    const std::size_t n = std::min(kKernelCheckVehicles, f->size());
    head.push_back(std::make_shared<const sim::Fleet>(f->begin(),
                                                      f->begin() + n));
  }
  EvalPlan sub =
      make_plan(head, plan.mode == idlered::engine::EvalMode::kSampled,
                plan.seed, plan.threads);
  sub.kernel = idlered::sim::EvalKernel::kScalar;
  const EvalReport scalar = EvalSession(std::move(sub)).run();
  std::uint64_t bad = 0, checked = 0;
  for (std::size_t p = 0; p < scalar.points.size(); ++p) {
    std::map<std::string, const idlered::sim::VehicleResult*> by_id;
    for (const auto& v : batch.points[p].comparison.vehicles)
      by_id[v.vehicle_id] = &v;
    for (const auto& v : scalar.points[p].comparison.vehicles) {
      const auto it = by_id.find(v.vehicle_id);
      for (std::size_t s = 0; s < v.cr.size(); ++s) {
        ++checked;
        if (it == by_id.end() ||
            std::fabs(it->second->cr[s] - v.cr[s]) >
                1e-9 * std::fabs(v.cr[s]))
          ++bad;
      }
    }
  }
  tally.attempt(checked);
  if (bad > 0) tally.fail("batch kernel disagrees with scalar kernel", bad);
}

struct SweepLog {
  std::vector<double> run_s;
  std::vector<double> cache_s;
  std::vector<double> eval_s;
  double total_s = 0.0;
};

/// One run(), checked against the first report. With a tracer, spans
/// wrap run() and the check.
void run_once(EvalSession& session, const EvalReport& first, SweepLog& log,
              Tally& tally, Tracer* tracer) {
  const std::size_t run_id = tracer ? tracer->layer("engine.run") : 0;
  const std::size_t check_id = tracer ? tracer->layer("harness.check") : 0;
  const double t0 = now_s();
  EvalReport report;
  {
    Span s(tracer, run_id);
    report = session.run();
  }
  const double dt = now_s() - t0;
  log.run_s.push_back(dt);
  log.total_s += dt;
  log.cache_s.push_back(report.cache_build_seconds);
  log.eval_s.push_back(report.eval_seconds);
  Span s(tracer, check_id);
  tally.attempt(report.cells);
  check_identical(first, report, tally);
}

double empty_plan_run_s(const std::vector<FleetPtr>& fleets, bool sampled,
                        std::uint64_t seed) {
  std::vector<FleetPtr> empty;
  for (const FleetPtr& f : fleets) {
    sim::Fleet e(f->size());
    for (std::size_t i = 0; i < e.size(); ++i)
      e[i].vehicle_id = (*f)[i].vehicle_id;
    empty.push_back(std::make_shared<const sim::Fleet>(std::move(e)));
  }
  EvalSession session(make_plan(empty, sampled, seed, bench_threads()));
  std::vector<double> s;
  for (int i = 0; i < 15; ++i) {
    const double t0 = now_s();
    session.run();
    s.push_back(now_s() - t0);
  }
  return median(std::move(s));
}

struct EngineShape {
  int vehicles_per_point = 0;
  bool sampled = false;
};

}  // namespace

void engine_layer_metrics(const std::vector<FleetPtr>& fleets, bool sampled,
                          std::uint64_t seed, double seconds, bool own,
                          RunResult& out) {
  const int threads = bench_threads();
  const EvalPlan plan = make_plan(fleets, sampled, seed, threads);
  EvalSession session(plan);
  const EvalReport first = session.run();
  out.tally.attempt(first.cells);
  check_crs(first, out.tally);

  // Untraced and traced repetitions alternate, so drift on the machine
  // hits both alike; their medians give the tracing overhead.
  Tracer tracer;
  SweepLog plain, traced;
  double traced_wall = 0.0;
  const double until = now_s() + 0.3 * seconds;
  while (plain.run_s.size() < 3 || now_s() < until) {
    run_once(session, first, plain, out.tally, nullptr);
    const double t0 = now_s();
    run_once(session, first, traced, out.tally, &tracer);
    traced_wall += now_s() - t0;
  }

  // One single-thread run: the busy work the pool spreads over threads.
  EvalPlan serial = plan;
  serial.threads = 1;
  EvalSession serial_session(serial);
  check_identical(first, serial_session.run(), out.tally);  // warms it up
  const double s0 = now_s();
  const EvalReport one = serial_session.run();
  const double serial_s = now_s() - s0;
  check_identical(first, one, out.tally);

  Report& r = out.report;
  const double sweep = median(traced.run_s);
  r.add("engine.sweep_s", sweep, "s");
  r.add("engine.cache_build_s", median(traced.cache_s), "s");
  r.add("engine.eval_s", median(traced.eval_s), "s");
  r.add("engine.run_empty_s", empty_plan_run_s(fleets, sampled, seed), "s");
  r.add("engine.pool_idle_share",
        1.0 - serial_s / (static_cast<double>(threads) * sweep), "ratio");
  probe_engine_layers(fleets, kBreakEven, sampled, out);
  if (!own) return;
  r.add("harness.bookkeeping_ns_per_event",
        tracer.self_s_with_prefix("harness.") /
            (static_cast<double>(first.cells) *
             static_cast<double>(traced.run_s.size())) *
            1e9,
        "ns");
  r.add("harness.unaccounted_share",
        unaccounted_share(tracer.total_self_s(), traced_wall), "ratio");
  r.add("harness.trace_overhead", sweep / median(plain.run_s) - 1.0, "ratio");
}

namespace {

void run_engine(const Args& args, const EngineShape& shape, RunResult& out) {
  const std::vector<FleetPtr> fleets =
      sweep_fleets(args.seed, shape.vehicles_per_point);
  if (args.trace) {
    engine_layer_metrics(fleets, shape.sampled, args.seed, args.seconds,
                         /*own=*/true, out);
    // The serve layers on this workload's inputs: the sweep's vehicles
    // replayed as stop events.
    sim::Fleet all;
    for (const FleetPtr& f : fleets)
      all.insert(all.end(), f->begin(), f->end());
    StreamSpec spec;
    spec.seed = args.seed;
    spec.vehicles = 4096;
    spec.rounds = 48;
    const Stream stream(spec, all);
    serve_layer_metrics(stream, args, out);
    WorkDir work;
    probe_decision_layers(stream, kBreakEven, work.path(),
                          /*report_recover=*/true, out);
    return;
  }

  const double t_begin = now_s();
  const EvalPlan plan =
      make_plan(fleets, shape.sampled, args.seed, bench_threads());
  std::vector<double> setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    const double t0 = now_s();
    EvalSession session(plan);
    setup.push_back(now_s() - t0);
  }
  EvalSession session(plan);
  const EvalReport first = session.run();
  out.tally.attempt(first.cells);
  check_crs(first, out.tally);
  SweepLog log;
  while (log.run_s.size() < 5 || now_s() - t_begin < 0.85 * args.seconds)
    run_once(session, first, log, out.tally, nullptr);
  check_kernels(fleets, plan, first, out.tally);

  const double stop_decisions =
      static_cast<double>(stop_count(fleets) * plan.strategies.size());
  Report& r = out.report;
  r.add("setup_s", median(setup), "s");
  r.add("capacity_per_s",
        stop_decisions * static_cast<double>(log.run_s.size()) / log.total_s,
        "1/s");
  r.add("latency_p50_us", median(log.run_s) * 1e6, "us");
  r.add("latency_p90_us", quantile(log.run_s, 0.90) * 1e6, "us");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  Report& i = out.info;
  i.add("sweep_s", median(log.run_s), "s");
  i.add("cache_build_s", median(log.cache_s), "s");
  i.add("eval_s", median(log.eval_s), "s");
  i.add("repetitions", static_cast<double>(log.run_s.size()), "count");
  i.add("stops", static_cast<double>(stop_count(fleets)), "count");
}

}  // namespace

void run_engine_expected(const Args& args, RunResult& out) {
  run_engine(args, EngineShape{1500, false}, out);
}

void run_engine_sampled(const Args& args, RunResult& out) {
  run_engine(args, EngineShape{600, true}, out);
}

}  // namespace perfbench

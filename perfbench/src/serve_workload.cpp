// serve_warm and serve_durable_cold: one event stream, two phases.
//
// Capacity phase: a closed loop keeps at most `window` events in flight,
// far below the shed watermark, and pumps; decisions per second over the
// timed rounds of a fresh, warmed service, pooled over passes.
//
// Latency phase: an open loop at a fixed offered rate. One load thread
// submits each event when it is due (due times are an arithmetic series
// over the ordinal, so no per-event map exists) and pumps whenever
// anything is in flight. An event's latency runs from its due time to the
// return of the pump that emitted its decision.
//
// Every pass is checked afterwards against an untimed reference pass of
// the same stream: each offered event gets exactly one decision, in the
// vehicle's seq order, bit-identical to the reference unless it was shed
// (the reference took the COA rung and this decision a lower one).
#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using idlered::robust::ControllerMode;
using idlered::serve::Admit;
using idlered::serve::Decision;
using idlered::serve::DecisionService;
using idlered::serve::Outcome;
using idlered::serve::ServeConfig;

/// Decisions of one pass and its timed wall.
struct PassLog {
  std::vector<Decision> decisions;
  double wall_s = 0.0;

  /// Empty the log but keep its buffers, so a pass that reuses it does
  /// not page in fresh memory while it is timed.
  void clear() {
    decisions.clear();
    wall_s = 0.0;
  }
};

/// Harness-span layer ids of a traced serve pass.
struct ServeLayers {
  explicit ServeLayers(Tracer& t)
      : submit(t.layer("serve.submit")),
        pump(t.layer("serve.pump")),
        generate(t.layer("harness.generate")),
        bookkeeping(t.layer("harness.bookkeeping")),
        idle(t.layer("harness.idle")) {}
  std::size_t submit, pump, generate, bookkeeping, idle;
};

/// Events still in flight after a pump emitted `emitted` decisions; 0 if
/// the pump emitted nothing while no queue holds anything (the rest was
/// lost).
std::size_t settle(const DecisionService& svc, std::size_t in_flight,
                   std::size_t emitted) {
  if (emitted == 0 && svc.queued() == 0) return 0;
  return emitted >= in_flight ? 0 : in_flight - emitted;
}

}  // namespace

/// Samples a pass collects; the latency phase fills latency_us and lag_us
/// untraced too.
struct ServeSamples {
  std::vector<double> submit_ns;
  std::vector<double> pump_us;
  std::vector<double> queue_wait_us;
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::uint64_t pumped_events = 0;
  std::uint64_t pumps = 0;
  double pump_busy_s = 0.0;   ///< open loop only
  double open_wall_s = 0.0;   ///< open loop only
};

double closed_loop(DecisionService& svc, const Stream& stream,
                   std::size_t first, std::size_t end, std::size_t window,
                   std::vector<Decision>& out, Tracer* tracer,
                   ServeSamples* samples) {
  std::optional<ServeLayers> ids;
  if (tracer != nullptr) {
    ids.emplace(*tracer);
    samples->submit_ns.reserve(samples->submit_ns.size() + (end - first));
  }
  out.reserve(out.size() + (end - first));
  std::size_t next = first;
  std::size_t in_flight = 0;
  const double t0 = now_s();
  while (next < end || in_flight > 0) {
    while (in_flight < window && next < end) {
      idlered::serve::StopEvent ev;
      {
        Span s(tracer, ids ? ids->generate : 0);
        ev = stream.at(next);
      }
      Admit admit;
      if (tracer != nullptr) {
        tracer->begin(ids->submit, now_s());
        admit = svc.submit(ev);
        samples->submit_ns.push_back(tracer->end(now_s()) * 1e9);
      } else {
        admit = svc.submit(ev);
      }
      if (admit != Admit::kAccepted) break;  // retried after the pump
      ++next;
      ++in_flight;
    }
    const std::size_t begin = out.size();
    if (tracer != nullptr) {
      tracer->begin(ids->pump, now_s());
      svc.pump(out);
      samples->pump_us.push_back(tracer->end(now_s()) * 1e6);
      ++samples->pumps;
      samples->pumped_events += out.size() - begin;
    } else {
      svc.pump(out);
    }
    Span s(tracer, ids ? ids->bookkeeping : 0);
    in_flight = settle(svc, in_flight, out.size() - begin);
  }
  return now_s() - t0;
}

namespace {

class ServeBench {
 public:
  ServeBench(const Stream& stream, ServeConfig config, std::size_t warm_rounds,
             std::size_t window, std::string work_dir)
      : stream_(stream),
        config_(std::move(config)),
        warm_rounds_(warm_rounds),
        window_(window),
        work_dir_(std::move(work_dir)) {
    if (warm_rounds_ >= stream_.rounds())
      throw std::invalid_argument("ServeBench: no timed rounds");
  }

  bool durable() const { return !work_dir_.empty(); }
  std::size_t warm_end() const { return warm_rounds_ * stream_.vehicles(); }

  /// Share of the checked decisions that were priced while shedding.
  double shed_share() const {
    return decided == 0 ? 0.0
                        : static_cast<double>(shed_decisions) /
                              static_cast<double>(decided);
  }

  /// Untimed in-memory pass over the whole stream: the expected decision
  /// of every ordinal. Fails the run if the reference itself shed.
  void build_reference(Tally& tally) {
    ServeConfig cfg = config_;
    cfg.durable_dir.clear();
    cfg.threads = 1;
    DecisionService svc(cfg);
    PassLog log;
    feed(svc, 0, stream_.size(), log);
    reference_.assign(stream_.size(), Decision{});
    std::vector<std::uint32_t> count(stream_.vehicles(), 0);
    const std::size_t vehicles = stream_.vehicles();
    std::uint64_t stray = 0;
    for (const Decision& d : log.decisions) {
      if (d.vehicle >= vehicles || count[d.vehicle] >= stream_.rounds()) {
        ++stray;
        continue;
      }
      const std::size_t ordinal =
          static_cast<std::size_t>(count[d.vehicle]++) * vehicles + d.vehicle;
      reference_[ordinal] = d;
    }
    if (stray > 0 || log.decisions.size() != stream_.size())
      tally.fail("reference pass lost or invented decisions", 1);
    for (std::size_t s = 0; s < svc.num_shards(); ++s)
      if (!svc.shard(s).shedder().transitions().empty()) {
        tally.fail("reference pass shed load", 1);
        break;
      }
    // Counts over the timed rounds: what the timed phases decide.
    for (std::size_t i = warm_end(); i < reference_.size(); ++i) {
      const Decision& d = reference_[i];
      ++outcome_count_[static_cast<std::size_t>(d.outcome)];
      if (d.outcome == Outcome::kDecided)
        ++rung_count_[static_cast<std::size_t>(d.rung)];
    }
  }

  const std::array<std::uint64_t, 4>& rung_counts() const {
    return rung_count_;
  }
  const std::array<std::uint64_t, 5>& outcome_counts() const {
    return outcome_count_;
  }

  /// A fresh service (a fresh durable directory for durable runs); sets
  /// `setup_s` to the constructor's wall time.
  std::unique_ptr<DecisionService> fresh_service(double* setup_s) {
    const ServeConfig cfg = live_config();
    if (durable()) std::filesystem::remove_all(cfg.durable_dir);
    const double t0 = now_s();
    if (durable()) std::filesystem::create_directories(cfg.durable_dir);
    auto svc = std::make_unique<DecisionService>(cfg);
    if (setup_s != nullptr) *setup_s = now_s() - t0;
    return svc;
  }

  ServeConfig live_config() const {
    ServeConfig cfg = config_;
    if (durable()) cfg.durable_dir = work_dir_ + "/svc";
    return cfg;
  }

  /// Durable only: write back everything earlier passes left dirty, so
  /// the file system's background writeback does not land inside the
  /// next timed interval.
  void settle_storage() const {
    if (!durable()) return;
    const int fd = ::open(work_dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
  }

  /// Fresh service, warm-up rounds fed untimed.
  std::unique_ptr<DecisionService> warmed_service(Tally& tally) {
    auto svc = fresh_service(nullptr);
    PassLog log;
    feed(*svc, 0, warm_end(), log);
    verify(log, 0, warm_end(), tally);
    return svc;
  }

  /// Closed loop over the timed rounds [warm, end_round). Returns
  /// decisions per second.
  double capacity_pass(Tally& tally, std::size_t end_round, PassLog& log,
                       Tracer* tracer, ServeSamples* samples) {
    auto svc = warmed_service(tally);
    settle_storage();
    const std::size_t end = end_round * stream_.vehicles();
    feed(*svc, warm_end(), end, log, tracer, samples);
    absorb_counters(*svc);
    verify(log, warm_end(), end, tally);
    return static_cast<double>(end - warm_end()) / log.wall_s;
  }

  /// Open loop over the first `events` timed events at `rate`.
  void latency_pass(Tally& tally, std::size_t events, double rate,
                    PassLog& log, Tracer* tracer, ServeSamples& samples) {
    auto svc = warmed_service(tally);
    settle_storage();
    const std::size_t end = std::min(stream_.size(), warm_end() + events);
    open_loop(*svc, warm_end(), end, rate, log, tracer, samples);
    absorb_counters(*svc);
    verify(log, warm_end(), end, tally);
  }

  /// Durable only: feed the timed rounds up to `kill_round`, destroy the
  /// service without shutdown, recover it, check the replayed decisions
  /// and the producers' resume points, then resume rounds [kill_round,
  /// resume_end_round) and check them too. Returns the wall time of
  /// recover().
  double kill_and_recover(Tally& tally, std::size_t kill_round,
                          std::size_t resume_end_round) {
    auto svc = warmed_service(tally);
    PassLog before;
    feed(*svc, warm_end(), kill_round * stream_.vehicles(), before);
    verify(before, warm_end(), kill_round * stream_.vehicles(), tally);
    svc.reset();  // the crash: no shutdown, no final checkpoint

    const double t0 = now_s();
    DecisionService::Recovered rec = DecisionService::recover(live_config());
    const double recover_s = now_s() - t0;

    const std::size_t vehicles = stream_.vehicles();
    const std::size_t applied_end = kill_round * vehicles;
    tally.attempt(rec.replayed.size());
    std::uint64_t bad = 0;
    for (const Decision& d : rec.replayed) {
      // Replay re-derives only durable (non-stale) events, whose seq
      // names their round.
      const std::size_t ordinal =
          static_cast<std::size_t>(d.seq - 1) * vehicles + d.vehicle;
      if (d.vehicle >= vehicles || d.seq == 0 || ordinal >= applied_end ||
          !idlered::serve::bit_identical(d, reference_[ordinal]))
        ++bad;
    }
    if (bad > 0) tally.fail("replayed decision differs from reference", bad);
    if (rec.replayed.empty())
      tally.fail("recovery replayed nothing: no WAL tail was exercised", 1);

    std::uint64_t resume_bad = 0;
    for (std::size_t v = 0; v < vehicles; ++v)
      if (rec.service->last_applied_seq(v) !=
          stream_.last_seq_before(v, kill_round))
        ++resume_bad;
    if (resume_bad > 0)
      tally.fail("last_applied_seq disagrees with the fed stream",
                 resume_bad);

    PassLog after;
    feed(*rec.service, applied_end, resume_end_round * vehicles, after);
    verify(after, applied_end, resume_end_round * vehicles, tally);
    return recover_s;
  }

  /// Wall time of pump() with every queue empty (the pool hand-off).
  double empty_pump_us(int reps) {
    auto svc = fresh_service(nullptr);
    std::vector<Decision> out;
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_s();
      svc->pump(out);
      us.push_back((now_s() - t0) * 1e6);
    }
    return median(std::move(us));
  }

  /// Counters over every pass of the run.
  std::uint64_t refused = 0;           ///< queue refusals
  std::uint64_t shed_transitions = 0;  ///< shedder ceiling changes
  std::uint64_t shed_decisions = 0;    ///< checked, shed below COA
  std::uint64_t decided = 0;           ///< decisions checked

 private:
  void absorb_counters(const DecisionService& svc) {
    for (std::size_t s = 0; s < svc.num_shards(); ++s) {
      refused += svc.shard(s).queue().rejected();
      shed_transitions += svc.shard(s).shedder().transitions().size();
    }
  }

  /// The shared closed loop with this bench's stream and window.
  void feed(DecisionService& svc, std::size_t first, std::size_t end,
            PassLog& log, Tracer* tracer = nullptr,
            ServeSamples* samples = nullptr) {
    log.wall_s = closed_loop(svc, stream_, first, end, window_, log.decisions,
                             tracer, samples);
  }

  void open_loop(DecisionService& svc, std::size_t first, std::size_t end,
                 double rate, PassLog& log, Tracer* tracer,
                 ServeSamples& samples) {
    std::optional<ServeLayers> ids;
    if (tracer != nullptr) ids.emplace(*tracer);
    const std::size_t vehicles = stream_.vehicles();
    const std::size_t first_round = first / vehicles;
    // Per-vehicle decision counts map each decision to its ordinal.
    std::vector<std::uint32_t> count(vehicles, 0);
    // Submit-return times by ordinal, for queue wait (traced runs only).
    std::vector<double> submitted_at;
    if (tracer != nullptr) submitted_at.resize(end - first);
    log.decisions.reserve(log.decisions.size() + (end - first));
    samples.latency_us.reserve(samples.latency_us.size() + (end - first));
    samples.lag_us.reserve(samples.lag_us.size() + (end - first));
    const double period = 1.0 / rate;
    const double start = now_s() + 1e-3;
    auto due = [&](std::size_t ordinal) {
      return start + static_cast<double>(ordinal - first) * period;
    };
    std::size_t next = first;
    std::size_t in_flight = 0;
    double pump_busy = 0.0;
    while (next < end || in_flight > 0) {
      double now = now_s();
      if (next < end && in_flight == 0 && due(next) > now) {
        Span s(tracer, ids ? ids->idle : 0);
        while (due(next) > now) now = now_s();
      }
      while (next < end && due(next) <= now) {
        idlered::serve::StopEvent ev;
        {
          Span s(tracer, ids ? ids->generate : 0);
          ev = stream_.at(next);
          samples.lag_us.push_back((now - due(next)) * 1e6);
        }
        Admit admit;
        if (tracer != nullptr) {
          tracer->begin(ids->submit, now_s());
          admit = svc.submit(ev);
          const double t_ret = now_s();
          samples.submit_ns.push_back(tracer->end(t_ret) * 1e9);
          submitted_at[next - first] = t_ret;
        } else {
          admit = svc.submit(ev);
        }
        if (admit != Admit::kAccepted) break;  // retried after the pump
        ++next;
        ++in_flight;
        now = now_s();
      }
      if (in_flight == 0) continue;
      const std::size_t begin = log.decisions.size();
      const double p0 = now_s();
      if (tracer != nullptr) tracer->begin(ids->pump, p0);
      svc.pump(log.decisions);
      const double p1 = now_s();
      if (tracer != nullptr) {
        tracer->end(p1);
        samples.pump_us.push_back((p1 - p0) * 1e6);
        ++samples.pumps;
        samples.pumped_events += log.decisions.size() - begin;
      }
      pump_busy += p1 - p0;
      Span s(tracer, ids ? ids->bookkeeping : 0);
      for (std::size_t i = begin; i < log.decisions.size(); ++i) {
        const std::size_t v = log.decisions[i].vehicle;
        if (v >= vehicles) continue;  // verify() reports it
        const std::size_t ordinal =
            (first_round + count[v]++) * vehicles + v;
        if (ordinal < first || ordinal >= end) continue;
        samples.latency_us.push_back((p1 - due(ordinal)) * 1e6);
        if (tracer != nullptr)
          samples.queue_wait_us.push_back(
              (p0 - submitted_at[ordinal - first]) * 1e6);
      }
      in_flight = settle(svc, in_flight, log.decisions.size() - begin);
    }
    log.wall_s = now_s() - start;
    samples.pump_busy_s += pump_busy;
    samples.open_wall_s += log.wall_s;
  }

  /// Exactly one decision per offered event of ordinals [first, end), in
  /// seq order, bit-identical to the reference unless shed: priced on a
  /// lower rung than the reference's COA rung. `first` is a round
  /// boundary; `end` may cut a round, covering its first vehicles.
  void verify(const PassLog& log, std::size_t first, std::size_t end,
              Tally& tally) {
    const std::size_t vehicles = stream_.vehicles();
    const std::size_t full_rounds = (end - first) / vehicles;
    const std::size_t partial = (end - first) % vehicles;
    auto expected = [&](std::size_t v) {
      return full_rounds + (v < partial ? 1 : 0);
    };
    tally.attempt(end - first);
    std::vector<std::uint32_t> count(vehicles, 0);
    std::uint64_t unknown = 0, extra = 0, order = 0, differs = 0;
    for (std::size_t i = 0; i < log.decisions.size(); ++i) {
      const Decision& d = log.decisions[i];
      if (d.vehicle >= vehicles) {
        ++unknown;
        continue;
      }
      const std::size_t k = count[d.vehicle]++;
      if (k >= expected(d.vehicle)) {
        ++extra;
        continue;
      }
      const std::size_t ordinal = first + k * vehicles + d.vehicle;
      const Decision& ref = reference_[ordinal];
      if (d.seq != stream_.at(ordinal).seq) {
        ++order;
      } else if (idlered::serve::bit_identical(d, ref)) {
        continue;
      } else if (d.outcome == Outcome::kDecided &&
                 ref.outcome == Outcome::kDecided &&
                 ref.rung == ControllerMode::kProposed &&
                 d.rung != ControllerMode::kProposed) {
        ++shed_decisions;
      } else {
        ++differs;
      }
    }
    std::uint64_t missing = 0;
    for (std::size_t v = 0; v < vehicles; ++v)
      if (count[v] < expected(v)) missing += expected(v) - count[v];
    decided += log.decisions.size();
    if (unknown) tally.fail("decision for an unknown vehicle", unknown);
    if (extra) tally.fail("more than one decision for an event", extra);
    if (order) tally.fail("decision out of the vehicle's seq order", order);
    if (differs) tally.fail("decision differs from the reference", differs);
    if (missing) tally.fail("event got no decision", missing);
  }

  const Stream& stream_;
  ServeConfig config_;
  std::size_t warm_rounds_;
  std::size_t window_;
  std::string work_dir_;
  std::vector<Decision> reference_;
  std::array<std::uint64_t, 4> rung_count_{};
  std::array<std::uint64_t, 5> outcome_count_{};
};

/// Pins the calling thread, and the pump worker of every service it
/// constructs meanwhile, to one CPU until release(). The load thread blocks
/// while the worker pumps and the worker sleeps while the load thread submits,
/// so they never need two CPUs; on one CPU each hand-off is a local
/// context switch instead of a cross-CPU wake-up, whose cost on a shared
/// virtual machine swings with the host's load. Passes rotate over the
/// allowed CPUs (next()), so one CPU contended by the host for a while
/// moves some passes of a run, not the whole run.
class CpuPin {
 public:
  CpuPin() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    next();
  }
  ~CpuPin() { release(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// Move to the next allowed CPU.
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0 || pinned_;
  }

  void release() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
    pinned_ = false;
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  bool pinned_ = false;
};

/// A serve workload's shape; the stream seed comes from --seed.
struct ServeShape {
  StreamSpec stream;
  ServeConfig config;
  std::size_t warm_rounds = 0;
  std::size_t window = 0;          ///< closed-loop in-flight cap
  double rate_per_s = 0.0;         ///< open-loop offered rate
  std::size_t capacity_end_round = 0;
  std::size_t latency_events = 0;    ///< per latency pass
  std::size_t kill_round = 0;      ///< durable only
  std::size_t resume_end_round = 0;
};

constexpr int kSetupSamples = 201;

double setup_median(ServeBench& bench) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    double s = 0.0;
    bench.settle_storage();
    bench.fresh_service(&s);
    samples.push_back(s);
  }
  return median(std::move(samples));
}

void report_counts(const ServeBench& bench, Report& r) {
  static const char* kRungs[] = {"serve.rung.coa", "serve.rung.det",
                                 "serve.rung.nrand", "serve.rung.nev"};
  for (std::size_t i = 0; i < 4; ++i)
    r.add(kRungs[i], static_cast<double>(bench.rung_counts()[i]), "count");
  auto outcome = [&](Outcome k) {
    return static_cast<double>(
        bench.outcome_counts()[static_cast<std::size_t>(k)]);
  };
  r.add("serve.outcome.stale", outcome(Outcome::kRejectedStale), "count");
  r.add("serve.outcome.invalid", outcome(Outcome::kRejectedInvalid), "count");
  r.add("serve.outcome.out_of_order", outcome(Outcome::kRejectedOutOfOrder),
        "count");
  r.add("serve.outcome.quarantined", outcome(Outcome::kQuarantined), "count");
}

/// The traced serve phases: untraced and traced capacity passes (their
/// ratio is the tracing overhead), then a traced latency pass. Reports the
/// serve.* every-run metrics; with `own` also the harness accounting.
void traced_serve_phases(ServeBench& bench, const ServeShape& shape,
                         const Args& args, bool own, RunResult& out) {
  const double budget = args.seconds;
  std::vector<double> untraced_wall, traced_wall;
  Tracer tracer;
  ServeSamples closed, open;
  const double t_begin = now_s();
  do {
    PassLog plain, traced;
    bench.capacity_pass(out.tally, shape.capacity_end_round, plain, nullptr,
                        nullptr);
    bench.capacity_pass(out.tally, shape.capacity_end_round, traced, &tracer,
                        &closed);
    untraced_wall.push_back(plain.wall_s);
    traced_wall.push_back(traced.wall_s);
  } while (untraced_wall.size() < 2 ||
           (own && now_s() - t_begin < 0.25 * budget &&
            untraced_wall.size() < 5));
  double traced_total = 0.0;
  for (double w : traced_wall) traced_total += w;
  PassLog lat;
  bench.latency_pass(out.tally, shape.latency_events, shape.rate_per_s,
                     lat, &tracer, open);
  traced_total += lat.wall_s;

  Report& r = out.report;
  r.add("serve.submit_ns_p50", median(closed.submit_ns), "ns");
  r.add("serve.pump_us_p50", median(open.pump_us), "us");
  r.add("serve.pump_us_p99", quantile(open.pump_us, 0.99), "us");
  r.add("serve.events_per_pump",
        static_cast<double>(open.pumped_events) /
            static_cast<double>(open.pumps),
        "count");
  r.add("serve.pump_busy_share", open.pump_busy_s / open.open_wall_s,
        "ratio");
  r.add("serve.queue_wait_us_p50", median(open.queue_wait_us), "us");
  r.add("serve.pump_empty_us", bench.empty_pump_us(2000), "us");
  r.add("serve.refused", static_cast<double>(bench.refused), "count");
  r.add("serve.shed_transitions", static_cast<double>(bench.shed_transitions),
        "count");
  report_counts(bench, r);
  r.add("harness.generator_lag_us_p99", quantile(open.lag_us, 0.99),
        "us");
  if (!own) return;
  const double events = static_cast<double>(closed.pumped_events +
                                            open.pumped_events);
  r.add("harness.bookkeeping_ns_per_event",
        (tracer.self_s_with_prefix("harness.generate") +
         tracer.self_s_with_prefix("harness.bookkeeping")) /
            events * 1e9,
        "ns");
  r.add("harness.unaccounted_share",
        unaccounted_share(tracer.total_self_s(), traced_total), "ratio");
  r.add("harness.trace_overhead",
        median(traced_wall) / median(untraced_wall) - 1.0, "ratio");
}

void run_serve(const Args& args, const ServeShape& shape, RunResult& out) {
  CpuPin pin;
  WorkDir work;
  StreamSpec spec = shape.stream;
  spec.seed = args.seed;
  const Stream stream = Stream::chicago(spec);
  const bool durable = shape.kill_round > 0;
  ServeBench bench(stream, shape.config, shape.warm_rounds, shape.window,
                   durable ? work.path() : std::string());
  bench.build_reference(out.tally);

  if (args.trace) {
    traced_serve_phases(bench, shape, args, /*own=*/true, out);
    if (durable)
      out.report.add("serve.recover_s",
                     bench.kill_and_recover(out.tally, shape.kill_round,
                                        shape.resume_end_round), "s");
    probe_decision_layers(stream, shape.config.break_even, work.path(),
                          /*report_recover=*/!durable, out);
    pin.release();  // the engine layers run on the full pool
    const sim::Fleet fleet = stream.as_fleet();
    // The engine layers on this workload's inputs: the stream's stops as
    // one fleet, evaluated at the service's break-even interval.
    engine_layer_metrics({std::make_shared<const sim::Fleet>(fleet)},
                         /*sampled=*/false, args.seed, 0.3 * args.seconds,
                         /*own=*/false, out);
  } else {
    const double budget = args.seconds;
    const double t_begin = now_s();
    const double setup_s = setup_median(bench);

    // Both phases run many short passes.
    // Capacity phase: until 40% of the run, at least three passes. Every
    // pass decides the same events, so the harmonic mean of the per-pass
    // rates is all decisions over all timed seconds, as on the engine
    // workloads; it averages over the CPUs the passes rotated through,
    // where a median would jump between them.
    std::vector<double> capacity;
    PassLog log;
    while (capacity.size() < 3 || now_s() - t_begin < 0.4 * budget) {
      pin.next();
      log.clear();
      capacity.push_back(bench.capacity_pass(
          out.tally, shape.capacity_end_round, log, nullptr, nullptr));
    }
    // Latency phase: until 85% of the run, at least three passes, each
    // with its own p50, p90 and p99; the run reports the median pass.
    std::vector<double> p50, p90, p99;
    std::uint64_t latency_samples = 0;
    while (p50.size() < 3 || now_s() - t_begin < 0.85 * budget) {
      pin.next();
      log.clear();
      ServeSamples samples;
      bench.latency_pass(out.tally, shape.latency_events, shape.rate_per_s,
                         log, nullptr, samples);
      p50.push_back(median(samples.latency_us));
      p90.push_back(quantile(samples.latency_us, 0.90));
      p99.push_back(quantile(samples.latency_us, 0.99));
      latency_samples += samples.latency_us.size();
    }
    double recover_s = 0.0;
    if (durable)
      recover_s = bench.kill_and_recover(out.tally, shape.kill_round,
                                         shape.resume_end_round);

    Report& r = out.report;
    r.add("setup_s", setup_s, "s");
    double inverse_sum = 0.0;
    for (double c : capacity) inverse_sum += 1.0 / c;
    r.add("capacity_per_s", static_cast<double>(capacity.size()) / inverse_sum,
          "1/s");
    r.add("latency_p50_us", median(p50), "us");
    r.add("latency_p90_us", median(p90), "us");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    Report& i = out.info;
    i.add("capacity_passes", static_cast<double>(capacity.size()), "count");
    i.add("latency_passes", static_cast<double>(p50.size()), "count");
    i.add("latency_samples", static_cast<double>(latency_samples), "count");
    i.add("latency_p99_us", median(p99), "us");
    i.add("latency_p99_us_worst_pass",
          *std::max_element(p99.begin(), p99.end()), "us");
    if (durable) i.add("recover_s", recover_s, "s");
  }
  (args.trace ? out.report : out.info)
      .add("shed_fraction", bench.shed_share(), "ratio");
}

/// serve_warm's service and load, also used to measure the serve layers on
/// the engine workloads' inputs.
ServeShape warm_shape() {
  ServeShape s;
  s.warm_rounds = 8;
  s.config.num_shards = 4;
  s.config.threads = kServeThreads;
  s.config.break_even = 28.0;
  s.config.warmup_stops = 8;
  s.config.queue_capacity = 8192;
  s.config.drain_batch = 1024;
  s.window = 2048;
  s.rate_per_s = 100000.0;
  return s;
}

}  // namespace

void run_serve_warm(const Args& args, RunResult& out) {
  ServeShape s = warm_shape();
  s.stream.vehicles = 4096;
  s.stream.rounds = 8 + 64;
  s.capacity_end_round = 8 + 64;
  s.latency_events = 16 * 4096;
  run_serve(args, s, out);
}

void run_serve_durable_cold(const Args& args, RunResult& out) {
  ServeShape s;
  s.stream.vehicles = 16 * 4096;
  s.stream.rounds = 5;
  s.stream.resend_share = 0.02;
  s.stream.out_of_order_share = 0.02;
  s.stream.invalid_share = 0.01;
  s.stream.poisoned_share = 0.002;
  s.warm_rounds = 1;
  s.config.num_shards = 4;
  s.config.threads = kServeThreads;
  s.config.break_even = 28.0;
  s.config.warmup_stops = 8;
  s.config.queue_capacity = 16384;
  s.config.drain_batch = 1024;
  // About 16.4K vehicles per shard and one event per vehicle per round: a
  // capacity pass (rounds 0-3, ~65K events per shard) checkpoints each
  // shard once, a latency pass (round 0 plus 16K events, ~20K per shard)
  // never, and the crash after round 2 (~49K) leaves a snapshot plus a WAL
  // tail to recover from.
  s.config.snapshot_every = 40000;
  s.window = 2048;
  // Every pump appends to and reopens the WAL of each shard it touches,
  // so a pump costs tens of microseconds however few events it carries;
  // at 25K events/s most pumps carry one event and the pump path is busy
  // about a third of the time.
  s.rate_per_s = 25000.0;
  s.capacity_end_round = 4;
  s.latency_events = 16384;
  s.kill_round = 3;
  s.resume_end_round = 5;
  run_serve(args, s, out);
}

void serve_layer_metrics(const Stream& stream, const Args& args,
                         RunResult& out) {
  CpuPin pin;
  ServeShape s = warm_shape();
  s.capacity_end_round = stream.rounds();
  s.latency_events = stream.size();
  ServeBench bench(stream, s.config, s.warm_rounds, s.window, std::string());
  bench.build_reference(out.tally);
  traced_serve_phases(bench, s, args, /*own=*/false, out);
  out.report.add("shed_fraction", bench.shed_share(), "ratio");
}

}  // namespace perfbench

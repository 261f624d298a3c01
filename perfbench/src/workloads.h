// The four benchmark workloads and the pieces they share.
//
// Every workload generates its inputs from the --seed argument, drives the
// program only through public entry points, and checks the outputs. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it reruns
// its phases with harness spans around each call into a layer and runs the
// layer probes over its own inputs, reporting the per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cli.h"
#include "measure.h"
#include "serve/event.h"
#include "sim/trace.h"

namespace idlered::serve {
class DecisionService;
}

namespace perfbench {

namespace serve = idlered::serve;
namespace sim = idlered::sim;

/// What one workload run hands back to main().
struct RunResult {
  Report report;  ///< the metrics the result line carries
  Report info;    ///< printed for the reader only (zero-valued or
                  ///< workload-specific figures)
  Tally tally;
};

void run_serve_warm(const Args& args, RunResult& out);
void run_serve_durable_cold(const Args& args, RunResult& out);
void run_engine_expected(const Args& args, RunResult& out);
void run_engine_sampled(const Args& args, RunResult& out);

/// Stop-event stream addressed by ordinal, so due times, expected
/// decisions and latencies are plain arrays indexed by ordinal. Round r
/// holds one event per vehicle, vehicle v at ordinal r * V + v; vehicle
/// ids are 0..V-1. A normal event carries seq r + 1 and timestamp
/// 100 (r + 1) s. Special kinds appear only on odd rounds, so the round
/// before a special event is always normal:
///   re-send       repeats the previous round's event (seq r: stale);
///   out-of-order  seq r + 1 with a timestamp before the previous event's;
///   invalid       seq r + 1 with a negative stop length.
/// Poisoned vehicles send only invalid stops from round 1 on, so the
/// service quarantines them.
struct StreamSpec {
  std::uint64_t seed = 0;
  std::size_t vehicles = 0;
  std::size_t rounds = 0;
  double resend_share = 0.0;        ///< of odd-round events
  double out_of_order_share = 0.0;  ///< of odd-round events
  double invalid_share = 0.0;       ///< of odd-round events
  double poisoned_share = 0.0;      ///< of vehicles
};

class Stream {
 public:
  /// Stop lengths are the first `spec.rounds` stops of the first
  /// `spec.vehicles` fleet vehicles that have at least that many; throws
  /// std::invalid_argument if too few have. The special kinds are drawn on
  /// top from counter-based hashes of `spec.seed`.
  Stream(const StreamSpec& spec, const sim::Fleet& fleet);

  /// A stream over vehicles drawn from the paper's Chicago stop law
  /// (traces::chicago() at its own mean), generated from `spec.seed`.
  static Stream chicago(const StreamSpec& spec);

  std::size_t vehicles() const { return spec_.vehicles; }
  std::size_t rounds() const { return spec_.rounds; }
  std::size_t size() const { return spec_.vehicles * spec_.rounds; }
  serve::StopEvent at(std::size_t ordinal) const;

  /// Highest seq among rounds [0, rounds) of one vehicle (0 if none).
  std::uint64_t last_seq_before(std::size_t vehicle, std::size_t rounds) const;

  /// Every vehicle's stops as a fleet (what the engine layers see).
  sim::Fleet as_fleet() const;

 private:
  enum class Kind { kNormal, kResend, kOutOfOrder, kInvalid };
  Kind kind(std::size_t round, std::size_t vehicle) const;
  double length(std::size_t round, std::size_t vehicle) const;

  StreamSpec spec_;
  std::vector<double> lengths_;  ///< stop of vehicle v, round r at v * rounds + r
};

struct ServeSamples;  // serve_workload.cpp

/// The one closed-loop feeder of every serve pass and probe: keeps at most
/// `window` events of ordinals [first, end) in flight, pumps, and retries a
/// refused submit after the next pump. Appends the decisions to `out` and
/// returns the wall time. A pump that emits nothing while every queue is
/// empty means the service lost the rest; those events are written off
/// (the caller's checks count each as undecided) instead of being waited
/// for forever. With a tracer, spans wrap each call into the service and
/// `samples` collects their durations.
double closed_loop(serve::DecisionService& svc, const Stream& stream,
                   std::size_t first, std::size_t end, std::size_t window,
                   std::vector<serve::Decision>& out, Tracer* tracer = nullptr,
                   ServeSamples* samples = nullptr);

/// The serve every-run metrics (serve.*, shed_fraction) from a traced
/// in-memory service fed `stream`: how engine workloads measure the serve
/// layers on their own inputs.
void serve_layer_metrics(const Stream& stream, const Args& args,
                         RunResult& out);

/// Traced probes of robust, stats, core/lp, serve storage and obs over the
/// stream's events; serve.recover_s too when `report_recover`.
void probe_decision_layers(const Stream& stream, double break_even,
                           const std::string& work_dir, bool report_recover,
                           RunResult& out);

/// The engine every-run metrics (engine.*) from a session over `fleets`,
/// run untraced and traced in turn for about 0.3 * `seconds`, plus the
/// engine probes. With `own` (the engine workloads) also the harness
/// accounting of those runs.
void engine_layer_metrics(
    const std::vector<std::shared_ptr<const sim::Fleet>>& fleets,
    bool sampled, std::uint64_t seed, double seconds, bool own,
    RunResult& out);

/// Traced probes of VehicleCache, StrategyBuilder, the batch kernels and
/// MOM-Rand draws over a subsample of the fleets' vehicles.
void probe_engine_layers(
    const std::vector<std::shared_ptr<const sim::Fleet>>& fleets,
    double break_even, bool sampled, RunResult& out);

/// Pump worker threads of every service the benchmark builds. A pump
/// returns only when all of its workers have drained their shards, so on a
/// shared virtual machine a multi-worker pump waits on the slowest of
/// several thread wake-ups, and that noise swamps the per-event latency.
/// One worker keeps the hand-off in every pump and makes it measurable
/// (serve.pump_empty_us); the engine workloads run the pool at full width.
inline constexpr int kServeThreads = 1;

/// Hardware threads, capped at 4 (the benchmark's reference machine).
int bench_threads();

/// Scratch directory for durable state next to the benchmark binary, in
/// the build tree; removed again by the destructor.
class WorkDir {
 public:
  WorkDir();
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench

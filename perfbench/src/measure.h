// The benchmark's own arithmetic: clocks, the percentile convention,
// harness spans with self time, failure tallies and the metric report.
//
// Nothing here calls into IdleRed, so every number the benchmark prints is
// computed by code the self-tests (tests/test_measure.cpp) cover.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank convention: of n ascending samples, the q-quantile is the
/// one at 1-based rank ceil(q * n), clamped to [1, n]. No interpolation, so
/// every reported quantile is a value that was actually measured; the
/// median of an even count is the lower middle sample.
std::size_t nearest_rank(std::size_t n, double q);

/// Quantile of an ascending sample under the nearest-rank convention.
/// Throws std::invalid_argument on an empty sample or q outside (0, 1].
double quantile_sorted(std::span<const double> sorted, double q);

/// Quantile of an unsorted sample (sorts a copy).
double quantile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Harness spans around calls into the program's layers. Spans nest; a
/// span's self time is its duration minus the durations of its direct
/// children. Times are passed in, so tests can drive the arithmetic with
/// synthetic clocks.
class Tracer {
 public:
  struct LayerStat {
    std::uint64_t count = 0;
    double total_s = 0.0;  ///< inclusive duration
    double self_s = 0.0;   ///< duration minus direct children
  };

  /// Register a layer name ("serve.submit", "harness.generate", ...);
  /// returns its id. Registering a name twice returns the same id.
  std::size_t layer(std::string_view name);

  void begin(std::size_t layer_id, double t);
  /// Closes the innermost open span; returns its duration.
  double end(double t);

  const LayerStat& stat(std::size_t layer_id) const { return stats_[layer_id]; }
  std::size_t open_spans() const { return stack_.size(); }

  /// Sum of self time over every layer: the part of the traced interval
  /// the spans account for.
  double total_self_s() const;
  /// Sum of self time over layers whose name starts with `prefix`.
  double self_s_with_prefix(std::string_view prefix) const;

 private:
  struct Open {
    std::size_t layer;
    double t0;
    double child_s;
  };
  std::vector<std::string> names_;
  std::vector<LayerStat> stats_;
  std::vector<Open> stack_;
};

/// RAII span; a null tracer makes it a no-op, so one code path serves
/// the untraced and the traced run.
class Span {
 public:
  Span(Tracer* tracer, std::size_t layer_id) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer_id, now_s());
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(now_s());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// 1 - accounted / wall: the share of a traced interval no span covers.
/// Throws std::invalid_argument unless wall > 0.
double unaccounted_share(double accounted_s, double wall_s);

/// Offered items (events or cells) against items that got no result or a
/// wrong one. An item is counted failed at most once.
class Tally {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Record `n` failed items; keeps the first few reasons for the log.
  void fail(std::string_view reason, std::uint64_t n = 1);
  std::uint64_t attempted() const { return attempted_; }
  /// Failed items, never more than attempted.
  std::uint64_t failed() const;
  double failed_fraction() const;
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters. Units: letters, digits, '_', '/', '%', '.', '-';
/// 1 to 16 characters.
bool valid_metric_name(std::string_view name);
bool valid_unit(std::string_view unit);

/// The metrics one run prints, in insertion order.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  /// Throws std::invalid_argument on an invalid or repeated name, an
  /// invalid unit, or a non-finite value.
  void add(std::string_view name, double value, std::string_view unit);

  bool has(std::string_view name) const;

  /// Human-readable "name value unit" lines.
  std::string text() const;
  /// The one-line result object the benchmark prints last.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench

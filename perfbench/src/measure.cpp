#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("nearest_rank: empty sample");
  if (!(q > 0.0) || q > 1.0)
    throw std::invalid_argument("nearest_rank: q must be in (0, 1]");
  // The epsilon keeps q * n from rounding up past an exact integer
  // (0.99 * 100 is 99.00000000000001 in binary floating point).
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

std::size_t Tracer::layer(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  names_.emplace_back(name);
  stats_.emplace_back();
  return names_.size() - 1;
}

void Tracer::begin(std::size_t layer_id, double t) {
  if (layer_id >= names_.size())
    throw std::out_of_range("Tracer::begin: unknown layer");
  stack_.push_back(Open{layer_id, t, 0.0});
}

double Tracer::end(double t) {
  if (stack_.empty()) throw std::logic_error("Tracer::end: no open span");
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = t - open.t0;
  LayerStat& s = stats_[open.layer];
  ++s.count;
  s.total_s += dur;
  s.self_s += dur - open.child_s;
  if (!stack_.empty()) stack_.back().child_s += dur;
  return dur;
}

double Tracer::total_self_s() const { return self_s_with_prefix(""); }

double Tracer::self_s_with_prefix(std::string_view prefix) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (std::string_view(names_[i]).substr(0, prefix.size()) == prefix)
      sum += stats_[i].self_s;
  return sum;
}

double unaccounted_share(double accounted_s, double wall_s) {
  if (!(wall_s > 0.0))
    throw std::invalid_argument("unaccounted_share: wall must be > 0");
  return 1.0 - accounted_s / wall_s;
}

void Tally::fail(std::string_view reason, std::uint64_t n) {
  failed_ += n;
  if (reasons_.size() < 8) reasons_.emplace_back(reason);
}

std::uint64_t Tally::failed() const { return std::min(failed_, attempted_); }

double Tally::failed_fraction() const {
  if (attempted_ == 0) return failed_ > 0 ? 1.0 : 0.0;
  return static_cast<double>(failed()) / static_cast<double>(attempted_);
}

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void Report::add(std::string_view name, double value, std::string_view unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("Report: invalid metric name '" +
                                std::string(name) + "'");
  if (!valid_unit(unit))
    throw std::invalid_argument("Report: invalid unit '" + std::string(unit) +
                                "' for " + std::string(name));
  if (!std::isfinite(value))
    throw std::invalid_argument("Report: non-finite value for " +
                                std::string(name));
  if (has(name))
    throw std::invalid_argument("Report: metric reported twice: " +
                                std::string(name));
  metrics_.push_back(Metric{std::string(name), value, std::string(unit)});
}

bool Report::has(std::string_view name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::text() const {
  std::string out;
  for (const Metric& m : metrics_) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-36s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  // Names and units are restricted to characters that need no escaping.
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0)
    throw std::runtime_error("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench

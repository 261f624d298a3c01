#include <cstdio>
#include <stdexcept>

#include "traces/area_profiles.h"
#include "traces/fleet_generator.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform in (0, 1) from a hash of (seed, a, b, salt).
double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
            std::uint64_t salt) {
  const std::uint64_t h =
      splitmix(splitmix(splitmix(seed ^ salt) ^ a) ^ b);
  return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
}

/// Vehicles generated per batch while looking for long enough traces.
constexpr int kBatch = 1024;

}  // namespace

Stream::Stream(const StreamSpec& spec, const sim::Fleet& fleet)
    : spec_(spec) {
  if (spec_.vehicles == 0 || spec_.rounds == 0)
    throw std::invalid_argument("Stream: empty stream");
  if (spec_.resend_share + spec_.out_of_order_share + spec_.invalid_share >
      1.0)
    throw std::invalid_argument("Stream: special shares exceed 1");
  lengths_.reserve(spec_.vehicles * spec_.rounds);
  std::size_t taken = 0;
  for (const sim::StopTrace& t : fleet) {
    if (taken == spec_.vehicles) break;
    if (t.stops.size() < spec_.rounds) continue;
    lengths_.insert(lengths_.end(), t.stops.begin(),
                    t.stops.begin() + static_cast<std::ptrdiff_t>(spec_.rounds));
    ++taken;
  }
  if (taken < spec_.vehicles)
    throw std::invalid_argument("Stream: too few vehicles with enough stops");
}

Stream Stream::chicago(const StreamSpec& spec) {
  const auto profile = idlered::traces::chicago();
  idlered::util::Rng rng(spec.seed);
  // Only vehicles with at least `rounds` stops in their week are kept,
  // each cut to its first `rounds` stops, so the generated weeks never
  // pile up in memory. Stop count and stop lengths are drawn independently
  // per vehicle, so the selection leaves the stop law as it is.
  sim::Fleet kept;
  kept.reserve(spec.vehicles);
  for (std::uint64_t batch = 0; kept.size() < spec.vehicles; ++batch) {
    idlered::util::Rng batch_rng = rng.fork(batch);
    for (sim::StopTrace& t : idlered::traces::generate_scaled_fleet(
             profile, profile.mean_stop_s, kBatch, batch_rng)) {
      if (kept.size() == spec.vehicles) break;
      if (t.stops.size() < spec.rounds) continue;
      t.stops.resize(spec.rounds);
      t.stops.shrink_to_fit();
      kept.push_back(std::move(t));
    }
  }
  return Stream(spec, kept);
}

Stream::Kind Stream::kind(std::size_t round, std::size_t vehicle) const {
  if (round == 0) return Kind::kNormal;
  if (spec_.poisoned_share > 0.0 &&
      unit(spec_.seed, vehicle, 0, 0x9015) < spec_.poisoned_share)
    return Kind::kInvalid;
  if (round % 2 == 0) return Kind::kNormal;
  const double u = unit(spec_.seed, vehicle, round, 0x5bec);
  if (u < spec_.resend_share) return Kind::kResend;
  if (u < spec_.resend_share + spec_.out_of_order_share)
    return Kind::kOutOfOrder;
  if (u < spec_.resend_share + spec_.out_of_order_share + spec_.invalid_share)
    return Kind::kInvalid;
  return Kind::kNormal;
}

double Stream::length(std::size_t round, std::size_t vehicle) const {
  return lengths_[vehicle * spec_.rounds + round];
}

serve::StopEvent Stream::at(std::size_t ordinal) const {
  const std::size_t v = ordinal % spec_.vehicles;
  const std::size_t r = ordinal / spec_.vehicles;
  serve::StopEvent e;
  e.vehicle = v;
  e.seq = r + 1;
  e.timestamp_s = 100.0 * static_cast<double>(r + 1);
  switch (kind(r, v)) {
    case Kind::kNormal:
      e.stop_length_s = length(r, v);
      break;
    case Kind::kResend:
      e.seq = r;
      e.timestamp_s = 100.0 * static_cast<double>(r);
      e.stop_length_s = length(r - 1, v);
      break;
    case Kind::kOutOfOrder:
      e.timestamp_s = 100.0 * static_cast<double>(r) - 50.0;
      e.stop_length_s = length(r, v);
      break;
    case Kind::kInvalid:
      e.stop_length_s = -length(r, v);
      break;
  }
  return e;
}

std::uint64_t Stream::last_seq_before(std::size_t vehicle,
                                      std::size_t rounds) const {
  std::uint64_t last = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t seq = at(r * spec_.vehicles + vehicle).seq;
    if (seq > last) last = seq;
  }
  return last;
}

sim::Fleet Stream::as_fleet() const {
  sim::Fleet fleet(spec_.vehicles);
  for (std::size_t v = 0; v < spec_.vehicles; ++v) {
    sim::StopTrace& t = fleet[v];
    char id[24];
    std::snprintf(id, sizeof id, "v%zu", v);
    t.vehicle_id = id;
    t.area = "stream";
    for (std::size_t r = 0; r < spec_.rounds; ++r) {
      const double y = at(r * spec_.vehicles + v).stop_length_s;
      if (y > 0.0) t.stops.push_back(y);
    }
  }
  return fleet;
}

}  // namespace perfbench

#include "cli.h"

#include <algorithm>
#include <limits>

namespace perfbench {

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return std::nullopt;
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               const std::vector<std::string>& workloads,
                               std::string& error) {
  static const std::vector<std::string> kFlags = {"--workload", "--seed",
                                                  "--seconds", "--trace"};
  std::vector<std::optional<std::string>> values(kFlags.size());
  for (std::size_t i = 0; i < argv.size(); ++i) {
    std::string flag = argv[i];
    std::optional<std::string> value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    const auto it = std::find(kFlags.begin(), kFlags.end(), flag);
    if (it == kFlags.end()) {
      error = "unknown argument '" + argv[i] + "'";
      return std::nullopt;
    }
    if (!value) {
      if (i + 1 == argv.size()) {
        error = flag + " needs a value";
        return std::nullopt;
      }
      value = argv[++i];
    }
    auto& slot = values[static_cast<std::size_t>(it - kFlags.begin())];
    if (slot) {
      error = flag + " given twice";
      return std::nullopt;
    }
    slot = std::move(value);
  }
  for (std::size_t f = 0; f < kFlags.size(); ++f) {
    if (!values[f]) {
      error = "missing " + kFlags[f];
      return std::nullopt;
    }
  }

  Args args;
  args.workload = *values[0];
  if (std::find(workloads.begin(), workloads.end(), args.workload) ==
      workloads.end()) {
    error = "unknown workload '" + args.workload + "'";
    return std::nullopt;
  }
  const auto seed =
      parse_uint(*values[1], 0, std::numeric_limits<std::uint64_t>::max());
  if (!seed) {
    error = "--seed must be a non-negative integer, got '" + *values[1] + "'";
    return std::nullopt;
  }
  args.seed = *seed;
  const auto seconds = parse_uint(*values[2], 1, 600);
  if (!seconds) {
    error = "--seconds must be an integer in [1, 600], got '" + *values[2] +
            "'";
    return std::nullopt;
  }
  args.seconds = static_cast<int>(*seconds);
  const auto trace = parse_uint(*values[3], 0, 1);
  if (!trace) {
    error = "--trace must be 0 or 1, got '" + *values[3] + "'";
    return std::nullopt;
  }
  args.trace = *trace == 1;
  return args;
}

std::string usage(const std::vector<std::string>& workloads) {
  std::string out =
      "usage: perfbench --workload <name> --seed <n> --seconds <1-600> "
      "--trace <0|1>\nworkloads:";
  for (const std::string& w : workloads) out += " " + w;
  out += "\n";
  return out;
}

}  // namespace perfbench

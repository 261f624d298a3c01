// Strict command line of the perfbench binary:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every flag is required exactly once, in either `--flag value` or
// `--flag=value` form. An unknown flag, a repeated or missing one, or a
// value that does not parse in full is an error; so is `--help`, which
// prints the usage like any other misuse.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

/// Parse a whole decimal unsigned integer in [lo, hi]; no sign, no
/// whitespace, no trailing characters.
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi);

/// Returns the arguments, or nullopt with `error` set.
std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               const std::vector<std::string>& workloads,
                               std::string& error);

std::string usage(const std::vector<std::string>& workloads);

}  // namespace perfbench

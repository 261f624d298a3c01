// perfbench: the IdleRed benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints every metric as "name value unit", then, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics. Exits 0 only if every correctness check passed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <thread>

#include "workloads.h"

namespace perfbench {

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

WorkDir::WorkDir() {
  // Next to the executable, which lives in the benchmark's build tree.
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe");
  path_ = (exe.parent_path() / ("work-" + std::to_string(::getpid())))
              .string();
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  struct Workload {
    const char* name;
    std::function<void(const Args&, RunResult&)> run;
  };
  const std::vector<Workload> table = {
      {"serve_warm", run_serve_warm},
      {"serve_durable_cold", run_serve_durable_cold},
      {"engine_expected", run_engine_expected},
      {"engine_sampled", run_engine_sampled},
  };
  std::vector<std::string> names;
  for (const Workload& w : table) names.emplace_back(w.name);

  std::string error;
  const auto args = parse_args(std::vector<std::string>(argv + 1, argv + argc),
                               names, error);
  if (!args) {
    std::fprintf(stderr, "perfbench: %s\n%s", error.c_str(),
                 usage(names).c_str());
    return 2;
  }

  RunResult result;
  try {
    for (const Workload& w : table)
      if (args->workload == w.name) w.run(*args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args->workload.c_str(),
                 e.what());
    return 1;
  }

  const Tally& tally = result.tally;
  const bool correct = tally.failed() == 0 && tally.attempted() > 0;
  std::printf("workload %s, seed %llu, %d s, trace %d\n",
              args->workload.c_str(),
              static_cast<unsigned long long>(args->seed), args->seconds,
              args->trace ? 1 : 0);
  std::printf("%s", result.report.text().c_str());
  std::printf("%s", result.info.text().c_str());
  std::printf("  %-36s %16.6g ratio (%llu of %llu)\n", "failed_fraction",
              tally.failed_fraction(),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));
  for (const std::string& reason : tally.reasons())
    std::printf("  FAILED: %s\n", reason.c_str());
  std::printf("%s\n", result.report
                          .json(correct, std::max<std::uint64_t>(
                                             tally.attempted(), 1),
                                tally.failed())
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// End-to-end benchmark of the sharded FLAT store.
//
//   flat_e2e --workload <sn_disk|lss_viewport> --seed <n>
//            --seconds <s> --trace <0|1> --tmp-dir <dir>
//            [--spans-out <file>] [--git-sha <sha>]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones
// (a separate run, see trace.cc). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any answer
// that differs from the grid oracle makes "correct" false and the exit
// code 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "geometry/box_kernels.h"

#ifndef FLAT_E2E_BUILD_TYPE
#define FLAT_E2E_BUILD_TYPE "unknown"
#endif
#ifndef FLAT_E2E_COMPILER
#define FLAT_E2E_COMPILER "unknown"
#endif

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: flat_e2e --workload "
               "<sn_disk|lss_viewport> --seed <n> --seconds <s> "
               "--trace <0|1> --tmp-dir <dir> [--spans-out <file>] "
               "[--git-sha <sha>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Config config;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      config.workload_name = value;
      if (value == "sn_disk") {
        config.workload = e2e::Workload::kSnDisk;
      } else if (value == "lss_viewport") {
        config.workload = e2e::Workload::kLssViewport;
      } else {
        return Usage("unknown workload");
      }
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      config.tmp_root = value;
    } else if (flag == "--spans-out") {
      config.spans_path = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || config.tmp_root.empty() || !(config.seconds > 0)) {
    return Usage("--workload, --seconds and --tmp-dir are required");
  }
  config.threads = std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "# stamp {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %zu, \"isa\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_sha\": \"%s\"}\n",
      config.workload_name.c_str(),
      static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0,
      config.threads, flat::BoxKernelIsa(), FLAT_E2E_BUILD_TYPE,
      FLAT_E2E_COMPILER, git_sha.c_str());
  std::fflush(stdout);

  const e2e::CpuTicks ticks_before = e2e::ReadCpuTicks();
  e2e::RunOutcome outcome;
  try {
    outcome = config.trace ? e2e::TraceWorkload(config)
                           : e2e::RunWorkload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // On a virtual machine whose host is busy, a run reads slow throughout;
  // the share of CPU time the host took says how far to trust it.
  std::printf("# host steal: %.1f %% of CPU time during the run\n",
              100.0 * e2e::StealShare(ticks_before, e2e::ReadCpuTicks()));
  const bool correct = outcome.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      outcome.metrics.Json().c_str());
  return correct ? 0 : 1;
}

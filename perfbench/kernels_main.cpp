// The Table 1 kernels as a plain threaded program: every kernel is
// instantiated with rt::NullTool, so rt::Array/Var/Mutex/Barrier/Thread
// sit on std::atomic, std::mutex, std::condition_variable and std::thread
// and the program carries no analysis of its own. Compiled with
// -fsanitize=thread, its element accesses become __tsan_* events.
//
// The vft support code this needs (registry, shadow and report) is
// compiled with the namespace renamed (-Dvft=kvft; see CMakeLists.txt),
// so none of the target's symbols can interpose libvft_preload's own.
//
// Usage: kernels --seed N [--reps R]
// Runs sor, lufact and sparse (scale 1, 2 threads), in kernel-table
// order, R times, printing one line per run:
//   kernel <name> ms=<wall> checksum=<value> valid=<0|1>
// --reps 0 starts and joins the threads and runs no kernel.
//
// Only kernels whose checksum does not depend on the schedule are run:
// montecarlo, avrora, h2 and tomcat reduce in completion order, so their
// checksums differ from run to run even natively.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "kernels/all.h"

namespace {

constexpr const char* kKernels[] = {"sor", "lufact", "sparse"};

}  // namespace

int main(int argc, char** argv) {
  using namespace vft;
  kernels::KernelConfig cfg;
  // Two threads, not nproc: the analysis takes millions of internal
  // locks per run, and with a thread on every vCPU of a shared host a
  // preempted lock holder stalls the rest, so even the CPU time a run
  // costs would follow the host's load.
  cfg.threads = 2;
  cfg.scale = 1;
  int reps = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* a = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(a, "--seed") == 0) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--reps") == 0) {
      reps = std::atoi(v);
    } else {
      std::fprintf(stderr, "kernels: unknown option %s\n", a);
      return 2;
    }
  }
  if (reps < 0 || (argc - 1) % 2 != 0) {
    std::fprintf(stderr, "usage: kernels --seed N [--reps R]\n");
    return 2;
  }
  std::vector<kernels::KernelEntry<rt::NullTool>> chosen;
  for (const auto& e : kernels::kernel_table<rt::NullTool>()) {
    for (const char* name : kKernels) {
      if (std::strcmp(e.name, name) == 0) chosen.push_back(e);
    }
  }

  if (reps == 0) {
    std::vector<std::thread> idle;
    for (std::uint32_t t = 0; t < cfg.threads; ++t) idle.emplace_back([] {});
    for (auto& t : idle) t.join();
    return 0;
  }
  for (int r = 0; r < reps; ++r) {
    for (const auto& e : chosen) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto [result, races] = kernels::run_kernel<rt::NullTool>(e.fn, cfg);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      (void)races;
      std::printf("kernel %s ms=%.4f checksum=%.17g valid=%d\n", e.name, ms,
                  result.checksum, result.valid ? 1 : 0);
    }
  }
  return 0;
}

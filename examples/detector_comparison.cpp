// Detector bake-off on a single workload: run one kernel from the suite
// under every detector in the family and print time, reports, and the
// rule mix - the quickest way to feel the Table 1 tradeoffs.
//
// The optional second argument selects the shadow backend for kernels
// ported to the address-keyed API (sor, lufact), doubling as a smoke test
// for the --shadow plumbing: per-run backend stats are printed so a
// misrouted backend is visible immediately. The exit status is 1 when
// any detector's run leaves the kernel's output invalid.
//
//   $ ./detector_comparison              # sparse (read-shared-heavy)
//   $ ./detector_comparison raytracer    # any kernel from the suite
//   $ ./detector_comparison sor space     # grid shadow from the ShadowSpace
//   $ ./detector_comparison lufact packed # ... or the packed 64-bit cells
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "kernels/all.h"

namespace {

using namespace vft;
using namespace vft::kernels;

/// Runs the kernel under D; returns the kernel's `valid` flag.
template <typename D, typename... Args>
bool run_one(const char* kernel_name, ShadowBackend backend, Args&&... args) {
  const auto table = kernel_table<D>();
  for (const auto& e : table) {
    if (std::string(e.name) != kernel_name) continue;
    RaceCollector races;
    RuleStats stats;
    rt::Runtime<D> R(D(&races, &stats, std::forward<Args>(args)...));
    typename rt::Runtime<D>::MainScope scope(R);
    KernelConfig cfg;
    cfg.threads = 4;
    cfg.scale = 4;
    cfg.shadow = backend;
    const auto t0 = std::chrono::steady_clock::now();
    const KernelResult result = e.fn(R, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const std::uint64_t total = stats.total_accesses();
    const std::uint64_t fast = stats.count(Rule::kReadSameEpoch) +
                               stats.count(Rule::kWriteSameEpoch) +
                               stats.count(Rule::kReadSharedSameEpoch);
    std::printf("%-16s %8.4fs  valid=%d  races=%-3zu  accesses=%-10llu "
                "fast-path=%5.1f%%\n",
                D::kName, secs, result.valid ? 1 : 0, races.count(),
                static_cast<unsigned long long>(total),
                total ? 100.0 * static_cast<double>(fast) /
                            static_cast<double>(total)
                      : 0.0);
    if (R.has_shadow_space()) {
      std::printf("%-16s   shadow space: %s\n", "",
                  rt::str(R.shadow_space().stats()).c_str());
    }
    if (R.has_packed_space()) {
      std::printf("%-16s   packed space: %s\n", "",
                  rt::str(R.packed_space().stats()).c_str());
    }
    return result.valid;
  }
  std::fprintf(stderr, "unknown kernel %s\n", kernel_name);
  std::exit(2);
}

void run_base(const char* kernel_name, ShadowBackend backend) {
  for (const auto& e : kernel_table<rt::NullTool>()) {
    if (std::string(e.name) != kernel_name) continue;
    RaceCollector races;
    rt::Runtime<rt::NullTool> R{rt::NullTool(&races)};
    rt::Runtime<rt::NullTool>::MainScope scope(R);
    KernelConfig cfg;
    cfg.threads = 4;
    cfg.scale = 4;
    cfg.shadow = backend;
    const auto t0 = std::chrono::steady_clock::now();
    e.fn(R, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("%-16s %8.4fs  (uninstrumented base)\n", "none",
                std::chrono::duration<double>(t1 - t0).count());
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* kernel = argc > 1 ? argv[1] : "sparse";
  ShadowBackend backend = ShadowBackend::kInline;
  if (argc > 2) {
    if (std::strcmp(argv[2], "space") == 0) {
      backend = ShadowBackend::kSpace;
    } else if (std::strcmp(argv[2], "packed") == 0) {
      backend = ShadowBackend::kPacked;
    } else if (std::strcmp(argv[2], "inline") != 0) {
      std::fprintf(stderr, "unknown shadow backend %s (inline|space|packed)\n",
                   argv[2]);
      return 2;
    }
  }
  std::printf("kernel: %s (4 threads, scale 4, shadow backend: %s)\n\n",
              kernel, shadow_backend_name(backend));
  run_base(kernel, backend);
  bool valid = run_one<VftV1>(kernel, backend);
  valid &= run_one<VftV15>(kernel, backend);
  valid &= run_one<VftV2>(kernel, backend);
  valid &= run_one<FtMutex>(kernel, backend);
  valid &= run_one<FtCas>(kernel, backend);
  valid &= run_one<Djit>(kernel, backend);
  std::printf("\nSee bench_table1 for the full suite with warm-up and "
              "repetition.\n");
  if (!valid) {
    std::fprintf(stderr, "detector_comparison: a run left %s's output "
                 "invalid (valid=0 above)\n", kernel);
    return 1;
  }
  return 0;
}

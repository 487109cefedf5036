// Experiment E10: read-shared contention scaling. Section 4 attributes
// VerifiedFT-v1's 15x overhead to two costs: the per-access lock
// round-trip, and lock contention on read-shared VarStates, which "in
// effect serializes otherwise-concurrent accesses to read-shared
// variables". This bench isolates that effect: T threads repeatedly read
// one small shared table; reported is wall time per detector and thread
// count, normalized to ns per access.
//
// Beyond the detector columns, two *mode* columns pin down where the
// deployed stack sits relative to the inlined-wrapper ideal:
//   abi     the same workload pushed through the C ABI's vft_read8
//           (header-inlined fast path + virtual slow dispatch on the
//           process-global session) - what an LD_PRELOADed binary
//           actually pays;
//   packed  the same workload on the packed-cell shadow space with the
//           v2 tool (the out-of-line fast-path floor the ABI's inline
//           header is chasing).
//
// On a single-core host the *contention* component is muted (threads
// time-slice rather than collide), so the per-access lock cost dominates;
// on a multi-core host the v1 column degrades with T while v2 stays flat.
// EXPERIMENTS.md discusses both regimes.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "abi/vft_abi.h"
#include "harness.h"
#include "runtime/session.h"

namespace {

using namespace vft;
using namespace vft::bench;

volatile std::uint64_t g_sink;
void benchmark_keep(std::uint64_t v) { g_sink = v; }

constexpr std::size_t kEntries = 128;

std::size_t reps_for(std::uint32_t scale) { return 2000ull * scale; }

/// ns per access for a wall-time of `secs`: each of T threads performs
/// reps * entries reads concurrently, so the per-access latency a thread
/// observes is wall / (reps * entries).
double ns_access(double secs, std::uint32_t scale) {
  return 1e9 * secs /
         (static_cast<double>(reps_for(scale)) *
          static_cast<double>(kEntries));
}

template <Detector D, typename... ToolArgs>
double run_read_shared(std::uint32_t threads, std::uint32_t scale,
                       ToolArgs&&... args) {
  RaceCollector races;
  rt::Runtime<D> R(D(&races, std::forward<ToolArgs>(args)...));
  typename rt::Runtime<D>::MainScope scope(R);
  const std::size_t reps = reps_for(scale);
  rt::Array<std::uint64_t, D> table(R, kEntries, 3);
  const auto t0 = std::chrono::steady_clock::now();
  rt::parallel_for_threads(R, threads, [&](std::uint32_t) {
    std::uint64_t acc = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < kEntries; ++i) acc += table.load(i);
    }
    benchmark_keep(acc);
  });
  const auto t1 = std::chrono::steady_clock::now();
  VFT_CHECK(races.empty());
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Mode `packed`: the same sweep against the packed-cell shadow space.
/// Under multiple readers the cells spill to read-shared VarStates and
/// the gated path carries the traffic; with one reader the 64-bit cell
/// compare is the whole access.
double run_read_shared_packed(std::uint32_t threads, std::uint32_t scale) {
  RaceCollector races;
  rt::Runtime<VftV2> R{VftV2(&races)};
  rt::Runtime<VftV2>::MainScope scope(R);
  const std::size_t reps = reps_for(scale);
  std::vector<std::uint64_t> table(kEntries, 3);
  auto& pspace = R.packed_space();
  for (const std::uint64_t& w : table) {
    rt::instrumented_write(R, pspace, &w);
  }
  const auto t0 = std::chrono::steady_clock::now();
  rt::parallel_for_threads(R, threads, [&](std::uint32_t) {
    std::uint64_t acc = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < kEntries; ++i) {
        acc += rt::instrumented_read(R, pspace, &table[i]);
      }
    }
    benchmark_keep(acc);
  });
  const auto t1 = std::chrono::steady_clock::now();
  VFT_CHECK(races.empty());
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Mode `abi`: the same sweep through vft_read8 on the process-global
/// session - TLS descriptor, inline same-epoch path, virtual slow
/// dispatch, reentrancy guard: the whole per-access interposition stack.
/// Children are forked through the ABI token protocol so their reads are
/// ordered after the parent's publishing writes (race-free).
double run_read_shared_abi(std::uint32_t threads, std::uint32_t scale) {
  namespace amb = rt::ambient;
  amb::Session::instance().configure("v2");
  amb::Session::instance().reset();
  const std::size_t reps = reps_for(scale);
  std::vector<std::uint64_t> table(kEntries, 3);
  vft_attach();
  for (const std::uint64_t& w : table) vft_write8(&w);

  std::vector<std::uint64_t> toks(threads);
  for (auto& tk : toks) tk = vft_thread_create();
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      vft_thread_begin(toks[t]);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t acc = 0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < kEntries; ++i) {
          vft_read8(&table[i]);
          acc += i;
        }
      }
      benchmark_keep(acc);
      vft_detach();
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();
  for (const std::uint64_t tk : toks) vft_thread_join(tk);
  VFT_CHECK(vft_race_count() == 0);
  vft_detach();
  amb::Session::instance().reset();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  JsonReport report("scaling");
  report.context("scale", std::to_string(bc.scale));
  std::printf("Read-shared scaling: T threads re-reading one shared table "
              "(ns/access; scale=%u)\n\n", bc.scale);
  std::printf("%8s %10s %10s %10s %10s %10s %10s %10s %10s\n", "threads",
              "none", "v1", "v1.5", "v2", "FT-Mutex", "FT-CAS", "packed",
              "abi");
  for (const std::uint32_t t : {1u, 2u, 4u, 8u}) {
    const double n0 = run_read_shared<rt::NullTool>(t, bc.scale);
    const double v1 = run_read_shared<VftV1>(t, bc.scale);
    const double v15 = run_read_shared<VftV15>(t, bc.scale);
    const double v2 = run_read_shared<VftV2>(t, bc.scale);
    const double fm = run_read_shared<FtMutex>(t, bc.scale);
    const double fc = run_read_shared<FtCas>(t, bc.scale);
    const double pk = run_read_shared_packed(t, bc.scale);
    const double ab = run_read_shared_abi(t, bc.scale);
    std::printf("%8u %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f "
                "%10.2f\n",
                t, ns_access(n0, bc.scale), ns_access(v1, bc.scale),
                ns_access(v15, bc.scale), ns_access(v2, bc.scale),
                ns_access(fm, bc.scale), ns_access(fc, bc.scale),
                ns_access(pk, bc.scale), ns_access(ab, bc.scale));
    report.add("read_shared_seconds", "threads_" + std::to_string(t),
               {{"threads", static_cast<double>(t)},
                {"none", n0},
                {"v1", v1},
                {"v15", v15},
                {"v2", v2},
                {"ft_mutex", fm},
                {"ft_cas", fc},
                {"packed", pk},
                {"abi", ab}});
    report.add("read_shared_ns_access", "threads_" + std::to_string(t),
               {{"threads", static_cast<double>(t)},
                {"none", ns_access(n0, bc.scale)},
                {"v1", ns_access(v1, bc.scale)},
                {"v15", ns_access(v15, bc.scale)},
                {"v2", ns_access(v2, bc.scale)},
                {"ft_mutex", ns_access(fm, bc.scale)},
                {"ft_cas", ns_access(fc, bc.scale)},
                {"packed", ns_access(pk, bc.scale)},
                {"abi", ns_access(ab, bc.scale)}});
  }
  report.write("BENCH_scaling.json");
  std::printf("\nexpectation: v1/v1.5 pay a lock per read (and serialize "
              "under real parallelism); v2/FT-CAS stay near the base "
              "line's slope; `packed` is the out-of-line fast-path floor "
              "and `abi` the full interposition stack chasing it\n");
  return 0;
}

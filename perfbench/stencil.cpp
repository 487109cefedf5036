// Jacobi sweep over a plain-memory (non-atomic) grid: the benchmark's
// plain-access workload. Each of T threads owns a band of interior rows;
// it reads its neighbours' boundary rows (the read-shared halo) from the
// input grid and writes only its own rows of the output grid. A phase
// ends at a barrier built from pthread_mutex + pthread_cond (not
// pthread_barrier_*, which the interposer does not model), after which
// the grids swap roles.
//
// --racy makes thread 1 also recompute the row just above its band - the
// last row of thread 0's band - in the same phase, with no
// synchronisation between the two writers. Both store the same value
// (the row is a function of the input grid alone), so the result is
// unchanged. The write-write race fires on every cell of that row in
// every phase, always from the same three store sites of relax_row
// under the same call stack, so it folds into exactly three error
// contexts.
//
// Usage: stencil --seed N [--sweeps S] [--racy]
// Prints the grid checksum and each phase's latency as thread 0 saw it.
// --sweeps 0 starts and joins the threads and sweeps nothing.
#include <pthread.h>
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace {

// Two threads, not nproc, as in the kernels program: with a thread on
// every vCPU of a shared host, one preempted vCPU stalls the phase.
constexpr int kThreads = 2;
constexpr int kRows = 34;  // 32 interior rows: 16 per thread
constexpr int kCols = 128;

struct Config {
  int sweeps = 200;
  std::uint64_t seed = 1;
  bool racy = false;
};

// The barrier's own bookkeeping is left uninstrumented: how often a
// waiter re-checks the generation depends on wakeup timing, and the
// benchmark requires plain-access counts that repeat exactly. Its
// mutex and condvar calls still reach the interposer.
struct PhaseBarrier {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
  int parties = 0;
  int arrived = 0;
  std::uint64_t generation = 0;

  __attribute__((no_sanitize_thread, noinline)) void wait() {
    pthread_mutex_lock(&mu);
    const std::uint64_t gen = generation;
    if (++arrived == parties) {
      arrived = 0;
      ++generation;
      pthread_cond_broadcast(&cv);
    } else {
      while (gen == generation) pthread_cond_wait(&cv, &mu);
    }
    pthread_mutex_unlock(&mu);
  }
};

struct Shared {
  Config cfg;
  double* grid[2] = {nullptr, nullptr};
  PhaseBarrier barrier;
  std::vector<double> phase_us;
};

struct Worker {
  Shared* sh = nullptr;
  int id = 0;
};

double now_us() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return 1e6 * static_cast<double>(ts.tv_sec) + 1e-3 * static_cast<double>(ts.tv_nsec);
}

// One output row from the input grid: the only place output cells are
// written, so every write (owned or racy) shares one call stack.
__attribute__((noinline)) void relax_row(const double* in, double* out,
                                         int cols, int i) {
  const double* up = in + static_cast<std::size_t>(i - 1) * cols;
  const double* mid = in + static_cast<std::size_t>(i) * cols;
  const double* down = in + static_cast<std::size_t>(i + 1) * cols;
  double* dst = out + static_cast<std::size_t>(i) * cols;
  dst[0] = mid[0];
  for (int j = 1; j < cols - 1; ++j) {
    dst[j] = 0.2 * (mid[j] + up[j] + down[j] + mid[j - 1] + mid[j + 1]);
  }
  dst[cols - 1] = mid[cols - 1];
}

void* worker_main(void* raw) {
  Worker* w = static_cast<Worker*>(raw);
  Shared& sh = *w->sh;
  const Config& cfg = sh.cfg;
  constexpr int interior = kRows - 2;
  const int lo = 1 + interior * w->id / kThreads;
  const int hi = 1 + interior * (w->id + 1) / kThreads;
  const int first = (cfg.racy && w->id == 1) ? lo - 1 : lo;
  double last = now_us();
  for (int s = 0; s < cfg.sweeps; ++s) {
    const double* in = sh.grid[s & 1];
    double* out = sh.grid[(s & 1) ^ 1];
    for (int i = first; i < hi; ++i) relax_row(in, out, kCols, i);
    sh.barrier.wait();
    if (w->id == 0) {
      const double t = now_us();
      sh.phase_us[s] = t - last;
      last = t;
    }
  }
  return nullptr;
}

bool parse(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(a, "--racy") == 0) {
      cfg->racy = true;
      continue;
    }
    if (v == nullptr) return false;
    if (std::strcmp(a, "--sweeps") == 0) {
      cfg->sweeps = std::atoi(v);
    } else if (std::strcmp(a, "--seed") == 0) {
      cfg->seed = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
    ++i;
  }
  return cfg->sweeps >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Shared sh;
  if (!parse(argc, argv, &sh.cfg)) {
    std::fprintf(stderr,
                 "usage: stencil --seed N [--sweeps S] [--racy]\n");
    return 2;
  }
  const Config& cfg = sh.cfg;
  const std::size_t cells = static_cast<std::size_t>(kRows) * kCols;
  std::vector<double> a(cells), b(cells);
  std::uint64_t state = cfg.seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t k = 0; k < cells; ++k) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    a[k] = b[k] = static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  sh.grid[0] = a.data();
  sh.grid[1] = b.data();
  sh.barrier.parties = kThreads;
  sh.phase_us.assign(static_cast<std::size_t>(cfg.sweeps), 0.0);

  // No worker can finish without all T at the barrier, so a failed
  // create leaves nothing joinable: end the whole process.
  std::vector<pthread_t> tids(kThreads);
  std::vector<Worker> workers(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers[t] = Worker{&sh, t};
    if (pthread_create(&tids[t], nullptr, worker_main, &workers[t]) != 0) {
      std::fprintf(stderr, "stencil: pthread_create failed\n");
      std::_Exit(1);
    }
  }
  for (pthread_t t : tids) pthread_join(t, nullptr);

  const double* result = sh.grid[cfg.sweeps & 1];
  double checksum = 0.0;
  for (std::size_t k = 0; k < cells; ++k) checksum += result[k];
  std::printf("stencil checksum=%.17g sweeps=%d racy=%d\n", checksum,
              cfg.sweeps, cfg.racy ? 1 : 0);
  std::printf("phase_us");
  for (double us : sh.phase_us) std::printf(" %.3f", us);
  std::printf("\n");
  return 0;
}

// The per-layer ladder: times calls into each layer's public entry point,
// one rung per layer, at T = 1 and T = 4 threads, on an exclusive pattern
// (every thread sweeps its own words) and a read-shared pattern (every
// thread sweeps one table the main thread wrote before the fork).
//
// Rungs the existing benches already time are not repeated here: run.py
// takes them from bench_scaling (read-shared rule/space/ABI reads) and
// bench_hotpath (single-thread packed-space read, ABI read and atomic
// loads, vector-clock join, history record). See perfbench/README.md for the map.
//
// Output: one "<metric> <value>" line per rung. Each value is the median
// of five timed blocks; a block's time is the wall time from releasing
// all threads to the last one finishing, divided by one thread's calls.
//
// Usage: ladder            every rung
//        ladder --isa      print the active vector-clock ISA and exit
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "abi/vft_abi.h"
#include "runtime/instrument.h"
#include "runtime/session.h"
#include "vft/packed_cell.h"
#include "vft/report.h"
#include "vft/sampling.h"
#include "vft/stack.h"
#include "vft/stats.h"
#include "vft/vc_simd.h"

namespace {

using namespace vft;
using Clock = std::chrono::steady_clock;

constexpr int kBlocks = 5;
constexpr std::size_t kWords = 1024;  // words swept per pass

std::atomic<std::uint64_t> g_sink{0};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void emit(const char* name, double value) {
  std::printf("%s %.6g\n", name, value);
}

/// Per-thread hooks of one timed block. `enter` runs on the worker before
/// the start line (attach, warm up), `body` is the timed loop, `leave`
/// runs after the finish line.
struct Worker {
  std::function<void(unsigned)> enter = [](unsigned) {};
  std::function<void(unsigned)> body;
  std::function<void(unsigned)> leave = [](unsigned) {};
};

/// Wall nanoseconds of one block: all `threads` workers run `body`
/// together; the clock covers release to the last finisher.
double time_block(unsigned threads, const Worker& w) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<unsigned> done{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      w.enter(t);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      w.body(t);
      done.fetch_add(1, std::memory_order_acq_rel);
      w.leave(t);
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  while (done.load(std::memory_order_acquire) < threads) {
  }
  const auto t1 = Clock::now();
  for (auto& th : pool) th.join();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Median over kBlocks of time_block / ops_per_thread.
double ns_per_op(unsigned threads, std::size_t ops_per_thread,
                 const Worker& w) {
  std::vector<double> v;
  for (int b = 0; b < kBlocks; ++b) {
    v.push_back(time_block(threads, w) / static_cast<double>(ops_per_thread));
  }
  return median(v);
}

/// Single-thread median ns per call of fn over `ops` calls.
template <typename Fn>
double ns_per_call(std::size_t ops, Fn&& fn) {
  std::vector<double> v;
  for (int b = 0; b < kBlocks; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) fn(i);
    v.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count() /
                static_cast<double>(ops));
  }
  return median(v);
}

struct alignas(64) PaddedWords {
  std::uint64_t w[kWords];
};

// ---------------------------------------------------------------------------
// vft.cell_read: PackedCell::fast_read. Exclusive cells reach the
// same-epoch hit; shared cells are escalated, as read-shared cells are in
// steady state, so fast_read is the one-load miss check.
// ---------------------------------------------------------------------------

void cell_rungs() {
  constexpr std::size_t kSweeps = 2000;
  for (unsigned threads : {1u, 4u}) {
    std::vector<std::unique_ptr<PackedCell[]>> own(threads);
    for (auto& c : own) c.reset(new PackedCell[kWords]);
    std::unique_ptr<PackedCell[]> shared(new PackedCell[kWords]);
    for (std::size_t i = 0; i < kWords; ++i) {
      (void)shared[i].begin_escalate();
      shared[i].finish_escalate();
    }
    for (const bool excl : {true, false}) {
      Worker w;
      w.body = [&](unsigned t) {
        ThreadState st(static_cast<Tid>(t));
        PackedCell* cells = excl ? own[t].get() : shared.get();
        std::uint64_t hits = 0;
        for (std::size_t s = 0; s < kSweeps; ++s) {
          for (std::size_t i = 0; i < kWords; ++i) {
            hits += cells[i].fast_read(st) == PackedCell::Fast::kSameEpoch;
          }
        }
        g_sink.fetch_add(hits, std::memory_order_relaxed);
      };
      char name[64];
      std::snprintf(name, sizeof(name), "vft.cell_read_%s_t%u_ns",
                    excl ? "excl" : "shared", threads);
      emit(name, ns_per_op(threads, kSweeps * kWords, w));
    }
  }
}

// ---------------------------------------------------------------------------
// runtime.space_read (PackedShadowSpace read through the v2 tool) and
// vft.rule_read (the v2 read rule on the wrapper's inline VarState), both
// exclusive; their read-shared rows come from bench_scaling, and the
// single-thread space row from bench_hotpath's packed_cell section.
// ---------------------------------------------------------------------------

void runtime_rungs() {
  constexpr std::size_t kSweeps = 500;
  for (unsigned threads : {1u, 4u}) {
    if (threads > 1) {
      RaceCollector races;
      rt::Runtime<VftV2> R{VftV2(&races)};
      rt::Runtime<VftV2>::MainScope scope(R);
      auto& space = R.packed_space();
      std::vector<PaddedWords> bufs(threads);
      std::vector<double> v;
      for (int b = 0; b < kBlocks; ++b) {
        const auto t0 = Clock::now();
        rt::parallel_for_threads(R, threads, [&](std::uint32_t t) {
          std::uint64_t acc = 0;
          for (std::size_t s = 0; s < kSweeps; ++s) {
            for (const std::uint64_t& x : bufs[t].w) {
              acc += rt::instrumented_read(R, space, &x);
            }
          }
          g_sink.fetch_add(acc, std::memory_order_relaxed);
        });
        v.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                        .count() /
                    static_cast<double>(kSweeps * kWords));
      }
      VFT_CHECK(races.empty());
      char name[64];
      std::snprintf(name, sizeof(name), "runtime.space_read_excl_t%u_ns",
                    threads);
      emit(name, median(v));
    }
    {
      RaceCollector races;
      rt::Runtime<VftV2> R{VftV2(&races)};
      rt::Runtime<VftV2>::MainScope scope(R);
      std::vector<std::unique_ptr<rt::Array<std::uint64_t, VftV2>>> arrays;
      for (unsigned t = 0; t < threads; ++t) {
        arrays.push_back(
            std::make_unique<rt::Array<std::uint64_t, VftV2>>(R, kWords, 3));
      }
      std::vector<double> v;
      for (int b = 0; b < kBlocks; ++b) {
        const auto t0 = Clock::now();
        rt::parallel_for_threads(R, threads, [&](std::uint32_t t) {
          std::uint64_t acc = 0;
          auto& a = *arrays[t];
          for (std::size_t s = 0; s < kSweeps; ++s) {
            for (std::size_t i = 0; i < kWords; ++i) acc += a.load(i);
          }
          g_sink.fetch_add(acc, std::memory_order_relaxed);
        });
        v.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                        .count() /
                    static_cast<double>(kSweeps * kWords));
      }
      VFT_CHECK(races.empty());
      char name[64];
      std::snprintf(name, sizeof(name), "vft.rule_read_excl_t%u_ns", threads);
      emit(name, median(v));
    }
  }
}

// ---------------------------------------------------------------------------
// The process-global session: SessionImpl::read (one virtual hop past the
// ABI) and the C ABI itself. Workers join through the ABI token protocol,
// so they are ordered after the main thread's publishing writes.
// ---------------------------------------------------------------------------

struct AbiPool {
  std::vector<std::uint64_t> tokens;
  std::vector<PaddedWords> own;
  PaddedWords table{};

  explicit AbiPool(unsigned threads) : own(threads) {
    auto& session = rt::ambient::Session::instance();
    session.configure("v2");
    session.reset();
    vft_attach();
    for (const std::uint64_t& x : table.w) vft_write8(&x);
    for (unsigned t = 0; t < threads; ++t) tokens.push_back(vft_thread_create());
  }
  AbiPool(const AbiPool&) = delete;
  AbiPool& operator=(const AbiPool&) = delete;
  ~AbiPool() {
    for (std::uint64_t tk : tokens) vft_thread_join(tk);
    VFT_CHECK(vft_race_count() == 0);
    vft_detach();
    rt::ambient::Session::instance().reset();
  }

  /// Worker hooks: attach with the token before the start line, write the
  /// thread's own words once (so its sweeps are same-epoch), detach after.
  Worker worker(std::function<void(unsigned)> body) {
    Worker w;
    w.enter = [this](unsigned t) {
      vft_thread_begin(tokens[t]);
      for (const std::uint64_t& x : own[t].w) vft_write8(&x);
    };
    w.body = std::move(body);
    w.leave = [](unsigned) { vft_detach(); };
    return w;
  }
};

void session_and_abi_rungs() {
  constexpr std::size_t kSessionSweeps = 100;
  constexpr std::size_t kOps = 400 * kWords;
  constexpr std::size_t kSyncOps = 100000;
  char name[64];
  for (unsigned threads : {1u, 4u}) {
    for (const bool excl : {true, false}) {
      // Each block re-forks its workers from a fresh pool: a pool's
      // tokens are single-use.
      std::vector<double> v;
      for (int b = 0; b < kBlocks; ++b) {
        AbiPool pool(threads);
        rt::ambient::SessionBackend& backend =
            rt::ambient::Session::instance().backend();
        Worker w = pool.worker([&](unsigned t) {
          const std::uint64_t* words = excl ? pool.own[t].w : pool.table.w;
          for (std::size_t s = 0; s < kSessionSweeps; ++s) {
            for (std::size_t i = 0; i < kWords; ++i) backend.read(&words[i], 8);
          }
        });
        v.push_back(time_block(threads, w) /
                    static_cast<double>(kSessionSweeps * kWords));
      }
      std::snprintf(name, sizeof(name), "runtime.session_read_%s_t%u_ns",
                    excl ? "excl" : "shared", threads);
      emit(name, median(v));
    }

    // Plain rungs sweep the thread's own words; sync rungs hit one
    // location per thread (sync_word[t], a cache line each).
    struct AbiRung {
      const char* fmt;
      bool skip_t1;  // the t1 row comes from bench_hotpath
      bool sync;
      void (*op)(std::uint64_t*, std::size_t);
    };
    static std::uint64_t sync_word[4][8];
    const AbiRung rungs[] = {
        {"abi.read8_excl_t%u_ns", true, false,
         [](std::uint64_t* w, std::size_t i) { vft_read8(&w[i % kWords]); }},
        {"abi.write8_excl_t%u_ns", false, false,
         [](std::uint64_t* w, std::size_t i) { vft_write8(&w[i % kWords]); }},
        {"abi.atomic_load_relaxed_t%u_ns", true, true,
         [](std::uint64_t* w, std::size_t) {
           vft_atomic_load(w, __ATOMIC_RELAXED);
         }},
        {"abi.atomic_load_acquire_t%u_ns", true, true,
         [](std::uint64_t* w, std::size_t) {
           vft_atomic_load(w, __ATOMIC_ACQUIRE);
         }},
        {"abi.atomic_store_relaxed_t%u_ns", false, true,
         [](std::uint64_t* w, std::size_t) {
           vft_atomic_store(w, __ATOMIC_RELAXED);
         }},
        {"abi.atomic_store_release_t%u_ns", false, true,
         [](std::uint64_t* w, std::size_t) {
           vft_atomic_store(w, __ATOMIC_RELEASE);
         }},
        {"abi.mutex_pair_t%u_ns", false, true,
         [](std::uint64_t* w, std::size_t) {
           vft_mutex_lock(w);
           vft_mutex_unlock(w);
         }},
    };
    for (const AbiRung& r : rungs) {
      if (r.skip_t1 && threads == 1) continue;
      const std::size_t ops = r.sync ? kSyncOps : kOps;
      std::vector<double> v;
      for (int b = 0; b < kBlocks; ++b) {
        AbiPool pool(threads);
        Worker w = pool.worker([&](unsigned t) {
          std::uint64_t* words = r.sync ? sync_word[t] : pool.own[t].w;
          for (std::size_t i = 0; i < ops; ++i) r.op(words, i);
        });
        if (r.sync) {
          // Arm each location's fast epoch with one release by its owner,
          // the steady state of bench_hotpath's atomic rows.
          const auto enter = w.enter;
          w.enter = [enter](unsigned t) {
            enter(t);
            vft_atomic_store(sync_word[t], __ATOMIC_RELEASE);
          };
        }
        v.push_back(time_block(threads, w) / static_cast<double>(ops));
      }
      std::snprintf(name, sizeof(name), r.fmt, threads);
      emit(name, median(v));
    }
  }
}

// ---------------------------------------------------------------------------
// Single-call rungs of the ABI and the core layers.
// ---------------------------------------------------------------------------

void abi_single_rungs() {
  auto& session = rt::ambient::Session::instance();
  session.configure("v2");
  session.reset();
  vft_attach();

  // Thread lifecycle through the token protocol, with a real thread.
  {
    constexpr int kCycles = 200;
    std::vector<double> v;
    for (int b = 0; b < kBlocks; ++b) {
      const auto t0 = Clock::now();
      for (int c = 0; c < kCycles; ++c) {
        const std::uint64_t tk = vft_thread_create();
        std::thread th([tk] {
          vft_thread_begin(tk);
          vft_detach();
        });
        th.join();
        vft_thread_join(tk);
      }
      v.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                      .count() /
                  kCycles);
    }
    emit("abi.thread_cycle_us", median(v));
  }

  // Range read over a warm 4 KiB buffer this thread wrote, after one
  // release so the thread's epoch is past its startup value (the
  // steady state bench_hotpath's range rows use).
  static long tick = 0;
  vft_mutex_lock(&tick);
  vft_mutex_unlock(&tick);
  std::vector<std::uint64_t> buf(4096 / 8, 1);
  vft_range_write(buf.data(), 4096);
  emit("abi.range_read_4k_ns", ns_per_call(20000, [&](std::size_t) {
         vft_range_read(buf.data(), 4096);
       }));
  emit("abi.free_hint_4k_ns", ns_per_call(1000, [&](std::size_t) {
         vft_free_hint(buf.data(), 4096);
       }));

  VFT_CHECK(vft_race_count() == 0);
  vft_detach();
  session.reset();
}

void core_rungs() {
  // RuleStats::bump on one shared RuleStats, the counter every access
  // bumps.
  for (unsigned threads : {1u, 4u}) {
    RuleStats stats;
    constexpr std::size_t kOps = 1000000;
    Worker w;
    w.body = [&](unsigned) {
      for (std::size_t i = 0; i < kOps; ++i) stats.bump(Rule::kReadSameEpoch);
    };
    char name[64];
    std::snprintf(name, sizeof(name), "vft.stats_bump_t%u_ns", threads);
    emit(name, ns_per_op(threads, kOps, w));
  }

  // VectorClock::copy between two clocks of n components.
  for (std::uint32_t n : {4u, 64u}) {
    VectorClock a(n), b(n);
    for (Tid t = 0; t < n; ++t) {
      a.set(t, Epoch::make(t, 3 + t));
      b.set(t, Epoch::make(t, 5));
    }
    const double ns = ns_per_call(1000000, [&](std::size_t i) {
      (i & 1 ? a : b).copy(i & 1 ? b : a);
    });
    emit(n == 4 ? "vft.vc_copy_n4_ns" : "vft.vc_copy_n64_ns", ns);
  }

  // The sampling gate's admission decision at the 2% rate the budget
  // controller settles near on the kernels: mostly a countdown
  // decrement, one slow admission per ~50 calls.
  {
    sampling::Config cfg;
    cfg.enabled = true;
    cfg.rate = 0.02;
    sampling::Gate gate(cfg);
    std::vector<std::uint64_t> words(kWords);
    std::uint64_t admitted = 0;
    emit("vft.sampling_admit_ns", ns_per_call(2000000, [&](std::size_t i) {
           admitted += gate.should_sample(&words[i % kWords]);
         }));
    g_sink.fetch_add(admitted, std::memory_order_relaxed);
  }

  // RaceCollector::report for an occurrence of a known context: the
  // per-occurrence cost of a race that repeats.
  {
    RaceCollector races;
    RaceReport r{};
    r.kind = RaceKind::kWriteWrite;
    r.var = 0x1000;
    r.current_tid = 1;
    r.prior = Epoch::make(0, 5);
    r.current = Epoch::make(1, 7);
    for (std::uintptr_t pc = 0x401000; pc < 0x401000 + 8 * 16; pc += 16) {
      r.stack.push(pc);
    }
    emit("vft.report_add_ns",
         ns_per_call(200000, [&](std::size_t) { races.report(r); }));
    VFT_CHECK(races.context_count() == 1);
  }
}

// Stack capture from an armed event context a few frames deep, as the
// __tsan_* wrappers arm it.
__attribute__((noinline)) double capture_at_depth(int depth) {
  if (depth > 0) {
    const double r = capture_at_depth(depth - 1);
    asm volatile("" ::: "memory");  // keep the frame: no tail call
    return r;
  }
  vft_tl_event_ctx.pc = __builtin_return_address(0);
  vft_tl_event_ctx.fp = __builtin_frame_address(0);
  std::uint64_t frames = 0;
  const double ns = ns_per_call(200000, [&](std::size_t) {
    frames += capture_event_stack().depth;
  });
  vft_tl_event_ctx = vft_event_ctx_s{};
  g_sink.fetch_add(frames, std::memory_order_relaxed);
  return ns;
}

// Shadow footprint per touched word: 256 Ki words written by one thread,
// the first 16 Ki of them then read by four more (read-shared words
// spill to full VarStates).
void shadow_footprint() {
  constexpr std::size_t kTouched = std::size_t{1} << 18;
  constexpr std::size_t kShared = std::size_t{1} << 14;
  RaceCollector races;
  rt::Runtime<VftV2> R{VftV2(&races)};
  rt::Runtime<VftV2>::MainScope scope(R);
  auto& space = R.packed_space();
  std::vector<std::uint64_t> mem(kTouched, 1);
  for (const std::uint64_t& x : mem) rt::instrumented_write(R, space, &x);
  rt::parallel_for_threads(R, 4, [&](std::uint32_t) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kShared; ++i) {
      acc += rt::instrumented_read(R, space, &mem[i]);
    }
    g_sink.fetch_add(acc, std::memory_order_relaxed);
  });
  VFT_CHECK(races.empty());
  emit("runtime.shadow_bytes_per_word",
       static_cast<double>(space.stats().bytes) /
           static_cast<double>(kTouched));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--isa") == 0) {
    std::printf("%s\n", simd::isa_name(simd::active_isa()));
    return 0;
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: ladder [--isa]\n");
    return 2;
  }
  cell_rungs();
  runtime_rungs();
  session_and_abi_rungs();
  abi_single_rungs();
  core_rungs();
  emit("vft.stack_capture_ns", capture_at_depth(6));
  shadow_footprint();
  return 0;
}

// Trace shim: an LD_PRELOAD library placed in front of libvft_preload
// (LD_PRELOAD="libvft_trace_shim.so:libvft_preload.so"). It defines the
// target-facing entry points the interposer defines, counts every call,
// times every 64th call of each category with a clock_gettime pair, and
// forwards each call to the next definition with dlsym(RTLD_NEXT).
//
// Counters live in one cache-line-aligned block per thread, linked into a
// global list and never freed, so nothing is shared on the call path. An
// atexit handler (registered by the constructor, hence run after the
// target's static destructors and before library destructors) sums the
// blocks into $VFT_TRACE_OUT as "key value" lines.
//
// Calls whose return address lies inside libvft_preload itself are the
// analysis' own work: pthread_mutex_lock/trylock from there are counted
// as internal locking, and internal unlock, free and mem* calls are
// forwarded uncounted, so every other number describes the target.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>

#include <atomic>

namespace {

enum Cat : int {
  kPlain,
  kAtomicRelaxed,
  kAtomicOrdered,
  kMutex,
  kCond,
  kThread,
  kFunc,
  kRange,
  kFree,
  kInternalMutex,
  kNumCats,
};

const char* const kCatNames[kNumCats] = {
    "plain", "atomic_relaxed", "atomic_ordered", "mutex",  "cond",
    "thread", "func",          "range",          "free",   "internal_mutex",
};

constexpr uint64_t kSampleEvery = 64;

struct alignas(64) Block {
  uint64_t calls[kNumCats];
  uint64_t timed[kNumCats];
  uint64_t timed_ns[kNumCats];
  uint64_t range_bytes;
  uint64_t timed_range_bytes;
  Block* next;
};

std::atomic<Block*> g_blocks{nullptr};
__thread Block* tl_block __attribute__((tls_model("initial-exec"))) = nullptr;
uintptr_t g_preload_lo = 0;
uintptr_t g_preload_hi = 0;
uint64_t g_timer_floor_ns = 0;

Block* block() {
  Block* b = tl_block;
  if (__builtin_expect(b != nullptr, 1)) return b;
  void* mem = mmap(nullptr, sizeof(Block), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) abort();
  b = static_cast<Block*>(mem);  // zero-filled by mmap
  Block* head = g_blocks.load(std::memory_order_relaxed);
  do {
    b->next = head;
  } while (!g_blocks.compare_exchange_weak(head, b, std::memory_order_release,
                                           std::memory_order_relaxed));
  tl_block = b;
  return b;
}

inline uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Counts the call; returns a start timestamp for every 64th call of the
// category on this thread, 0 otherwise. The empty asm hides which of the
// two the caller got, so the compiler cannot split the wrapper into a
// timed and an untimed copy of the forwarding call: with one call site,
// a race stack captured through the shim has one shape.
inline uint64_t enter(Cat c) {
  Block* b = block();
  uint64_t t0 = 0;
  if ((++b->calls[c] & (kSampleEvery - 1)) == 0) t0 = now_ns() | 1;
  asm volatile("" : "+r"(t0));
  return t0;
}

inline void leave(Cat c, uint64_t t0) {
  if (t0 == 0) return;
  const uint64_t dt = now_ns() - t0;
  Block* b = tl_block;
  b->timed[c] += 1;
  b->timed_ns[c] += dt > g_timer_floor_ns ? dt - g_timer_floor_ns : 0;
}

inline uint64_t enter_range(size_t bytes) {
  Block* b = block();
  b->range_bytes += bytes;
  uint64_t t0 = 0;
  if ((++b->calls[kRange] & (kSampleEvery - 1)) == 0) {
    b->timed_range_bytes += bytes;
    t0 = now_ns() | 1;
  }
  asm volatile("" : "+r"(t0));
  return t0;
}

// Lazily resolved forwarding target. dlsym may itself call free or
// memcpy; a call arriving while this thread is resolving takes the
// caller-supplied fallback instead of recursing.
__thread bool tl_resolving __attribute__((tls_model("initial-exec"))) = false;

template <typename Fn>
Fn resolve(std::atomic<Fn>& slot, const char* name) {
  Fn f = slot.load(std::memory_order_acquire);
  if (__builtin_expect(f != nullptr, 1) || tl_resolving) return f;
  tl_resolving = true;
  f = reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
  tl_resolving = false;
  if (f == nullptr) {
    fprintf(stderr, "vft trace shim: cannot resolve %s\n", name);
    abort();
  }
  slot.store(f, std::memory_order_release);
  return f;
}

// Declares `real`, the next definition of `name`, of function type
// __VA_ARGS__ (variadic so parameter lists may contain commas).
#define VFT_NEXT(name, ...)                          \
  using real_fn = __VA_ARGS__;                       \
  static std::atomic<real_fn> next_##name{nullptr};  \
  const real_fn real = resolve(next_##name, #name)

inline bool from_preload(const void* ret) {
  const uintptr_t a = reinterpret_cast<uintptr_t>(ret);
  return a >= g_preload_lo && a < g_preload_hi;
}

int find_preload(struct dl_phdr_info* info, size_t, void*) {
  if (info->dlpi_name == nullptr ||
      strstr(info->dlpi_name, "libvft_preload") == nullptr) {
    return 0;
  }
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    g_preload_lo = info->dlpi_addr + ph.p_vaddr;
    g_preload_hi = g_preload_lo + ph.p_memsz;
  }
  return 1;
}

void calibrate_timer() {
  uint64_t best = ~0ull;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t a = now_ns();
    const uint64_t b = now_ns();
    if (b - a < best) best = b - a;
  }
  g_timer_floor_ns = best;
}

void dump() {
  const char* path = getenv("VFT_TRACE_OUT");
  if (path == nullptr || path[0] == '\0') return;
  uint64_t calls[kNumCats] = {};
  uint64_t timed[kNumCats] = {};
  uint64_t timed_ns[kNumCats] = {};
  uint64_t range_bytes = 0;
  uint64_t timed_range_bytes = 0;
  unsigned threads = 0;
  for (Block* b = g_blocks.load(std::memory_order_acquire); b != nullptr;
       b = b->next) {
    for (int c = 0; c < kNumCats; ++c) {
      calls[c] += b->calls[c];
      timed[c] += b->timed[c];
      timed_ns[c] += b->timed_ns[c];
    }
    range_bytes += b->range_bytes;
    timed_range_bytes += b->timed_range_bytes;
    ++threads;
  }
  FILE* f = fopen(path, "w");
  if (f == nullptr) {
    fprintf(stderr, "vft trace shim: cannot write %s\n", path);
    return;
  }
  for (int c = 0; c < kNumCats; ++c) {
    fprintf(f, "%s.calls %llu\n%s.timed %llu\n%s.timed_ns %llu\n",
            kCatNames[c], static_cast<unsigned long long>(calls[c]),
            kCatNames[c], static_cast<unsigned long long>(timed[c]),
            kCatNames[c], static_cast<unsigned long long>(timed_ns[c]));
  }
  fprintf(f, "range.bytes %llu\nrange.timed_bytes %llu\nthreads %u\n",
          static_cast<unsigned long long>(range_bytes),
          static_cast<unsigned long long>(timed_range_bytes), threads);
  fprintf(f, "timer_floor_ns %llu\n",
          static_cast<unsigned long long>(g_timer_floor_ns));
  fclose(f);
}

__attribute__((constructor)) void shim_init() {
  dl_iterate_phdr(find_preload, nullptr);
  if (g_preload_hi == 0) {
    fprintf(stderr, "vft trace shim: libvft_preload is not loaded\n");
    abort();
  }
  calibrate_timer();
  atexit(dump);
}

}  // namespace

extern "C" {

// ---------------------------------------------------------------------
// Plain accesses.
// ---------------------------------------------------------------------

#define SHIM_ACCESS(name)              \
  void name(void* a) {                 \
    VFT_NEXT(name, void (*)(void*));   \
    const uint64_t t0 = enter(kPlain); \
    real(a);                           \
    leave(kPlain, t0);                 \
  }
#define SHIM_ACCESS16(name)              \
  void name(void* a) {                   \
    VFT_NEXT(name, void (*)(void*));     \
    const uint64_t t0 = enter_range(16); \
    real(a);                             \
    leave(kRange, t0);                   \
  }

SHIM_ACCESS(__tsan_read1)
SHIM_ACCESS(__tsan_read2)
SHIM_ACCESS(__tsan_read4)
SHIM_ACCESS(__tsan_read8)
SHIM_ACCESS(__tsan_write1)
SHIM_ACCESS(__tsan_write2)
SHIM_ACCESS(__tsan_write4)
SHIM_ACCESS(__tsan_write8)
SHIM_ACCESS(__tsan_unaligned_read2)
SHIM_ACCESS(__tsan_unaligned_read4)
SHIM_ACCESS(__tsan_unaligned_read8)
SHIM_ACCESS(__tsan_unaligned_write2)
SHIM_ACCESS(__tsan_unaligned_write4)
SHIM_ACCESS(__tsan_unaligned_write8)
SHIM_ACCESS16(__tsan_read16)
SHIM_ACCESS16(__tsan_write16)
SHIM_ACCESS16(__tsan_unaligned_read16)
SHIM_ACCESS16(__tsan_unaligned_write16)

void __tsan_vptr_read(void** a) {
  VFT_NEXT(__tsan_vptr_read, void (*)(void**));
  const uint64_t t0 = enter(kPlain);
  real(a);
  leave(kPlain, t0);
}

void __tsan_vptr_update(void** a, void* v) {
  VFT_NEXT(__tsan_vptr_update, void (*)(void**, void*));
  const uint64_t t0 = enter(kPlain);
  real(a, v);
  leave(kPlain, t0);
}

void __tsan_read_range(void* a, unsigned long size) {
  VFT_NEXT(__tsan_read_range, void (*)(void*, unsigned long));
  const uint64_t t0 = enter_range(size);
  real(a, size);
  leave(kRange, t0);
}

void __tsan_write_range(void* a, unsigned long size) {
  VFT_NEXT(__tsan_write_range, void (*)(void*, unsigned long));
  const uint64_t t0 = enter_range(size);
  real(a, size);
  leave(kRange, t0);
}

void __tsan_func_entry(void* pc) {
  VFT_NEXT(__tsan_func_entry, void (*)(void*));
  const uint64_t t0 = enter(kFunc);
  real(pc);
  leave(kFunc, t0);
}

void __tsan_func_exit(void) {
  VFT_NEXT(__tsan_func_exit, void (*)(void));
  const uint64_t t0 = enter(kFunc);
  real();
  leave(kFunc, t0);
}

// ---------------------------------------------------------------------
// Atomics, split by the declared memory order (0 = relaxed).
// ---------------------------------------------------------------------

inline Cat atomic_cat(int mo) { return mo == 0 ? kAtomicRelaxed : kAtomicOrdered; }

#define SHIM_RMW(bits, type, op)                                              \
  type __tsan_atomic##bits##_##op(volatile type* a, type v, int mo) {         \
    VFT_NEXT(__tsan_atomic##bits##_##op, type (*)(volatile type*, type, int)); \
    const Cat c = atomic_cat(mo);                                             \
    const uint64_t t0 = enter(c);                                             \
    const type r = real(a, v, mo);                                            \
    leave(c, t0);                                                             \
    return r;                                                                 \
  }

#define SHIM_CAS(bits, type, op)                                             \
  int __tsan_atomic##bits##_##op(volatile type* a, type* cmp, type v, int mo, \
                                 int fmo) {                                   \
    VFT_NEXT(__tsan_atomic##bits##_##op,                                      \
             int (*)(volatile type*, type*, type, int, int));                 \
    const Cat c = atomic_cat(mo);                                             \
    const uint64_t t0 = enter(c);                                             \
    const int r = real(a, cmp, v, mo, fmo);                                   \
    leave(c, t0);                                                             \
    return r;                                                                 \
  }

#define SHIM_ATOMIC(bits, type)                                               \
  type __tsan_atomic##bits##_load(const volatile type* a, int mo) {           \
    VFT_NEXT(__tsan_atomic##bits##_load, type (*)(const volatile type*, int)); \
    const Cat c = atomic_cat(mo);                                             \
    const uint64_t t0 = enter(c);                                             \
    const type r = real(a, mo);                                               \
    leave(c, t0);                                                             \
    return r;                                                                 \
  }                                                                           \
  void __tsan_atomic##bits##_store(volatile type* a, type v, int mo) {        \
    VFT_NEXT(__tsan_atomic##bits##_store, void (*)(volatile type*, type, int)); \
    const Cat c = atomic_cat(mo);                                             \
    const uint64_t t0 = enter(c);                                             \
    real(a, v, mo);                                                           \
    leave(c, t0);                                                             \
  }                                                                           \
  SHIM_RMW(bits, type, exchange)                                              \
  SHIM_RMW(bits, type, fetch_add)                                             \
  SHIM_RMW(bits, type, fetch_sub)                                             \
  SHIM_RMW(bits, type, fetch_and)                                             \
  SHIM_RMW(bits, type, fetch_or)                                              \
  SHIM_RMW(bits, type, fetch_xor)                                             \
  SHIM_RMW(bits, type, fetch_nand)                                            \
  SHIM_CAS(bits, type, compare_exchange_strong)                               \
  SHIM_CAS(bits, type, compare_exchange_weak)                                 \
  type __tsan_atomic##bits##_compare_exchange_val(                            \
      volatile type* a, type cmp, type v, int mo, int fmo) {                  \
    VFT_NEXT(__tsan_atomic##bits##_compare_exchange_val,                      \
             type (*)(volatile type*, type, type, int, int));                 \
    const Cat c = atomic_cat(mo);                                             \
    const uint64_t t0 = enter(c);                                             \
    const type r = real(a, cmp, v, mo, fmo);                                  \
    leave(c, t0);                                                             \
    return r;                                                                 \
  }

SHIM_ATOMIC(8, uint8_t)
SHIM_ATOMIC(16, uint16_t)
SHIM_ATOMIC(32, uint32_t)
SHIM_ATOMIC(64, uint64_t)

void __tsan_atomic_thread_fence(int mo) {
  VFT_NEXT(__tsan_atomic_thread_fence, void (*)(int));
  const Cat c = atomic_cat(mo);
  const uint64_t t0 = enter(c);
  real(mo);
  leave(c, t0);
}

// ---------------------------------------------------------------------
// pthread surface.
// ---------------------------------------------------------------------

int pthread_mutex_lock(pthread_mutex_t* m) {
  VFT_NEXT(pthread_mutex_lock, int (*)(pthread_mutex_t*));
  if (from_preload(__builtin_return_address(0))) {
    block()->calls[kInternalMutex] += 1;
    return real(m);
  }
  const uint64_t t0 = enter(kMutex);
  const int rc = real(m);
  leave(kMutex, t0);
  return rc;
}

int pthread_mutex_trylock(pthread_mutex_t* m) {
  VFT_NEXT(pthread_mutex_trylock, int (*)(pthread_mutex_t*));
  if (from_preload(__builtin_return_address(0))) {
    block()->calls[kInternalMutex] += 1;
    return real(m);
  }
  const uint64_t t0 = enter(kMutex);
  const int rc = real(m);
  leave(kMutex, t0);
  return rc;
}

int pthread_mutex_unlock(pthread_mutex_t* m) {
  VFT_NEXT(pthread_mutex_unlock, int (*)(pthread_mutex_t*));
  if (from_preload(__builtin_return_address(0))) return real(m);
  const uint64_t t0 = enter(kMutex);
  const int rc = real(m);
  leave(kMutex, t0);
  return rc;
}

int pthread_cond_wait(pthread_cond_t* c, pthread_mutex_t* m) {
  VFT_NEXT(pthread_cond_wait, int (*)(pthread_cond_t*, pthread_mutex_t*));
  const uint64_t t0 = enter(kCond);
  const int rc = real(c, m);
  leave(kCond, t0);
  return rc;
}

int pthread_cond_timedwait(pthread_cond_t* c, pthread_mutex_t* m,
                           const struct timespec* abstime) {
  VFT_NEXT(pthread_cond_timedwait,
           int (*)(pthread_cond_t*, pthread_mutex_t*, const struct timespec*));
  const uint64_t t0 = enter(kCond);
  const int rc = real(c, m, abstime);
  leave(kCond, t0);
  return rc;
}

int pthread_create(pthread_t* tid, const pthread_attr_t* attr,
                   void* (*fn)(void*), void* arg) {
  VFT_NEXT(pthread_create,
           int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*));
  const uint64_t t0 = enter(kThread);
  const int rc = real(tid, attr, fn, arg);
  leave(kThread, t0);
  return rc;
}

int pthread_join(pthread_t tid, void** retval) {
  VFT_NEXT(pthread_join, int (*)(pthread_t, void**));
  const uint64_t t0 = enter(kThread);
  const int rc = real(tid, retval);
  leave(kThread, t0);
  return rc;
}

int pthread_detach(pthread_t tid) {
  VFT_NEXT(pthread_detach, int (*)(pthread_t));
  const uint64_t t0 = enter(kThread);
  const int rc = real(tid);
  leave(kThread, t0);
  return rc;
}

// ---------------------------------------------------------------------
// Memory lifetime and the mem* family. While dlsym is resolving on this
// thread, free leaks and the mem* calls fall back to byte loops.
// memcpy/memmove/memset count their length into the range bytes.
// ---------------------------------------------------------------------

void free(void* p) {
  VFT_NEXT(free, void (*)(void*));
  if (real == nullptr) return;
  if (from_preload(__builtin_return_address(0))) return real(p);
  const uint64_t t0 = enter(kFree);
  real(p);
  leave(kFree, t0);
}

void* memcpy(void* dst, const void* src, size_t n) {
  VFT_NEXT(memcpy, void* (*)(void*, const void*, size_t));
  if (real == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    const unsigned char* s = static_cast<const unsigned char*>(src);
    for (size_t i = 0; i < n; ++i) d[i] = s[i];
    return dst;
  }
  if (from_preload(__builtin_return_address(0))) return real(dst, src, n);
  const uint64_t t0 = enter_range(n);
  void* r = real(dst, src, n);
  leave(kRange, t0);
  return r;
}

void* memmove(void* dst, const void* src, size_t n) {
  VFT_NEXT(memmove, void* (*)(void*, const void*, size_t));
  if (real == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    const unsigned char* s = static_cast<const unsigned char*>(src);
    if (d < s) {
      for (size_t i = 0; i < n; ++i) d[i] = s[i];
    } else {
      for (size_t i = n; i > 0; --i) d[i - 1] = s[i - 1];
    }
    return dst;
  }
  if (from_preload(__builtin_return_address(0))) return real(dst, src, n);
  const uint64_t t0 = enter_range(n);
  void* r = real(dst, src, n);
  leave(kRange, t0);
  return r;
}

void* memset(void* dst, int c, size_t n) {
  VFT_NEXT(memset, void* (*)(void*, int, size_t));
  if (real == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    for (size_t i = 0; i < n; ++i) d[i] = static_cast<unsigned char>(c);
    return dst;
  }
  if (from_preload(__builtin_return_address(0))) return real(dst, c, n);
  const uint64_t t0 = enter_range(n);
  void* r = real(dst, c, n);
  leave(kRange, t0);
  return r;
}

}  // extern "C"

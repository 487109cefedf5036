// Per-thread counter shards: statistics that every thread bumps on the
// per-access path without writing a cache line any other thread writes.
//
// A shared `std::atomic` counter turns every bump into a lock-prefixed RMW
// on a line that all target threads fight over; with a few threads that
// line transfer costs more than the access being counted. Here each
// thread owns a *slot* (a small process-wide index, claimed on its first
// bump and released at thread exit), and each ShardedCounters instance
// keeps one cache-line-aligned shard per slot that touched it. The owner
// bumps its shard with a relaxed load + store - no RMW, no shared line -
// and readers fold every shard with relaxed loads. A fold taken while all
// bumping threads are quiescent is exact.
//
// Slot recycling: the lowest free slot is claimed first and an exiting
// thread's slot is released by a pthread key destructor, so the slot
// count - and with it every instance's shard count - is bounded by the
// peak number of live bumping threads, not by the number of threads ever
// created. A recycled slot inherits its shards *with their counts*: the
// release/claim pair on the slot bitmap orders the old owner's last store
// before the new owner's first load, so nothing is lost or double counted.
//
// Past kMaxSlots concurrently live threads the extra threads share one
// overflow shard that is bumped with fetch_add: still exact, just
// contended (the thread registry caps monitored threads below kMaxSlots,
// so only unmonitored helper threads can ever get there).
//
// Header-only, so every program that compiles the runtime headers links
// without an extra object file.
#pragma once

#include <pthread.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "vft/fastpath_ctx.h"

namespace vft::shard {

inline constexpr std::uint32_t kMaxSlots = 256;
inline constexpr std::uint32_t kUnclaimed = ~std::uint32_t{0};

/// The calling thread's slot: kUnclaimed until its first bump, kMaxSlots
/// when every slot was taken (the shared overflow shard).
inline constinit thread_local std::uint32_t tl_slot = kUnclaimed;

namespace detail {

inline constexpr std::uint32_t kWords = kMaxSlots / 64;
static_assert(kMaxSlots % 64 == 0);

/// Claimed-slot bitmap. A claim CASes a bit on (acq_rel), a release
/// clears it (release): that pair orders every store of the old owner
/// before the first load of the next one.
inline std::atomic<std::uint64_t> g_claimed[kWords];

inline void release_slot(void*) {
  const std::uint32_t slot = tl_slot;
  tl_slot = kUnclaimed;
  // The inline fast-path descriptor caches pointers into this slot's
  // shards; the next owner of the slot must be their only writer.
  vft_tl_fastpath = vft_fastpath_s{};
  if (slot < kMaxSlots) {
    g_claimed[slot / 64].fetch_and(~(std::uint64_t{1} << (slot % 64)),
                                   std::memory_order_release);
  }
}

/// Thread-exit hook, created on first claim. A bump from a later key
/// destructor re-claims and re-arms the key, which pthread honours for up
/// to PTHREAD_DESTRUCTOR_ITERATIONS rounds.
inline pthread_key_t exit_key() {
  static const pthread_key_t key = [] {
    pthread_key_t k;
    pthread_key_create(&k, release_slot);
    return k;
  }();
  return key;
}

/// Slow path of this_thread_slot(): claim the lowest free slot and arm
/// the thread-exit release.
[[gnu::noinline, gnu::cold]] inline std::uint32_t claim_slot() {
  std::uint32_t slot = kMaxSlots;
  for (std::uint32_t w = 0; w < kWords && slot == kMaxSlots; ++w) {
    std::uint64_t bits = g_claimed[w].load(std::memory_order_relaxed);
    while (~bits != 0) {
      const int b = std::countr_one(bits);
      const std::uint64_t want = bits | (std::uint64_t{1} << b);
      if (g_claimed[w].compare_exchange_weak(bits, want,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
        slot = w * 64 + static_cast<std::uint32_t>(b);
        break;
      }
    }
  }
  tl_slot = slot;
  pthread_setspecific(exit_key(), reinterpret_cast<void*>(1));
  return slot;
}

}  // namespace detail

/// The calling thread's slot in [0, kMaxSlots], claiming one on first use.
inline std::uint32_t this_thread_slot() {
  const std::uint32_t s = tl_slot;
  return s != kUnclaimed ? s : detail::claim_slot();
}

/// N relaxed counters, sharded per thread slot.
template <std::size_t N>
class ShardedCounters {
 public:
  ShardedCounters() = default;
  ShardedCounters(const ShardedCounters&) = delete;
  ShardedCounters& operator=(const ShardedCounters&) = delete;

  ~ShardedCounters() {
    for (auto& s : shards_) delete s.load(std::memory_order_relaxed);
  }

  void add(std::size_t i, std::uint64_t n = 1) {
    const std::uint32_t slot = this_thread_slot();
    if (slot < kMaxSlots) [[likely]] {
      std::atomic<std::uint64_t>& c = own(slot).v[i];
      c.store(c.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    } else {
      overflow_.v[i].fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Counter `i` of the calling thread's own shard, for callers that bump
  /// it directly (same relaxed load + store as add(); only this thread may
  /// write through it, and only while it keeps its slot). nullptr for an
  /// overflow thread, whose shard is shared.
  std::atomic<std::uint64_t>* local(std::size_t i) {
    const std::uint32_t slot = this_thread_slot();
    return slot < kMaxSlots ? &own(slot).v[i] : nullptr;
  }

  /// Fold of counter `i` over every shard.
  std::uint64_t sum(std::size_t i) const {
    std::uint64_t n = overflow_.v[i].load(std::memory_order_relaxed);
    for (const auto& s : shards_) {
      if (const Shard* p = s.load(std::memory_order_acquire)) {
        n += p->v[i].load(std::memory_order_relaxed);
      }
    }
    return n;
  }

  /// Zero every shard. Only exact while no thread is bumping: a concurrent
  /// owner's load + store can write back a pre-reset value.
  void reset() {
    for (auto& c : overflow_.v) c.store(0, std::memory_order_relaxed);
    for (auto& s : shards_) {
      if (Shard* p = s.load(std::memory_order_acquire)) {
        for (auto& c : p->v) c.store(0, std::memory_order_relaxed);
      }
    }
  }

  /// Shards allocated so far: at most the peak number of live threads
  /// that bumped this instance.
  std::size_t shards() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      n += s.load(std::memory_order_relaxed) != nullptr ? 1 : 0;
    }
    return n;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, N> v{};
  };

  /// Only the slot's current owner allocates its shard, so a plain
  /// release store publishes it to folding readers.
  Shard& own(std::uint32_t slot) {
    Shard* p = shards_[slot].load(std::memory_order_relaxed);
    if (p == nullptr) [[unlikely]] {
      p = new Shard;
      shards_[slot].store(p, std::memory_order_release);
    }
    return *p;
  }

  std::array<std::atomic<Shard*>, kMaxSlots> shards_{};
  Shard overflow_;
};

}  // namespace vft::shard

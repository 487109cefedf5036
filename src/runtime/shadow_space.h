// Two-level shadow memory: the production-shaped mapping from target
// addresses to analysis state, replacing the mutex-sharded hash table
// as the primary raw-pointer backend.
//
// Layout (the Valgrind-DRD primary/secondary map, adapted to 64-bit
// address spaces the way ThreadSanitizer-style tools do):
//
//   address ──┬─ bits [kPageSpanLog2, 64)  ──> bucket in a fixed top-level
//             │                                array of atomic page
//             │                                pointers (hash-mixed so the
//             │                                sparse 48-bit user space
//             │                                spreads evenly)
//             └─ bits [kGranularityLog2,
//                      kPageSpanLog2)      ──> slot inside the page
//
// Two page flavors share that directory machinery (PageDirectory below):
//
//   ShadowSpace        one full VarState per 8-byte word - every access is
//                      a detector call against production analysis state.
//   PackedShadowSpace  one 64-bit packed {R, W} cell per word plus a lazy
//                      spill slot - the same-epoch/exclusive fast path of
//                      vft/packed_cell.h runs inline against the cell, and
//                      only escalated words ever materialize a VarState.
//
// Pages are allocated on first touch and published with a CAS into the
// bucket's chain - no lock anywhere on the lookup path. Distinct page
// bases that land in the same bucket chain off each other (the chain is
// almost always length 1).
//
// Two properties the Section 4 runtime assumptions need:
//
//   Stability  pages are never freed or moved during a session, so a
//              VarState& (or cell&) stays valid forever (the one-to-one
//              persistent variable->VarState mapping). The flip side: if
//              the target frees memory and the allocator reuses the
//              address, the new object inherits the old shadow word (real
//              tools hook free() to clear shadow; see docs/ALGORITHM.md §8).
//   Agreement  every alias of an address maps to the same VarState, so
//              wrapper-based (rt::Array carving) and raw-pointer
//              instrumentation of the same memory see the same history.
//
// Granularity: accesses within the same 8-byte word share a VarState
// (word-granular shadow, as in TSan's default).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "vft/detector.h"
#include "vft/packed_cell.h"
#include "vft/shard.h"
#include "vft/vc_simd.h"

namespace vft::rt {

template <Detector D>
class Runtime;

/// Geometry shared by every ShadowSpace instantiation (non-template so the
/// formatting helpers can live in shadow_space.cpp).
struct ShadowGeometry {
  /// log2 bytes per shadow slot: 8-byte words, one VarState each.
  static constexpr std::size_t kGranularityLog2 = 3;
  static constexpr std::size_t kGranularity = 1u << kGranularityLog2;
  /// log2 slots per page: 512 slots -> a page spans 4 KiB of target memory.
  static constexpr std::size_t kSlotsPerPageLog2 = 9;
  static constexpr std::size_t kSlotsPerPage = 1u << kSlotsPerPageLog2;
  static constexpr std::size_t kPageSpanLog2 = kGranularityLog2 + kSlotsPerPageLog2;
  static constexpr std::size_t kPageSpan = 1u << kPageSpanLog2;
  /// log2 top-level buckets: 64K page pointers = 512 KiB of address space
  /// per directory, resident only where a bucket holds a page.
  static constexpr std::size_t kTopBitsLog2 = 16;
  static constexpr std::size_t kBuckets = 1u << kTopBitsLog2;

  /// The page base covering `a`.
  static std::uintptr_t base_of(std::uintptr_t a) {
    return a & ~static_cast<std::uintptr_t>(kPageSpan - 1);
  }

  /// Slot index of `a` within its page.
  static std::size_t slot_index(std::uintptr_t a) {
    return (a >> kGranularityLog2) & (kSlotsPerPage - 1);
  }

  /// Top-level index for a page base: multiply-shift mix of the page
  /// number, so the handful of live 48-bit address-space regions (stack,
  /// heap, globals) spread over the buckets instead of clustering.
  static std::size_t bucket_of(std::uintptr_t page_base) {
    std::uintptr_t x = page_base >> kPageSpanLog2;
    x ^= x >> 29;
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 32;
    return static_cast<std::size_t>(x) & (kBuckets - 1);
  }

  /// One-line description of the layout constants (for docs/tools).
  static std::string describe();

  /// Monotonically increasing id handed to each directory instance.
  /// The thread-local lookup cache tags entries with it, so a cache entry
  /// can never resurrect a page of a destroyed (or different) space even
  /// if a later space reuses the same object address.
  static std::uint64_t next_space_id();
};

/// Allocation counters of one shadow space (snapshot; relaxed reads).
struct ShadowSpaceStats {
  std::size_t pages = 0;       ///< shadow pages allocated
  std::size_t slots = 0;       ///< shadow slots those pages hold
  std::size_t bytes = 0;       ///< footprint: top-level array + pages
  std::size_t collisions = 0;  ///< bucket chains longer than one + CAS races
  std::size_t cache_misses = 0;  ///< lookups that fell past the TL cache
  std::size_t spilled = 0;  ///< packed cells escalated to full VarStates
  std::size_t words_reset = 0;  ///< shadow words cleared by reset_range
};

/// "pages=N slots=N mem=N.NMiB collisions=N ..." (shadow_space.cpp).
std::string str(const ShadowSpaceStats& s);

/// The lock-free two-level page table both shadow flavors share. PageT
/// must expose `const std::uintptr_t base`, `std::atomic<PageT*> next`,
/// and a PageT(std::uintptr_t base) constructor.
///
/// Lookup fast path: a TSan-style thread-local last-page cache.
/// Consecutive accesses to the same 4 KiB shadow page (the overwhelmingly
/// common case for sweeps and per-thread working sets) skip the bucket
/// hash, the atomic chain walk, and their acquire fences: two compares and
/// a shift. Entries are tagged with the directory's unique id, so a cache
/// line can never outlive its space or leak across spaces (ids are never
/// reused); the cached PageT* was acquire-loaded by this same thread when
/// it was inserted, so its contents are already visible.
template <typename PageT>
class PageDirectory {
 public:
  using Geometry = ShadowGeometry;

  /// calloc, not a value-initialized array: the 512 KiB bucket array is
  /// a fresh zero mapping, so only the buckets a page lands in ever
  /// become resident (a directory nobody touches costs no RSS).
  PageDirectory()
      : buckets_(static_cast<PageT**>(
            std::calloc(Geometry::kBuckets, sizeof(PageT*)))) {
    if (buckets_ == nullptr) throw std::bad_alloc();
  }

  ~PageDirectory() {
    for (std::size_t b = 0; b < Geometry::kBuckets; ++b) {
      PageT* p = bucket(b).load(std::memory_order_relaxed);
      while (p != nullptr) {
        PageT* next = p->next.load(std::memory_order_relaxed);
        delete p;
        p = next;
      }
    }
    std::free(buckets_);
  }

  PageDirectory(const PageDirectory&) = delete;
  PageDirectory& operator=(const PageDirectory&) = delete;

  /// The page for `base` (allocated on first touch), through the
  /// thread-local cache. Single fused tag check: both the space id and the
  /// page base must match; OR-ing the XORs turns that into one
  /// compare-and-branch.
  PageT& page(std::uintptr_t base) {
    const Cache& c = tl_cache_;
    if (((c.space ^ id_) | (c.base ^ base)) == 0) {
      return *c.page;
    }
    return page_miss(base);
  }

  /// The page for `base` if it was ever touched, else nullptr - a lookup
  /// that never allocates, through the same thread-local cache as page().
  PageT* find_page(std::uintptr_t base) {
    const Cache& c = tl_cache_;
    if (((c.space ^ id_) | (c.base ^ base)) == 0) return c.page;
    std::atomic_ref<PageT*> head = bucket(Geometry::bucket_of(base));
    for (PageT* p = head.load(std::memory_order_acquire); p != nullptr;
         p = p->next.load(std::memory_order_acquire)) {
      if (p->base == base) {
        tl_cache_ = Cache{id_, base, p};
        return p;
      }
    }
    return nullptr;
  }

  /// fn(page, first, end) for every existing page overlapping [lo, hi),
  /// with [first, end) the slot indices the range covers in that page.
  /// The walk behind every reset_range: it never allocates, so clearing
  /// the state of freed memory cannot materialize new pages.
  template <typename Fn>
  void for_each_page(std::uintptr_t lo, std::uintptr_t hi, Fn&& fn) {
    for (std::uintptr_t base = Geometry::base_of(lo); base < hi;
         base += Geometry::kPageSpan) {
      PageT* p = find_page(base);
      if (p == nullptr) continue;
      const std::uintptr_t first = base < lo ? lo : base;
      const std::uintptr_t last =
          base + Geometry::kPageSpan < hi ? base + Geometry::kPageSpan : hi;
      fn(*p, Geometry::slot_index(first),
         ((last - 1 - base) >> Geometry::kGranularityLog2) + 1);
    }
  }

  std::size_t pages() const { return pages_.load(std::memory_order_relaxed); }
  std::size_t collisions() const {
    return collisions_.load(std::memory_order_relaxed);
  }
  std::size_t cache_misses() const { return cache_misses_.sum(0); }

 private:
  /// One-entry per-thread lookup cache (per PageT instantiation).
  struct Cache {
    std::uint64_t space = 0;  ///< owning directory's id_; 0 never matches
    std::uintptr_t base = 0;
    PageT* page = nullptr;
  };
  /// constinit: guarantees constant initialization, so every TU accesses
  /// the TLS slot directly instead of through the dynamic-init wrapper
  /// function the ABI otherwise requires for inline thread_locals. The
  /// wrapper call was the whole cost of the cache on single-page hammer
  /// workloads.
  inline static constinit thread_local Cache tl_cache_{};

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  PageT& page_miss(std::uintptr_t base) {
    cache_misses_.add(0);
    std::atomic_ref<PageT*> head = bucket(Geometry::bucket_of(base));
    PageT* p = head.load(std::memory_order_acquire);
    while (p != nullptr && p->base != base) {
      p = p->next.load(std::memory_order_acquire);
    }
    if (p == nullptr) p = &publish_page(head, base);
    tl_cache_ = Cache{id_, base, p};
    return *p;
  }

  /// Miss path: allocate the page for `base` and CAS it onto the bucket
  /// chain; on a lost race the winner's page is used and ours is dropped.
  PageT& publish_page(std::atomic_ref<PageT*> head, std::uintptr_t base) {
    auto fresh = std::make_unique<PageT>(base);
    PageT* expected = head.load(std::memory_order_acquire);
    for (;;) {
      // Re-scan: a concurrent publisher may have added `base` meanwhile.
      for (PageT* p = expected; p != nullptr;
           p = p->next.load(std::memory_order_acquire)) {
        if (p->base == base) {
          collisions_.fetch_add(1, std::memory_order_relaxed);
          return *p;
        }
      }
      fresh->next.store(expected, std::memory_order_relaxed);
      if (head.compare_exchange_weak(expected, fresh.get(),
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
        if (expected != nullptr) {
          collisions_.fetch_add(1, std::memory_order_relaxed);
        }
        pages_.fetch_add(1, std::memory_order_relaxed);
        return *fresh.release();
      }
    }
  }

  /// Bucket b's chain head. Every access goes through an atomic_ref; the
  /// plain array only exists so calloc can hand it out untouched.
  std::atomic_ref<PageT*> bucket(std::size_t b) {
    return std::atomic_ref<PageT*>(buckets_[b]);
  }

  const std::uint64_t id_ = Geometry::next_space_id();
  PageT** const buckets_;
  std::atomic<std::size_t> pages_{0};
  std::atomic<std::size_t> collisions_{0};
  /// Bumped on nearly every miss-path lookup, so it is sharded per
  /// thread; the rare-event counters above stay plain atomics.
  shard::ShardedCounters<1> cache_misses_;
};

template <Detector D>
class ShadowSpace {
 public:
  using Geometry = ShadowGeometry;

  ShadowSpace() = default;
  ShadowSpace(const ShadowSpace&) = delete;
  ShadowSpace& operator=(const ShadowSpace&) = delete;

  /// The VarState shadowing the word containing `addr` (page allocated on
  /// first touch). Lock-free; the returned reference is stable forever.
  typename D::VarState& of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return dir_.page(Geometry::base_of(a)).slot(a);
  }

  /// Reset every shadow word overlapping [addr, addr+size) to its initial
  /// (bottom) VarState, keeping the word's report id. This is the shadow
  /// half of free()/munmap() interposition: without it, memory the
  /// allocator recycles would inherit the dead object's access history and
  /// report false races against its previous life (docs/ALGORITHM.md s8).
  ///
  /// Only pages that already exist are touched - clearing never allocates.
  /// The caller must guarantee no thread concurrently accesses the range
  /// being cleared; for the free() path that is the target's own
  /// correctness obligation (freeing memory another thread still uses is a
  /// bug this very tool exists to find).
  void reset_range(const void* addr, std::size_t size) {
    if (size == 0) return;
    const auto lo = reinterpret_cast<std::uintptr_t>(addr);
    dir_.for_each_page(lo, lo + size, [&](Page& p, std::size_t first,
                                          std::size_t end) {
      for (std::size_t i = first; i < end; ++i) {
        auto& vs = p.slots[i];
        const std::uint64_t id = vs.id;
        std::destroy_at(&vs);
        std::construct_at(&vs);
        vs.id = id;
      }
      words_reset_.fetch_add(end - first, std::memory_order_relaxed);
    });
  }

  /// Pages allocated so far (racy snapshot).
  std::size_t pages() const { return dir_.pages(); }

  /// VarState slots materialized so far (pages * slots-per-page).
  std::size_t size() const { return pages() * Geometry::kSlotsPerPage; }

  /// Shadow words cleared by reset_range so far.
  std::size_t words_reset() const {
    return words_reset_.load(std::memory_order_relaxed);
  }

  ShadowSpaceStats stats() const {
    ShadowSpaceStats s;
    s.pages = pages();
    s.slots = s.pages * Geometry::kSlotsPerPage;
    s.bytes = Geometry::kBuckets * sizeof(std::atomic<Page*>) +
              s.pages * sizeof(Page);
    s.collisions = dir_.collisions();
    s.cache_misses = dir_.cache_misses();
    s.words_reset = words_reset();
    return s;
  }

 private:
  struct Page {
    explicit Page(std::uintptr_t b) : base(b) {
      for (std::size_t i = 0; i < Geometry::kSlotsPerPage; ++i) {
        slots[i].id = base + (i << Geometry::kGranularityLog2);
      }
    }

    typename D::VarState& slot(std::uintptr_t addr) {
      return slots[Geometry::slot_index(addr)];
    }

    const std::uintptr_t base;
    std::atomic<Page*> next{nullptr};
    typename D::VarState slots[Geometry::kSlotsPerPage];
  };

  PageDirectory<Page> dir_;
  std::atomic<std::size_t> words_reset_{0};
};

/// Packed-cell shadow space: 16 bytes of page payload per target word (an
/// 8-byte {R, W} cell plus an 8-byte lazy spill pointer) instead of a full
/// VarState. Accesses run the vft/packed_cell.h fast path inline; only
/// escalated words allocate a VarState, published through the cell's
/// ESCALATING->ESCALATED protocol (the spill directory of the packed
/// design). The spilled VarState's id is the word's base address, the same
/// id ShadowSpace assigns, so race reports agree across flavors.
template <Detector D>
class PackedShadowSpace {
 public:
  using Geometry = ShadowGeometry;
  using VarState = typename D::VarState;

  PackedShadowSpace() = default;
  PackedShadowSpace(const PackedShadowSpace&) = delete;
  PackedShadowSpace& operator=(const PackedShadowSpace&) = delete;

  /// A resolved word: its cell, its spill slot, and the report id. Stable
  /// forever; wrappers pre-resolve one per element.
  struct Slot {
    PackedCell* cell = nullptr;
    std::atomic<VarState*>* spill = nullptr;
    std::uint64_t id = 0;
  };

  Slot slot_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    Page& p = dir_.page(Geometry::base_of(a));
    const std::size_t i = Geometry::slot_index(a);
    return Slot{&p.cells[i], &p.spills[i],
                p.base + (i << Geometry::kGranularityLog2)};
  }

  /// The packed cell shadowing the word containing `addr`.
  PackedCell& cell_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return dir_.page(Geometry::base_of(a)).cells[Geometry::slot_index(a)];
  }

  /// Force-escalated VarState access, so external probes (and the generic
  /// backend concept) stay coherent with the cell protocol. Prefer
  /// read()/write(): this defeats the fast path for the word it touches.
  VarState& of(const void* addr) { return escalated(slot_of(addr)); }

  /// One instrumented access: fast path inline against the cell, detector
  /// call on the (spilled-on-demand) VarState otherwise.
  template <typename Tool>
  bool read(Tool& tool, ThreadState& st, const void* addr) {
    return read_slot(tool, st, slot_of(addr));
  }
  template <typename Tool>
  bool write(Tool& tool, ThreadState& st, const void* addr) {
    return write_slot(tool, st, slot_of(addr));
  }

  /// Slot-resolved variants (wrappers cache the Slot per element).
  template <typename Tool>
  bool read_slot(Tool& tool, ThreadState& st, const Slot& s) {
    return packed_read(tool, st, *s.cell, spill_make(s), spill_get(s),
                       /*spilled=*/nullptr, /*var=*/s.id);
  }
  template <typename Tool>
  bool write_slot(Tool& tool, ThreadState& st, const Slot& s) {
    return packed_write(tool, st, *s.cell, spill_make(s), spill_get(s),
                        /*spilled=*/nullptr, /*var=*/s.id);
  }

  /// The spilled VarState of `s`, escalating the cell first if needed.
  VarState& escalated(const Slot& s) {
    return escalate_cell(*s.cell, spill_make(s), spill_get(s));
  }

  /// Sampling-gated accesses (vft/sampling.h): with sampled=false only the
  /// cell fast path runs - no spill, no detector, no VarState. *spilled
  /// reports an escalation performed by this access, the gate's reheat
  /// signal.
  template <typename Tool>
  bool read_gated(Tool& tool, ThreadState& st, const void* addr, bool sampled,
                  bool* spilled = nullptr) {
    const Slot s = slot_of(addr);
    return sampled_packed_read(tool, st, *s.cell, spill_make(s), spill_get(s),
                               sampled, spilled, /*var=*/s.id);
  }
  template <typename Tool>
  bool write_gated(Tool& tool, ThreadState& st, const void* addr, bool sampled,
                   bool* spilled = nullptr) {
    const Slot s = slot_of(addr);
    return sampled_packed_write(tool, st, *s.cell, spill_make(s), spill_get(s),
                                sampled, spilled, /*var=*/s.id);
  }

  /// The raw cell words of the page covering `base` (allocated on first
  /// touch). The header-inlined ABI fast path (src/abi/vft_abi_inline.h)
  /// caches this pointer in its per-thread descriptor and the SIMD range
  /// kernels scan it directly; page stability makes the pointer valid for
  /// the life of the space. The fast path only *reads* cells (a same-epoch
  /// hit mutates nothing), hence const.
  const std::uint64_t* page_cells(std::uintptr_t base) {
    static_assert(sizeof(PackedCell) == sizeof(std::uint64_t));
    static_assert(alignof(PackedCell) == alignof(std::uint64_t));
    return reinterpret_cast<const std::uint64_t*>(dir_.page(base).cells);
  }

  /// Range accesses (the memcpy/memset/str* interposition shape): resolve
  /// whole runs of same-epoch cells per SIMD iteration instead of one
  /// packed fast path per word. The vc_simd prefix kernel counts leading
  /// cells this thread's epoch already covers; those bump their rule
  /// counters in bulk and are done (a same-epoch hit mutates nothing).
  /// The first non-matching word takes the ordinary gated scalar path -
  /// advance/spill/detector exactly as a single access would - and the
  /// scan resumes after it. Counter totals are bit-identical to the
  /// per-word loop. Returns false iff any word reported a race; *spilled
  /// reports any escalation (the sampling gate's reheat signal).
  template <typename Tool>
  bool range_read(Tool& tool, ThreadState& st, const void* addr,
                  std::size_t size, bool sampled, bool* spilled = nullptr) {
    return range_access<false>(tool, st, addr, size, sampled, spilled);
  }
  template <typename Tool>
  bool range_write(Tool& tool, ThreadState& st, const void* addr,
                   std::size_t size, bool sampled, bool* spilled = nullptr) {
    return range_access<true>(tool, st, addr, size, sampled, spilled);
  }

  /// Reset every shadow word overlapping [addr, addr+size) to bottom
  /// state, the packed-flavor counterpart of ShadowSpace::reset_range
  /// (same caller obligations: no concurrent access to the range). An
  /// epoch-mode cell goes back to {bottom, bottom}; an escalated word
  /// stays escalated and its spilled VarState is re-bottomed in place,
  /// keeping the report id - re-entering epoch mode would need to
  /// un-publish the VarState other threads may have cached.
  void reset_range(const void* addr, std::size_t size) {
    if (size == 0) return;
    const auto lo = reinterpret_cast<std::uintptr_t>(addr);
    dir_.for_each_page(lo, lo + size, [&](Page& p, std::size_t first,
                                          std::size_t end) {
      for (std::size_t i = first; i < end; ++i) {
        if (VarState* vs = p.spills[i].load(std::memory_order_relaxed)) {
          const std::uint64_t id = vs->id;
          std::destroy_at(vs);
          std::construct_at(vs);
          vs->id = id;
        } else {
          // Racing an in-flight escalation loses benignly: the loser's
          // snapshot was the pre-free history the caller promised is quiet.
          std::uint64_t cur = p.cells[i].bits();
          while (!PackedCell::is_sentinel(cur) &&
                 !p.cells[i].cas_bits(cur, 0)) {
          }
        }
      }
      words_reset_.fetch_add(end - first, std::memory_order_relaxed);
    });
  }

  std::size_t pages() const { return dir_.pages(); }
  std::size_t size() const { return pages() * Geometry::kSlotsPerPage; }
  std::size_t spilled() const {
    return spilled_.load(std::memory_order_relaxed);
  }
  std::size_t words_reset() const {
    return words_reset_.load(std::memory_order_relaxed);
  }

  ShadowSpaceStats stats() const {
    ShadowSpaceStats s;
    s.pages = pages();
    s.slots = s.pages * Geometry::kSlotsPerPage;
    s.bytes = Geometry::kBuckets * sizeof(std::atomic<Page*>) +
              s.pages * sizeof(Page) + spilled() * sizeof(VarState);
    s.collisions = dir_.collisions();
    s.cache_misses = dir_.cache_misses();
    s.spilled = spilled();
    s.words_reset = words_reset();
    return s;
  }

 private:
  struct Page {
    explicit Page(std::uintptr_t b) : base(b) {}

    ~Page() {
      for (std::size_t i = 0; i < Geometry::kSlotsPerPage; ++i) {
        delete spills[i].load(std::memory_order_relaxed);
      }
    }

    const std::uintptr_t base;
    std::atomic<Page*> next{nullptr};
    /// The page covering base + kPageSpan, filled in by the first range
    /// access that walks past this page. Pages live until the space dies,
    /// so the pointer never dangles; it turns the per-page directory
    /// lookup of a multi-page range into a single pointer chase.
    std::atomic<Page*> adjacent{nullptr};
    PackedCell cells[Geometry::kSlotsPerPage];
    std::atomic<VarState*> spills[Geometry::kSlotsPerPage]{};
  };

  template <bool IsWrite, typename Tool>
  bool range_access(Tool& tool, ThreadState& st, const void* addr,
                    std::size_t size, bool sampled, bool* spilled) {
    if (size == 0) return true;
    const std::uint32_t e = st.epoch().bits();
    const std::uintptr_t lo =
        reinterpret_cast<std::uintptr_t>(addr) &
        ~static_cast<std::uintptr_t>(Geometry::kGranularity - 1);
    const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(addr) + size;
    bool ok = true;
    Page* prev = nullptr;
    // SIMD-resolved cells accumulate locally and credit their rule
    // counters once per call - totals are identical to per-page bumps,
    // without an atomic RMW pair on every page segment.
    [[maybe_unused]] std::uint64_t hit_cells = 0;
    [[maybe_unused]] std::uint64_t sampled_out_cells = 0;
    for (std::uintptr_t base = Geometry::base_of(lo); base < hi;
         base += Geometry::kPageSpan) {
      // Consecutive pages ride the adjacency link instead of re-walking
      // the directory: one acquire load per page after the first.
      Page* pp = prev != nullptr
                     ? prev->adjacent.load(std::memory_order_acquire)
                     : nullptr;
      if (pp == nullptr || pp->base != base) {
        pp = &dir_.page(base);
        if (prev != nullptr) {
          prev->adjacent.store(pp, std::memory_order_release);
        }
      }
      prev = pp;
      Page& p = *pp;
      const std::uintptr_t first = base < lo ? lo : base;
      const std::uintptr_t last =
          base + Geometry::kPageSpan < hi ? base + Geometry::kPageSpan : hi;
      std::size_t i = Geometry::slot_index(first);
      const std::size_t end =
          ((last - 1 - base) >> Geometry::kGranularityLog2) + 1;
      const auto* bits = reinterpret_cast<const std::uint64_t*>(p.cells);
      while (i < end) {
#ifndef VFT_SCHED
        // Sched builds skip the prefix: the per-word loop below funnels
        // through load_bits()/cas_bits(), which carry the sched points.
        const std::size_t m =
            IsWrite ? simd::cells_match_write_prefix(bits + i, end - i, e)
                    : simd::cells_match_read_prefix(bits + i, end - i, e);
        if (m > 0) {
          if (sampled) {
            hit_cells += m;
          } else {
            // Sampled-out same-epoch hits: the scalar gated path would
            // leave the cell untouched and bump only kSampledOut too.
            sampled_out_cells += m;
          }
          i += m;
          if (i == end) break;
        }
#endif
        const void* wa = reinterpret_cast<const void*>(
            base + (i << Geometry::kGranularityLog2));
        bool word_spilled = false;
        ok &= IsWrite ? write_gated(tool, st, wa, sampled, &word_spilled)
                      : read_gated(tool, st, wa, sampled, &word_spilled);
        if (word_spilled && spilled != nullptr) *spilled = true;
        ++i;
      }
    }
#ifndef VFT_SCHED
    if (hit_cells > 0) {
      bump_rule(tool, IsWrite ? Rule::kWriteSameEpoch : Rule::kReadSameEpoch,
                hit_cells);
      bump_rule(tool, IsWrite ? Rule::kFastWriteHit : Rule::kFastReadHit,
                hit_cells);
    }
    if (sampled_out_cells > 0) {
      bump_rule(tool, Rule::kSampledOut, sampled_out_cells);
    }
#endif
    return ok;
  }

  /// make/get closures for escalate_cell: publication order is carried by
  /// the cell's release-store of ESCALATED, so the spill pointer itself
  /// needs only relaxed ordering.
  auto spill_make(const Slot& s) {
    return [this, &s]() -> VarState& {
      auto* vs = new VarState();
      vs->id = s.id;
      s.spill->store(vs, std::memory_order_relaxed);
      spilled_.fetch_add(1, std::memory_order_relaxed);
      return *vs;
    };
  }
  auto spill_get(const Slot& s) {
    return [&s]() -> VarState& { return *s.spill->load(std::memory_order_relaxed); };
  }

  PageDirectory<Page> dir_;
  std::atomic<std::size_t> spilled_{0};
  std::atomic<std::size_t> words_reset_{0};
};

/// Anything mapping addresses to stable VarStates can back the raw-pointer
/// entry points: ShadowSpace, and PackedShadowSpace (via its
/// force-escalating of(); the dedicated overloads below keep its fast path
/// instead).
template <typename S, typename D>
concept ShadowBackendFor = requires(S& s, const void* p) {
  { s.of(p) } -> std::same_as<typename D::VarState&>;
};

// --- Raw-pointer instrumentation entry points -------------------------------
//
// The API a compiler pass or binary-instrumentation front end would call
// (TSan's __tsan_readN/__tsan_writeN shape), generic over the backend so
// tools can switch between ShadowSpace and the packed cells with a flag.

template <Detector D, typename S>
  requires ShadowBackendFor<S, D>
bool instrumented_read(Runtime<D>& rt, S& shadow, const void* addr) {
  return rt.tool().read(rt.self(), shadow.of(addr));
}

template <Detector D, typename S>
  requires ShadowBackendFor<S, D>
bool instrumented_write(Runtime<D>& rt, S& shadow, const void* addr) {
  return rt.tool().write(rt.self(), shadow.of(addr));
}

/// Packed-cell overloads: more specialized than the generic backend
/// template, so they win overload resolution and keep the fast path.
template <Detector D>
bool instrumented_read(Runtime<D>& rt, PackedShadowSpace<D>& shadow,
                       const void* addr) {
  return shadow.read(rt.tool(), rt.self(), addr);
}

template <Detector D>
bool instrumented_write(Runtime<D>& rt, PackedShadowSpace<D>& shadow,
                        const void* addr) {
  return shadow.write(rt.tool(), rt.self(), addr);
}

/// Hint-prefetch the shadow word `slots_ahead` slots past `vs`. Inside a
/// shadow page consecutive target words shadow to consecutive VarStates,
/// so a range sweep's next few shadow words sit right after the current
/// one; pulling them toward L1 while the detector handler runs hides the
/// VarState-sized stride. Prefetch never faults, so running past a page
/// end is merely a wasted hint.
template <typename V>
inline void prefetch_shadow_ahead(const V& vs, std::size_t slots_ahead = 4) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(
      reinterpret_cast<const char*>(&vs) + slots_ahead * sizeof(V), 1, 3);
#else
  (void)vs;
  (void)slots_ahead;
#endif
}

/// Access-size/range variant: one read event per shadow word overlapped by
/// [addr, addr+size) - the __tsan_read8/memcpy-annotation shape. Returns
/// false iff any word reported a race.
template <Detector D, typename S>
  requires ShadowBackendFor<S, D>
bool instrumented_range_read(Runtime<D>& rt, S& shadow, const void* addr,
                             std::size_t size) {
  if (size == 0) return true;
  ThreadState& self = rt.self();
  auto& tool = rt.tool();
  std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr) &
                     ~static_cast<std::uintptr_t>(ShadowGeometry::kGranularity - 1);
  const std::uintptr_t end = reinterpret_cast<std::uintptr_t>(addr) + size;
  bool ok = true;
  for (; a < end; a += ShadowGeometry::kGranularity) {
    auto& vs = shadow.of(reinterpret_cast<const void*>(a));
    prefetch_shadow_ahead(vs);
    ok &= tool.read(self, vs);
  }
  return ok;
}

template <Detector D, typename S>
  requires ShadowBackendFor<S, D>
bool instrumented_range_write(Runtime<D>& rt, S& shadow, const void* addr,
                              std::size_t size) {
  if (size == 0) return true;
  ThreadState& self = rt.self();
  auto& tool = rt.tool();
  std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr) &
                     ~static_cast<std::uintptr_t>(ShadowGeometry::kGranularity - 1);
  const std::uintptr_t end = reinterpret_cast<std::uintptr_t>(addr) + size;
  bool ok = true;
  for (; a < end; a += ShadowGeometry::kGranularity) {
    auto& vs = shadow.of(reinterpret_cast<const void*>(a));
    prefetch_shadow_ahead(vs);
    ok &= tool.write(self, vs);
  }
  return ok;
}

/// Packed range variants: the fast path per word; cells are 8 bytes apart,
/// so the hardware prefetcher covers the stride and no hint is needed.
template <Detector D>
bool instrumented_range_read(Runtime<D>& rt, PackedShadowSpace<D>& shadow,
                             const void* addr, std::size_t size) {
  if (size == 0) return true;
  ThreadState& self = rt.self();
  auto& tool = rt.tool();
  std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr) &
                     ~static_cast<std::uintptr_t>(ShadowGeometry::kGranularity - 1);
  const std::uintptr_t end = reinterpret_cast<std::uintptr_t>(addr) + size;
  bool ok = true;
  for (; a < end; a += ShadowGeometry::kGranularity) {
    ok &= shadow.read(tool, self, reinterpret_cast<const void*>(a));
  }
  return ok;
}

template <Detector D>
bool instrumented_range_write(Runtime<D>& rt, PackedShadowSpace<D>& shadow,
                              const void* addr, std::size_t size) {
  if (size == 0) return true;
  ThreadState& self = rt.self();
  auto& tool = rt.tool();
  std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr) &
                     ~static_cast<std::uintptr_t>(ShadowGeometry::kGranularity - 1);
  const std::uintptr_t end = reinterpret_cast<std::uintptr_t>(addr) + size;
  bool ok = true;
  for (; a < end; a += ShadowGeometry::kGranularity) {
    ok &= shadow.write(tool, self, reinterpret_cast<const void*>(a));
  }
  return ok;
}

}  // namespace vft::rt

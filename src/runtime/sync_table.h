// Address-keyed synchronization-state table: the session's map from a
// target lock (pthread_mutex_t*, or any stable address acting as a lock
// identity) to its LockState, and from an atomic location to its
// AtomicState (vft/atomics.h).
//
// The rt::Mutex wrapper owns its LockState inline; an unmodified binary's
// locks and atomics are just addresses the interposer observes, so the
// session keeps this side table instead - the sync analogue of the packed
// shadow's address->cell mapping, built on the same lock-free
// PageDirectory (shadow_space.h) and its per-thread page cache:
//
//   page   one per 4 KiB of target memory that ever held a sync state,
//          CAS-published into the directory, never freed;
//   word   one atomic chain head per 8-byte word;
//   node   one per distinct address, keyed by the exact address, so two
//          sub-word atomics in one word keep distinct states.
//
//   find(a)  never locks and never allocates: the page lookup plus a
//            chain walk of acquire loads. A miss means no state was
//            ever created for `a`.
//   of(a)    find, or insert a bottom state with one CAS on the word's
//            head (a racing inserter of the same address wins, the loser
//            rescans and drops its node).
//
// Two properties the Section 4 runtime discipline needs:
//
//   Stability  a state reference stays valid until a reset_range covering
//              its address, so the acquire/release handlers can run
//              against it holding only the target lock (or, for atomics,
//              the state's own mutex).
//   Agreement  every alias of an address maps to the same state.
//
// Reuse safety mirrors the shadow: if the target frees a mutex or an
// atomic and the allocator recycles the address, the new object would
// inherit the dead one's release clock (sound - it only adds
// happens-before edges - but stale). free()/munmap() interposition calls
// reset_range(), which unlinks and deletes exactly the nodes whose
// addresses the freed range covers, walking only that range's words.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "runtime/shadow_space.h"

namespace vft::rt {

template <typename State>
class SyncTable {
 public:
  using Geometry = ShadowGeometry;

  SyncTable() = default;
  SyncTable(const SyncTable&) = delete;
  SyncTable& operator=(const SyncTable&) = delete;

  /// The state identified by `addr`, or nullptr if none was ever created
  /// (or the last one was dropped by reset_range).
  State* find(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    Page* p = dir_.find_page(Geometry::base_of(a));
    if (p == nullptr) return nullptr;
    Node* n = scan(p->heads[Geometry::slot_index(a)].load(
                       std::memory_order_acquire),
                   a);
    return n != nullptr ? &n->state : nullptr;
  }

  /// The state identified by `addr`, created bottom on first use.
  State& of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    std::atomic<Node*>& head =
        dir_.page(Geometry::base_of(a)).heads[Geometry::slot_index(a)];
    Node* h = head.load(std::memory_order_acquire);
    if (Node* n = scan(h, a)) return n->state;
    auto fresh = std::make_unique<Node>(a);
    for (;;) {
      fresh->next.store(h, std::memory_order_relaxed);
      if (head.compare_exchange_weak(h, fresh.get(),
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
        live_.fetch_add(1, std::memory_order_relaxed);
        return fresh.release()->state;
      }
      // `h` is the new head: a racing inserter may have added `a`.
      if (Node* n = scan(h, a)) return n->state;
    }
  }

  /// Drop every state whose address lies in [addr, addr+size): the target
  /// freed that memory, so a later lock or atomic at a recycled address
  /// must start from a bottom clock. Only the covered words are touched,
  /// and only pages that exist; the unlink lock is taken only once a
  /// covered word actually holds a node. The caller must guarantee no
  /// handler is concurrently using a dropped state, nor walking the chain
  /// of a word the range covers - true for any target that does not free
  /// a mutex or an atomic another thread still uses.
  void reset_range(const void* addr, std::size_t size) {
    if (size == 0 || live_.load(std::memory_order_relaxed) == 0) return;
    const auto lo = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t hi = lo + size;
    std::unique_lock<std::mutex> lk(unlink_mu_, std::defer_lock);
    dir_.for_each_page(lo, hi, [&](Page& p, std::size_t first,
                                   std::size_t end) {
      for (std::size_t i = first; i < end; ++i) {
        if (p.heads[i].load(std::memory_order_acquire) == nullptr) continue;
        if (!lk.owns_lock()) lk.lock();
        unlink_covered(p.heads[i], lo, hi);
      }
    });
  }

  /// Number of live states: inserts minus the ones reset_range dropped.
  std::size_t size() const { return live_.load(std::memory_order_relaxed); }

 private:
  struct Node {
    explicit Node(std::uintptr_t a) : addr(a) {}
    const std::uintptr_t addr;
    std::atomic<Node*> next{nullptr};
    State state;
  };

  struct Page {
    explicit Page(std::uintptr_t b) : base(b) {}
    ~Page() {
      for (std::atomic<Node*>& h : heads) {
        for (Node* n = h.load(std::memory_order_relaxed); n != nullptr;) {
          Node* next = n->next.load(std::memory_order_relaxed);
          delete n;
          n = next;
        }
      }
    }
    Page(const Page&) = delete;
    Page& operator=(const Page&) = delete;

    const std::uintptr_t base;
    std::atomic<Page*> next{nullptr};
    std::atomic<Node*> heads[Geometry::kSlotsPerPage]{};
  };

  static Node* scan(Node* n, std::uintptr_t a) {
    for (; n != nullptr; n = n->next.load(std::memory_order_acquire)) {
      if (n->addr == a) return n;
    }
    return nullptr;
  }

  /// Unlink and delete the nodes of one word's chain that [lo, hi) covers.
  /// Caller holds unlink_mu_, so interior links change only here; the
  /// head can still move under an insert, whose CAS this one then loses
  /// and re-examines the new head.
  void unlink_covered(std::atomic<Node*>& head, std::uintptr_t lo,
                      std::uintptr_t hi) {
    std::atomic<Node*>* link = &head;
    Node* n = link->load(std::memory_order_acquire);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_acquire);
      if (n->addr < lo || n->addr >= hi) {
        link = &n->next;
        n = next;
      } else if (link->compare_exchange_strong(n, next,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        delete n;
        live_.fetch_sub(1, std::memory_order_relaxed);
        n = next;
      }
    }
  }

  PageDirectory<Page> dir_;
  std::atomic<std::size_t> live_{0};
  std::mutex unlink_mu_;
};

}  // namespace vft::rt

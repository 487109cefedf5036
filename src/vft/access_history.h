// Bounded per-variable access history: the metadata substrate that lets a
// race report carry BOTH racing stacks.
//
// FastTrack-style last-access shadow state (VarState / PackedCell) keeps
// no history: when a race fires, the prior side is a bare epoch t@c and
// only the *current* access has a capturable stack. This layer records a
// small ring of recent slow-path accesses per variable - entries of
// {interned stack id, epoch, tid, access kind, size} - so the detector
// can look the prior epoch back up and attach its stack to the report.
//
// Cost discipline (the SmartTrack argument: per-variable access metadata
// is affordable iff it stays off the fast path):
//   - recording happens ONLY on the slow path: a same-epoch packed-cell
//     hit and a sampled-out access never reach note_access();
//   - stacks are hash-consed into a bounded intern table, so the ring
//     entry is 16 bytes; a per-thread direct-mapped cache in front of the
//     table resolves a repeated site with no lock and no shared write;
//   - the recorded-access count lives in the per-variable map shards and
//     is bumped under the shard lock the ring push already holds;
//   - both the ring count per variable (kRingCapacity) and the total
//     tracked variables / interned stacks are hard-bounded; overflow is
//     counted and degrades to "no prior stack", never to growth.
//
// Lookup correctness under tid-slot reuse (PR 5): a reused thread slot
// *continues* its predecessor's clock (ThreadState(tid, predecessor)
// copies V and increments), so epochs are strictly monotone per slot and
// an exact full-epoch match (t@c, not just t) can never confuse a
// successor thread's entry with its predecessor's.
//
// This layer is also the seam for the SmartTrack/WCP predictive tier:
// a predictive analysis needs exactly this per-variable window of recent
// accesses with stacks and clocks to re-order against.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "vft/epoch.h"
#include "vft/stack.h"

namespace vft::history {

/// What the recorded access did. Race lookups want the *opposite* side:
/// a write-read race looks for the prior write, a read-write race for the
/// prior read.
enum class AccessKind : std::uint8_t { kRead = 0, kWrite = 1 };

inline const char* access_kind_name(AccessKind k) {
  return k == AccessKind::kWrite ? "write" : "read";
}

/// One recorded slow-path access. 16 bytes; stack_id 0 means "no stack
/// was interned" (empty capture or intern table full).
struct Entry {
  std::uint32_t stack_id = 0;
  Epoch epoch;                           ///< full t@c at the access
  Tid tid = 0;
  AccessKind kind = AccessKind::kRead;
  std::uint8_t valid = 0;                ///< 0 = slot never written
  std::uint16_t size = 0;                ///< access size hint (bytes)
};

static_assert(sizeof(Entry) == 16);

/// Fixed ring capacity per variable. Eight entries comfortably cover the
/// gap between a racing pair (the prior access is by construction one of
/// the last few slow-path touches before the current one).
inline constexpr std::size_t kRingCapacity = 8;

/// The per-variable bounded ring. `next` counts pushes forever; the slot
/// index is next % kRingCapacity, so wraparound silently evicts the
/// oldest entry.
struct Ring {
  std::uint32_t next = 0;
  Entry entries[kRingCapacity];

  void push(const Entry& e) {
    entries[next % kRingCapacity] = e;
    ++next;
  }

  /// Newest-to-oldest scan for an exact (epoch, kind) match.
  const Entry* find(Epoch epoch, AccessKind kind) const {
    const std::uint32_t n =
        next < kRingCapacity ? next : static_cast<std::uint32_t>(kRingCapacity);
    for (std::uint32_t back = 1; back <= n; ++back) {
      const Entry& e = entries[(next - back) % kRingCapacity];
      if (e.valid != 0 && e.epoch == epoch && e.kind == kind) return &e;
    }
    return nullptr;
  }
};

/// Hash-consed bounded stack interning. Ids are 1-based; 0 is reserved
/// for "no stack". The table never shrinks and is capped at kMaxStacks
/// distinct stacks; beyond that intern() returns 0 and counts the drop
/// (reports then degrade to a stack-less prior, exactly like pre-history
/// reports).
class StackPool {
 public:
  static constexpr std::size_t kMaxStacks = std::size_t{1} << 16;

  /// Intern `cs`, returning its id (0 for an empty stack or a full table).
  std::uint32_t intern(const CallStack& cs);

  /// Copy the stack for `id` into *out. False for id 0 / unknown ids.
  bool lookup(std::uint32_t id, CallStack* out) const;

  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
  std::vector<CallStack> stacks_;  ///< id - 1 indexes this
  std::atomic<std::uint64_t> dropped_{0};
};

/// The process-wide access history: sharded var -> Ring maps plus the
/// shared stack intern table. All methods are thread-safe; none are on
/// the same-epoch fast path.
class AccessHistory {
 public:
  static constexpr std::size_t kShards = 64;
  /// Hard bound on tracked variables across all shards; beyond it new
  /// variables are dropped (counted), existing rings keep recording.
  static constexpr std::size_t kMaxVars = std::size_t{1} << 20;

  AccessHistory();

  /// Record one slow-path access with an explicit stack (tests, replay).
  void record(std::uint64_t var, Tid tid, Epoch epoch, AccessKind kind,
              std::uint16_t size, const CallStack& stack);

  /// Record the in-flight access: captures the armed event-ctx stack
  /// (capture_event_stack) and the thread's tl_access_size hint.
  void record_current(std::uint64_t var, Tid tid, Epoch epoch, AccessKind kind);

  /// Look up the prior side of a race: the entry for exactly (epoch,
  /// want) on `var`. False when the ring evicted it (or never saw it).
  bool find(std::uint64_t var, Epoch epoch, AccessKind want, Entry* out) const;

  /// Resolve an interned stack id; false for 0 / unknown.
  bool stack_of(std::uint32_t id, CallStack* out) const {
    return stacks_.lookup(id, out);
  }

  /// Drop rings for variables in [addr, addr+size): called from the
  /// free-hint path so recycled heap memory cannot leak a dead
  /// allocation's stacks into a new allocation's report.
  void reset_range(std::uint64_t addr, std::size_t size);

  /// Drop all rings (stack interning survives; ids stay valid).
  void clear();

  /// Accesses recorded so far (folded over the map shards).
  std::uint64_t recorded() const;
  std::uint64_t var_drops() const { return var_drops_.load(std::memory_order_relaxed); }
  std::uint64_t stack_drops() const { return stacks_.dropped(); }
  std::size_t interned_stacks() const { return stacks_.size(); }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Ring> rings;
    std::uint64_t recorded = 0;  ///< pushes into this shard's rings
  };

  /// StackPool::intern behind the calling thread's intern cache.
  std::uint32_t intern(const CallStack& cs);

  Shard& shard_of(std::uint64_t var) {
    return shards_[(var >> 3) & (kShards - 1)];
  }
  const Shard& shard_of(std::uint64_t var) const {
    return shards_[(var >> 3) & (kShards - 1)];
  }

  /// Unique per instance and never reused: tags this instance's entries
  /// in the per-thread intern caches, so a cached id can never be
  /// returned by a later AccessHistory (e.g. after history::install).
  const std::uint64_t id_;
  Shard shards_[kShards];
  StackPool stacks_;
  std::atomic<std::size_t> var_count_{0};
  std::atomic<std::uint64_t> var_drops_{0};
};

/// The installed history, or nullptr when the layer is off. Same
/// publication contract as sampling::Gate: install() swaps the pointer,
/// replaced instances are leaked by design (a racing recorder may still
/// hold the old pointer).
AccessHistory* active();
void install(AccessHistory* h);

/// VFT_HISTORY env gate: default ON; "0"/"off"/"false" disables.
bool enabled_from_env();

/// Best-effort access-size hint, set by the session layer's per-access
/// handlers before detector dispatch. Zero when no handler armed it.
extern thread_local std::uint32_t tl_access_size;

/// The detector-side hook: record the in-flight slow-path access. A
/// single predicted-null load when the layer is off. NEVER call this
/// from a same-epoch hit or a sampled-out access.
inline void note_access(std::uint64_t var, Tid tid, Epoch epoch,
                        AccessKind kind) {
  if (AccessHistory* h = active()) h->record_current(var, tid, epoch, kind);
}

}  // namespace vft::history

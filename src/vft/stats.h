// Per-rule frequency counters, for reproducing the Section 5 access-mix
// claim ([Read Same Epoch] 60%, [Write Same Epoch] 14%, [ReadShared Same
// Epoch] 12% -> the three lock-free fast paths cover ~85% of accesses).
//
// Every detector carries an optional RuleStats pointer; when unset (the
// default, and the Table 1 configuration) the only cost is one predictable
// branch per handler exit. When set, counters are per-thread shards
// (vft/shard.h): each target thread bumps its own cache line with a
// relaxed load + store, and count() folds the shards.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "vft/shard.h"

namespace vft {

enum class Rule : std::uint8_t {
  kReadSameEpoch,
  kReadSharedSameEpoch,
  kReadExclusive,
  kReadShare,
  kReadShared,
  kWriteSameEpoch,
  kWriteExclusive,
  kWriteShared,
  kWriteReadRace,
  kWriteWriteRace,
  kReadWriteRace,
  kSharedWriteRace,
  kAcquire,
  kRelease,
  kFork,
  kJoin,
  kVolRead,
  kVolWrite,
  kBarrier,
  // __tsan_atomic* sync accounting (vft/atomics.h). Like the sync rows
  // above these are not data accesses: an atomic op never routes through
  // the access rules, so the rows live past kSharedWriteRace and never
  // perturb total_accesses() or the Table 1 distribution.
  kAtomicLoad,     ///< __tsan_atomicN_load (any order)
  kAtomicStore,    ///< __tsan_atomicN_store (any order)
  kAtomicRmw,      ///< exchange / fetch_* / compare_exchange (any order)
  kAtomicFence,    ///< __tsan_atomic_thread_fence
  kAtomicRelaxed,  ///< of the above, ops that contributed NO sync edge
  // Packed-cell fast-path accounting (vft/packed_cell.h). These are
  // *extra* observations layered over the access rules above: a fast-path
  // hit also bumps its [.. Same Epoch]/[.. Exclusive] rule (the detector
  // never saw the access, so the fast path keeps the Table 1 distribution
  // honest), and a miss is counted here on top of whatever rule the
  // detector then fires. Placed after kBarrier so total_accesses() - which
  // sums only through kSharedWriteRace - never double counts.
  kFastReadHit,   ///< read completed inline against the packed cell
  kFastWriteHit,  ///< write completed inline against the packed cell
  kFastSpill,     ///< escalations won: cell spilled into a full VarState
  kFastMiss,      ///< accesses that fell through to a detector call
  kSampledOut,    ///< accesses gated out by the sampling layer
  kNumRules,
};

inline const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kReadSameEpoch: return "[Read Same Epoch]";
    case Rule::kReadSharedSameEpoch: return "[Read Shared Same Epoch]";
    case Rule::kReadExclusive: return "[Read Exclusive]";
    case Rule::kReadShare: return "[Read Share]";
    case Rule::kReadShared: return "[Read Shared]";
    case Rule::kWriteSameEpoch: return "[Write Same Epoch]";
    case Rule::kWriteExclusive: return "[Write Exclusive]";
    case Rule::kWriteShared: return "[Write Shared]";
    case Rule::kWriteReadRace: return "[Write-Read Race]";
    case Rule::kWriteWriteRace: return "[Write-Write Race]";
    case Rule::kReadWriteRace: return "[Read-Write Race]";
    case Rule::kSharedWriteRace: return "[Shared-Write Race]";
    case Rule::kAcquire: return "[Acquire]";
    case Rule::kRelease: return "[Release]";
    case Rule::kFork: return "[Fork]";
    case Rule::kJoin: return "[Join]";
    case Rule::kVolRead: return "[Volatile Read]";
    case Rule::kVolWrite: return "[Volatile Write]";
    case Rule::kBarrier: return "[Barrier]";
    case Rule::kAtomicLoad: return "[Atomic Load]";
    case Rule::kAtomicStore: return "[Atomic Store]";
    case Rule::kAtomicRmw: return "[Atomic RMW]";
    case Rule::kAtomicFence: return "[Atomic Fence]";
    case Rule::kAtomicRelaxed: return "[Atomic Relaxed]";
    case Rule::kFastReadHit: return "[Fast Read Hit]";
    case Rule::kFastWriteHit: return "[Fast Write Hit]";
    case Rule::kFastSpill: return "[Fast Spill]";
    case Rule::kFastMiss: return "[Fast Miss]";
    case Rule::kSampledOut: return "[Sampled Out]";
    default: return "?";
  }
}

class RuleStats {
 public:
  static constexpr std::size_t kN = static_cast<std::size_t>(Rule::kNumRules);

  void bump(Rule r) { counts_.add(static_cast<std::size_t>(r)); }

  /// Bulk bump: n observations of the same rule in one add. Used by the
  /// SIMD range kernels, which resolve a whole prefix of cells at once.
  void bump(Rule r, std::uint64_t n) {
    counts_.add(static_cast<std::size_t>(r), n);
  }

  /// The calling thread's own counter for `r`, for the header-inlined ABI
  /// fast path: an inline hit bumps it with the same relaxed load + store
  /// bump() performs, so the fast and slow paths stay bit-identical on
  /// every counter. nullptr when the thread has no shard of its own.
  std::atomic<std::uint64_t>* thread_counter(Rule r) {
    return counts_.local(static_cast<std::size_t>(r));
  }

  std::uint64_t count(Rule r) const {
    return counts_.sum(static_cast<std::size_t>(r));
  }

  /// Total read+write accesses (excludes sync operations).
  std::uint64_t total_accesses() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i <= static_cast<std::size_t>(Rule::kSharedWriteRace); ++i) {
      n += counts_.sum(i);
    }
    return n;
  }

  /// Zero every counter; only while no thread is bumping.
  void reset() { counts_.reset(); }

  /// Per-thread shards allocated so far (bounded by peak live threads).
  std::size_t shards() const { return counts_.shards(); }

 private:
  shard::ShardedCounters<kN> counts_;
};

}  // namespace vft

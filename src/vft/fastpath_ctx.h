/* The per-thread fast-path descriptor for the header-inlined ABI hot path.
 *
 * Armed by the runtime (SessionImpl) after a slow-path access establishes
 * the thread's shadow page and epoch; consumed by the inline try-functions
 * in abi/vft_abi_inline.h, which resolve the same-epoch hit and the
 * sampled-out skip with no call, no AbiScope, and no virtual dispatch.
 *
 * Validity protocol: the descriptor is live iff `gen` equals the process
 * global vft_g_fastpath_gen (which starts at 1 and is bumped on every
 * Session::reset / detector re-selection; a thread-local gen of 0 is
 * always stale). Every pointer dereference in the inline path is guarded
 * by that comparison, so retraction is a single atomic increment - no
 * per-thread teardown is needed. `epoch_addr` points at the owning
 * thread's cached epoch (only the owner mutates it, so it is always
 * fresh); `cells` points at the packed-cell array of the shadow page
 * covering `page_base`; the rule pointers target the arming thread's own
 * shard of the session's RuleStats (vft/shard.h), so an inline hit bumps
 * exactly the counters the out-of-line path would, with the same relaxed
 * load + store and no write to a line another thread writes. No rule
 * count is deferred: at any point the counters include every inline hit.
 * The shard pointers stay valid while the thread keeps its counter slot;
 * releasing the slot at thread exit clears the descriptor.
 *
 * Drop-policy sampling rides the same descriptor: `drop_countdown` holds
 * the remaining geometric skips handed out by Gate::admit_and_refill, and
 * `drop_pending` accumulates skips taken inline until the next slow-path
 * entry flushes them into the gate's statistics.
 *
 * Plain C so the preload library can use it with no C++ dependency.
 * Defined in vft/stack.cpp next to the event context it complements.
 */
#ifndef VFT_VFT_FASTPATH_CTX_H_
#define VFT_VFT_FASTPATH_CTX_H_

#include <stdint.h>

#ifdef __cplusplus
#define VFT_FASTPATH_TLS thread_local
extern "C" {
#else
#define VFT_FASTPATH_TLS __thread
#endif

typedef struct vft_fastpath_s {
  uint64_t gen;               /* == vft_g_fastpath_gen when live; 0 = stale */
  const uint32_t* epoch_addr; /* owning thread's current epoch bits */
  uintptr_t page_base;        /* first target byte covered by `cells` */
  const uint64_t* cells;      /* packed cells of the cached shadow page */
  uint64_t drop_countdown;    /* drop-policy skips remaining (0 = sample) */
  uint64_t drop_pending;      /* inline skips not yet flushed to the gate */
  uint64_t* rule_read[2];     /* own-shard counters a read hit bumps */
  uint64_t* rule_write[2];    /* own-shard counters a write hit bumps */
} vft_fastpath_s;

extern VFT_FASTPATH_TLS vft_fastpath_s vft_tl_fastpath;

/* Process-wide session generation. Read with acquire in the inline path;
 * each session backend snapshots it at creation, and Session::reset
 * increments it (release) to retract every armed descriptor and thread
 * binding of the old backend at once. */
extern uint64_t vft_g_fastpath_gen;

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* VFT_VFT_FASTPATH_CTX_H_ */

// Unit tests for the bounded per-variable access history
// (vft/access_history.h): ring wraparound, stack interning and its
// per-thread cache, exact recorded() counts under concurrent recorders,
// tid-slot reuse safety, range reset, the shadow-stack fallback in
// capture_event_stack (prior-side capture with no armed boundary), the
// detector-level prior-stack lookup, and rule-counter parity with the
// history layer on vs off.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "vft/access_history.h"
#include "vft/djit.h"
#include "vft/epoch.h"
#include "vft/event_ctx.h"
#include "vft/ft_cas.h"
#include "vft/ft_mutex.h"
#include "vft/report.h"
#include "vft/shadow_state.h"
#include "vft/stack.h"
#include "vft/stats.h"
#include "vft/vft_v1.h"
#include "vft/vft_v15.h"
#include "vft/vft_v2.h"

namespace vft {
namespace {

CallStack stack_of(std::initializer_list<std::uintptr_t> pcs) {
  CallStack cs;
  for (std::uintptr_t pc : pcs) cs.push(pc);
  return cs;
}

// ---------------------------------------------------------------------------
// Ring

TEST(Ring, FindsRecordedEntry) {
  history::Ring ring;
  history::Entry e;
  e.stack_id = 7;
  e.epoch = Epoch::make(1, 5);
  e.tid = 1;
  e.kind = history::AccessKind::kWrite;
  e.valid = 1;
  e.size = 4;
  ring.push(e);

  const history::Entry* hit =
      ring.find(Epoch::make(1, 5), history::AccessKind::kWrite);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stack_id, 7u);
  EXPECT_EQ(hit->size, 4u);
  // Same epoch, wrong kind: no match.
  EXPECT_EQ(ring.find(Epoch::make(1, 5), history::AccessKind::kRead), nullptr);
  // Wrong epoch: no match.
  EXPECT_EQ(ring.find(Epoch::make(1, 6), history::AccessKind::kWrite), nullptr);
}

TEST(Ring, WraparoundEvictsOldestFirst) {
  history::Ring ring;
  const int n = static_cast<int>(history::kRingCapacity) + 3;
  for (int i = 0; i < n; ++i) {
    history::Entry e;
    e.stack_id = static_cast<std::uint32_t>(100 + i);
    e.epoch = Epoch::make(1, static_cast<Clock>(i + 1));
    e.tid = 1;
    e.kind = history::AccessKind::kWrite;
    e.valid = 1;
    ring.push(e);
  }
  // The three oldest entries were overwritten...
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ring.find(Epoch::make(1, static_cast<Clock>(i + 1)),
                        history::AccessKind::kWrite),
              nullptr)
        << "entry " << i << " should have been evicted";
  }
  // ...and the newest kRingCapacity entries all survive, with their ids.
  for (int i = 3; i < n; ++i) {
    const history::Entry* hit = ring.find(
        Epoch::make(1, static_cast<Clock>(i + 1)), history::AccessKind::kWrite);
    ASSERT_NE(hit, nullptr) << "entry " << i << " should survive";
    EXPECT_EQ(hit->stack_id, static_cast<std::uint32_t>(100 + i));
  }
}

TEST(Ring, NewestWinsWhenEpochsCollide) {
  // Two entries with the same (epoch, kind) - e.g. a re-recorded slow-path
  // access - must resolve to the most recent stack.
  history::Ring ring;
  for (std::uint32_t id : {1u, 2u}) {
    history::Entry e;
    e.stack_id = id;
    e.epoch = Epoch::make(2, 9);
    e.tid = 2;
    e.kind = history::AccessKind::kRead;
    e.valid = 1;
    ring.push(e);
  }
  const history::Entry* hit =
      ring.find(Epoch::make(2, 9), history::AccessKind::kRead);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stack_id, 2u);
}

// ---------------------------------------------------------------------------
// StackPool

TEST(StackPool, InternDeduplicatesAndRoundTrips) {
  history::StackPool table;
  const CallStack a = stack_of({0x1000, 0x2000});
  const CallStack b = stack_of({0x1000, 0x2000, 0x3000});

  const std::uint32_t ida = table.intern(a);
  const std::uint32_t idb = table.intern(b);
  EXPECT_NE(ida, 0u);
  EXPECT_NE(idb, 0u);
  EXPECT_NE(ida, idb);
  // Same frames intern to the same id - no growth.
  EXPECT_EQ(table.intern(a), ida);
  EXPECT_EQ(table.intern(b), idb);
  EXPECT_EQ(table.size(), 2u);

  CallStack out;
  ASSERT_TRUE(table.lookup(ida, &out));
  EXPECT_EQ(out, a);
  ASSERT_TRUE(table.lookup(idb, &out));
  EXPECT_EQ(out, b);
}

TEST(StackPool, EmptyStackIsIdZeroAndLookupFails) {
  history::StackPool table;
  EXPECT_EQ(table.intern(CallStack{}), 0u);
  CallStack out;
  EXPECT_FALSE(table.lookup(0, &out));
  EXPECT_FALSE(table.lookup(42, &out));  // never interned
}

// ---------------------------------------------------------------------------
// AccessHistory

TEST(AccessHistory, RecordThenFindExactEpochAndKind) {
  history::AccessHistory h;
  const std::uint64_t var = 0xdead00;
  h.record(var, 1, Epoch::make(1, 3), history::AccessKind::kWrite, 8,
           stack_of({0x5000, 0x5100}));

  history::Entry e;
  ASSERT_TRUE(h.find(var, Epoch::make(1, 3), history::AccessKind::kWrite, &e));
  EXPECT_EQ(e.tid, 1u);
  EXPECT_EQ(e.size, 8u);
  CallStack cs;
  ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
  EXPECT_EQ(cs, stack_of({0x5000, 0x5100}));

  // Kind and epoch must match exactly.
  EXPECT_FALSE(h.find(var, Epoch::make(1, 3), history::AccessKind::kRead, &e));
  EXPECT_FALSE(h.find(var, Epoch::make(1, 4), history::AccessKind::kWrite, &e));
  // Unknown variable: nothing.
  EXPECT_FALSE(h.find(0xbeef00, Epoch::make(1, 3),
                      history::AccessKind::kWrite, &e));
}

TEST(AccessHistory, SlotReuseDoesNotMasquerade) {
  // PR 5's tid-slot reuse machinery continues a retired thread's clock
  // (ThreadState(tid, predecessor)), so epochs on a reused slot are
  // strictly greater than every epoch the predecessor ever had. The
  // history's exact-epoch match therefore can never attribute a
  // successor's entry to the predecessor or vice versa.
  history::AccessHistory h;
  const std::uint64_t var = 0xaaaa00;

  ThreadState pred(1);
  pred.inc();  // 1@2
  pred.inc();  // 1@3
  const Epoch pred_epoch = pred.epoch();
  h.record(var, pred.t, pred_epoch, history::AccessKind::kWrite, 4,
           stack_of({0xAAAA}));

  ThreadState succ(1, pred.V);  // reused slot: continues at 1@4
  const Epoch succ_epoch = succ.epoch();
  ASSERT_FALSE(succ_epoch == pred_epoch);
  ASSERT_LT(pred_epoch.clock(), succ_epoch.clock());
  h.record(var, succ.t, succ_epoch, history::AccessKind::kWrite, 4,
           stack_of({0xBBBB}));

  history::Entry e;
  CallStack cs;
  ASSERT_TRUE(h.find(var, pred_epoch, history::AccessKind::kWrite, &e));
  ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
  EXPECT_EQ(cs, stack_of({0xAAAA}));  // predecessor's stack, not successor's

  ASSERT_TRUE(h.find(var, succ_epoch, history::AccessKind::kWrite, &e));
  ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
  EXPECT_EQ(cs, stack_of({0xBBBB}));
}

TEST(AccessHistory, ResetRangeDropsCoveredVarsOnly) {
  history::AccessHistory h;
  const std::uint64_t inside = 0x10008;
  const std::uint64_t outside = 0x20000;
  h.record(inside, 1, Epoch::make(1, 2), history::AccessKind::kWrite, 8,
           stack_of({0x1}));
  h.record(outside, 1, Epoch::make(1, 3), history::AccessKind::kWrite, 8,
           stack_of({0x2}));

  h.reset_range(0x10000, 0x100);

  history::Entry e;
  EXPECT_FALSE(
      h.find(inside, Epoch::make(1, 2), history::AccessKind::kWrite, &e));
  EXPECT_TRUE(
      h.find(outside, Epoch::make(1, 3), history::AccessKind::kWrite, &e));
}

// The per-thread intern cache is tagged with the owning history's
// instance id, so a stack cached for a replaced instance interns afresh in
// the new table - even when the new instance reuses the old address.
TEST(AccessHistory, InternCacheNeverOutlivesItsInstance) {
  using history::AccessKind;
  history::AccessHistory* const prev = history::active();
  const CallStack s0 = stack_of({0x7000});
  const CallStack s1 = stack_of({0x7100, 0x7200});
  history::Entry e;

  auto* old_h = new history::AccessHistory();
  history::install(old_h);
  old_h->record(0x100, 0, Epoch::make(0, 1), AccessKind::kWrite, 8, s0);
  for (std::uint32_t c = 2; c < 5; ++c) {  // first a miss, then cache hits
    old_h->record(0x108, 0, Epoch::make(0, c), AccessKind::kWrite, 8, s1);
    ASSERT_TRUE(
        old_h->find(0x108, Epoch::make(0, c), AccessKind::kWrite, &e));
    EXPECT_EQ(e.stack_id, 2u);
  }
  EXPECT_EQ(old_h->interned_stacks(), 2u);
  delete old_h;

  auto* fresh = new history::AccessHistory();
  history::install(fresh);
  fresh->record(0x108, 0, Epoch::make(0, 9), AccessKind::kWrite, 8, s1);
  ASSERT_TRUE(fresh->find(0x108, Epoch::make(0, 9), AccessKind::kWrite, &e));
  EXPECT_EQ(e.stack_id, 1u);  // never the old instance's id 2
  CallStack cs;
  ASSERT_TRUE(fresh->stack_of(e.stack_id, &cs));
  EXPECT_EQ(cs, s1);
  EXPECT_EQ(fresh->interned_stacks(), 1u);
  history::install(prev);
  delete fresh;
}

// recorded() folds the per-map-shard counts: every push from every
// recorder thread is counted exactly, and the intern caches of all
// threads agree with the one table.
TEST(AccessHistory, RecordedCountsEveryPushFromAllThreads) {
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 5000;
  constexpr std::uintptr_t kSites = 8;
  history::AccessHistory h;
  auto site = [](int t, std::uint32_t i) {
    return stack_of({0x9000 + 16 * (i % kSites),
                     0xa000 + 16 * static_cast<std::uintptr_t>(t)});
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &site, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t var = 0x40000 + 8 * (t * 64 + i % 64);
        h.record(var, static_cast<Tid>(t),
                 Epoch::make(static_cast<Tid>(t), i + 1),
                 history::AccessKind::kRead, 8, site(t, i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.recorded(), std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.interned_stacks(), kThreads * kSites);
  EXPECT_EQ(h.stack_drops(), 0u);
  for (int t = 0; t < kThreads; ++t) {
    const std::uint32_t i = kPerThread - 1;
    history::Entry e;
    ASSERT_TRUE(h.find(0x40000 + 8 * (t * 64 + i % 64),
                       Epoch::make(static_cast<Tid>(t), i + 1),
                       history::AccessKind::kRead, &e));
    CallStack cs;
    ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
    EXPECT_EQ(cs, site(t, i));
  }
}

TEST(AccessHistory, EnvDefaultOnExplicitOff) {
  unsetenv("VFT_HISTORY");
  EXPECT_TRUE(history::enabled_from_env());
  setenv("VFT_HISTORY", "off", 1);
  EXPECT_FALSE(history::enabled_from_env());
  setenv("VFT_HISTORY", "0", 1);
  EXPECT_FALSE(history::enabled_from_env());
  setenv("VFT_HISTORY", "1", 1);
  EXPECT_TRUE(history::enabled_from_env());
  unsetenv("VFT_HISTORY");
}

// ---------------------------------------------------------------------------
// Satellite: capture_event_stack falls back to the shadow call stack when
// the frame-pointer walk has nothing to start from (prior-side capture
// with no armed boundary).

struct TlsGuard {
  ~TlsGuard() {
    vft_tl_event_ctx = vft_event_ctx_s{};
    vft_tl_shadow_stack = vft_shadow_stack_s{};
  }
};

TEST(CaptureEventStack, EmptyWalkFallsBackToShadowStack) {
  TlsGuard guard;
  vft_tl_event_ctx = vft_event_ctx_s{};  // no boundary armed
  vft_tl_shadow_stack.depth = 3;
  vft_tl_shadow_stack.pc[0] = reinterpret_cast<const void*>(0x11000);  // outer
  vft_tl_shadow_stack.pc[1] = reinterpret_cast<const void*>(0x12000);
  vft_tl_shadow_stack.pc[2] = reinterpret_cast<const void*>(0x13000);  // inner

  const CallStack cs = capture_event_stack();
  // Innermost first, like the frame-pointer walk's output.
  EXPECT_EQ(cs, stack_of({0x13000, 0x12000, 0x11000}));
}

TEST(CaptureEventStack, ShadowFallbackSkipsNearNullFrames) {
  TlsGuard guard;
  vft_tl_event_ctx = vft_event_ctx_s{};
  vft_tl_shadow_stack.depth = 2;
  vft_tl_shadow_stack.pc[0] = reinterpret_cast<const void*>(0x11000);
  vft_tl_shadow_stack.pc[1] = reinterpret_cast<const void*>(0x10);  // bogus

  const CallStack cs = capture_event_stack();
  EXPECT_EQ(cs, stack_of({0x11000}));
}

// ---------------------------------------------------------------------------
// Detector-level: a race report carries the prior access's ring stack.

struct HistoryGuard {
  explicit HistoryGuard(history::AccessHistory* h) { history::install(h); }
  ~HistoryGuard() { history::install(nullptr); }
};

TEST(DetectorPrior, WriteWriteRaceCarriesPriorStack) {
  TlsGuard tls;
  HistoryGuard installed(new history::AccessHistory());
  RaceCollector races;
  VftV2 det(&races);

  ThreadState t1(1);
  ThreadState t0(0);
  VftV2::VarState x;
  x.id = 0x123450;

  // T1's write goes through [Write Exclusive] (slow path) and records its
  // armed stack into the ring.
  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0x5000);
  vft_tl_event_ctx.fp = nullptr;
  ASSERT_TRUE(det.write(t1, x));

  // T0's unordered write races; the report must look up T1's entry.
  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0x6000);
  vft_tl_event_ctx.fp = nullptr;
  EXPECT_FALSE(det.write(t0, x));

  const auto ctxs = races.contexts();
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].first.kind, RaceKind::kWriteWrite);
  EXPECT_EQ(ctxs[0].first.stack, stack_of({0x6000}));
  EXPECT_EQ(ctxs[0].first.prior_stack, stack_of({0x5000}));
  ASSERT_EQ(ctxs[0].prior_frames.size(), 1u);
  EXPECT_EQ(ctxs[0].prior_frames[0].pc, 0x5000u);
}

TEST(DetectorPrior, WriteReadRaceLooksUpPriorWrite) {
  TlsGuard tls;
  HistoryGuard installed(new history::AccessHistory());
  RaceCollector races;
  VftV2 det(&races);

  ThreadState t1(1);
  ThreadState t0(0);
  VftV2::VarState x;
  x.id = 0x123458;

  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0x7000);
  vft_tl_event_ctx.fp = nullptr;
  ASSERT_TRUE(det.write(t1, x));

  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0x8000);
  vft_tl_event_ctx.fp = nullptr;
  EXPECT_FALSE(det.read(t0, x));  // [Write-Read Race]

  const auto ctxs = races.contexts();
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].first.kind, RaceKind::kWriteRead);
  EXPECT_EQ(ctxs[0].first.prior_stack, stack_of({0x7000}));
}

TEST(DetectorPrior, HistoryOffDegradesToEmptyPriorStack) {
  TlsGuard tls;
  // No history installed: reports must look exactly like pre-history ones.
  RaceCollector races;
  VftV2 det(&races);

  ThreadState t1(1);
  ThreadState t0(0);
  VftV2::VarState x;
  x.id = 0x123460;

  ASSERT_TRUE(det.write(t1, x));
  EXPECT_FALSE(det.write(t0, x));

  const auto ctxs = races.contexts();
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_TRUE(ctxs[0].first.prior_stack.empty());
  EXPECT_TRUE(ctxs[0].prior_frames.empty());
}

// ---------------------------------------------------------------------------
// Rule-counter parity: recording history must never perturb the Table 1
// rule distribution, for any detector in the family.

template <class D>
std::unique_ptr<D> make_detector(RaceCollector* races, RuleStats* stats) {
  return std::make_unique<D>(races, stats);
}
template <>
std::unique_ptr<FtMutex> make_detector<FtMutex>(RaceCollector* races,
                                                RuleStats* stats) {
  return std::make_unique<FtMutex>(races, stats, RuleSet::kVerifiedFT);
}
template <>
std::unique_ptr<FtCas> make_detector<FtCas>(RaceCollector* races,
                                            RuleStats* stats) {
  return std::make_unique<FtCas>(races, stats, RuleSet::kVerifiedFT);
}

/// Drive one detector through a mix that exercises same-epoch hits,
/// exclusive transitions, read sharing, and two races; return every rule
/// counter.
template <class D>
std::vector<std::uint64_t> rule_counts(bool with_history) {
  TlsGuard tls;
  history::install(with_history ? new history::AccessHistory() : nullptr);
  RaceCollector races;
  RuleStats stats;
  auto det = make_detector<D>(&races, &stats);

  ThreadState t0(0), t1(1), t2(2);
  typename D::VarState x;
  x.id = 0x77000;

  det->write(t0, x);
  det->write(t0, x);  // same epoch
  det->read(t0, x);
  det->read(t0, x);  // same epoch
  t1.join(t0.V);
  t0.inc();
  det->read(t1, x);  // ordered: share / shared
  det->read(t2, x);  // write-read race (t2 unordered with t0's write)
  t2.join(t0.V);
  t2.join(t1.V);
  det->write(t2, x);  // may race with t1's read depending on ordering above
  det->write(t2, x);  // same epoch

  history::install(nullptr);

  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < RuleStats::kN; ++i) {
    out.push_back(stats.count(static_cast<Rule>(i)));
  }
  return out;
}

template <class D>
void expect_parity(const char* name) {
  EXPECT_EQ(rule_counts<D>(false), rule_counts<D>(true)) << name;
}

TEST(RuleParity, HistoryOnOffIdenticalAcrossDetectors) {
  expect_parity<VftV1>("vft-v1");
  expect_parity<VftV15>("vft-v1.5");
  expect_parity<VftV2>("vft-v2");
  expect_parity<FtMutex>("ft-mutex");
  expect_parity<FtCas>("ft-cas");
  expect_parity<Djit>("djit");
}

}  // namespace
}  // namespace vft

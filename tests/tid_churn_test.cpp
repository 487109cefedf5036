// Tid-churn stress: a long-running target forks and joins far more
// threads over its lifetime than the epoch encoding has tids
// (Epoch::kMaxTid+1 = 2^kTidBits - 1 live at once), across all six
// detectors. Slot reuse must keep the allocated-tid footprint bounded by
// the *live* population, and the reused slots' inherited clocks must not
// manufacture false races in join-ordered or lock-ordered programs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "runtime/instrument.h"
#include "vft/detector.h"

namespace vft::rt {
namespace {

// Total threads forked per detector; far beyond the 255-tid space while
// only kWindow are ever live together.
constexpr int kTotalThreads = 3 * (Epoch::kMaxTid + 1) + 19;
constexpr int kWindow = 8;

template <Detector D>
void churn_sequential() {
  RaceCollector races;
  RuleStats stats;
  Runtime<D> rt{D(&races, &stats)};
  typename Runtime<D>::MainScope scope(rt);
  Var<long, D> shared(rt, 0);
  for (int i = 0; i < kTotalThreads; ++i) {
    Thread<D> t(rt, [&] { shared.store(shared.load() + 1); });
    t.join();
  }
  // Join-ordered increments: every access ordered by fork/join edges.
  EXPECT_TRUE(races.empty()) << D::kName << ": "
                             << races.first()->str();
  EXPECT_EQ(shared.raw(), kTotalThreads);
  // main + one worker slot, reused kTotalThreads times.
  EXPECT_LE(rt.registry().slots_in_use(), Epoch::kMaxTid + 1u);
  EXPECT_LE(rt.registry().slots_in_use(), 2u);
  EXPECT_EQ(rt.registry().live_count(), 1u);
  // Counter shards follow the same bound: exited threads' shards are
  // recycled, not accumulated.
  EXPECT_LE(stats.shards(), 2u);
}

template <Detector D>
void churn_windowed() {
  RaceCollector races;
  RuleStats stats;
  Runtime<D> rt{D(&races, &stats)};
  typename Runtime<D>::MainScope scope(rt);
  Mutex<D> mu(rt);
  Var<long, D> shared(rt, 0);
  int spawned = 0;
  while (spawned < kTotalThreads) {
    std::vector<std::unique_ptr<Thread<D>>> wave;
    for (int i = 0; i < kWindow && spawned < kTotalThreads; ++i, ++spawned) {
      wave.push_back(std::make_unique<Thread<D>>(rt, [&] {
        Guard<D> g(mu);
        shared.store(shared.load() + 1);
      }));
    }
    for (auto& t : wave) t->join();
  }
  EXPECT_TRUE(races.empty()) << D::kName << ": "
                             << races.first()->str();
  EXPECT_EQ(shared.raw(), kTotalThreads);
  // The live population never exceeded main + kWindow, so neither may
  // the tid footprint - the hard cap first, then the tight one.
  EXPECT_LE(rt.registry().slots_in_use(), Epoch::kMaxTid + 1u);
  EXPECT_LE(rt.registry().slots_in_use(),
            static_cast<std::size_t>(kWindow) + 1u);
  EXPECT_EQ(rt.registry().live_count(), 1u);
  EXPECT_LE(stats.shards(), static_cast<std::size_t>(kWindow) + 1u);
}

TEST(TidChurn, SequentialForkJoinAcrossAllDetectors) {
  churn_sequential<VftV1>();
  churn_sequential<VftV15>();
  churn_sequential<VftV2>();
  churn_sequential<FtMutex>();
  churn_sequential<FtCas>();
  churn_sequential<Djit>();
}

TEST(TidChurn, WindowedForkJoinAcrossAllDetectors) {
  churn_windowed<VftV1>();
  churn_windowed<VftV15>();
  churn_windowed<VftV2>();
  churn_windowed<FtMutex>();
  churn_windowed<FtCas>();
  churn_windowed<Djit>();
}

// 1,000 sequential short-lived threads: each one bumps the rule counters
// (fork, join, its two accesses) and the shadow page directory's miss
// counter from its own shard, then exits. The shard footprint stays at the
// peak live population (main + one worker) and the folded counts are
// exact, because a recycled shard keeps its counts.
TEST(TidChurn, CounterShardsBoundedByPeakLiveThreads) {
  constexpr int kThreads = 1000;
  RaceCollector races;
  RuleStats stats;
  Runtime<VftV2> rt{VftV2(&races, &stats)};
  Runtime<VftV2>::MainScope scope(rt);
  Var<long, VftV2> shared(rt, 0);
  ShadowSpace<VftV2>& space = rt.shadow_space();
  static long words[2 * ShadowGeometry::kPageSpan / sizeof(long)];
  const std::size_t misses0 = space.stats().cache_misses;
  const std::uint64_t accesses0 = stats.total_accesses();
  for (int i = 0; i < kThreads; ++i) {
    Thread<VftV2> t(rt, [&] {
      shared.store(shared.load() + 1);
      // Two distinct pages, and a fresh thread's one-entry page cache is
      // empty: exactly two misses per thread.
      rt.tool().read(*Registry::current(), space.of(&words[0]));
      rt.tool().read(*Registry::current(),
                     space.of(&words[ShadowGeometry::kPageSpan / sizeof(long)]));
    });
    t.join();
  }
  EXPECT_TRUE(races.empty());
  EXPECT_EQ(shared.raw(), kThreads);
  EXPECT_EQ(stats.count(Rule::kFork), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.count(Rule::kJoin), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.total_accesses() - accesses0, 4u * kThreads);
  EXPECT_EQ(space.stats().cache_misses - misses0, 2u * kThreads);
  EXPECT_LE(stats.shards(), 2u);
}

}  // namespace
}  // namespace vft::rt

// Rule-frequency accounting: the machinery behind experiment E3 (the
// Section 5 access-mix claim). Checks exact counts on hand traces, the
// fast-path dominance property on a read-shared workload, and exact folds
// of the per-thread counter shards.
#include "vft/stats.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "trace/replay.h"
#include "trace/trace.h"
#include "vft/detector.h"

namespace vft {
namespace {

TEST(RuleStats, CountsExactRulesOnHandTrace) {
  RaceCollector rc;
  RuleStats stats;
  VftV2 d(&rc, &stats);
  trace::Trace t;
  // A reads x three times in one epoch: exclusive, then 2x same-epoch.
  t.push_back(trace::rd(0, 0));
  t.push_back(trace::rd(0, 0));
  t.push_back(trace::rd(0, 0));
  // B joins the party: share, then shared-same-epoch.
  t.push_back(trace::rd(1, 0));
  t.push_back(trace::rd(1, 0));
  // A writes its own variable twice.
  t.push_back(trace::wr(0, 1));
  t.push_back(trace::wr(0, 1));
  trace::replay(t, d);
  EXPECT_EQ(stats.count(Rule::kReadExclusive), 1u);
  EXPECT_EQ(stats.count(Rule::kReadSameEpoch), 2u);
  EXPECT_EQ(stats.count(Rule::kReadShare), 1u);
  EXPECT_EQ(stats.count(Rule::kReadSharedSameEpoch), 1u);
  EXPECT_EQ(stats.count(Rule::kWriteExclusive), 1u);
  EXPECT_EQ(stats.count(Rule::kWriteSameEpoch), 1u);
  EXPECT_EQ(stats.total_accesses(), 7u);
}

TEST(RuleStats, SyncOpsCounted) {
  RaceCollector rc;
  RuleStats stats;
  VftV1 d(&rc, &stats);
  trace::Trace t = {trace::acq(0, 0), trace::rel(0, 0), trace::fork(0, 1),
                    trace::rd(1, 0), trace::join(0, 1)};
  trace::replay(t, d);
  EXPECT_EQ(stats.count(Rule::kAcquire), 1u);
  EXPECT_EQ(stats.count(Rule::kRelease), 1u);
  EXPECT_EQ(stats.count(Rule::kFork), 1u);
  EXPECT_EQ(stats.count(Rule::kJoin), 1u);
}

TEST(RuleStats, RaceRulesCounted) {
  RaceCollector rc;
  RuleStats stats;
  VftV2 d(&rc, &stats);
  trace::Trace t = {trace::wr(0, 0), trace::wr(1, 0)};
  trace::replay(t, d);
  EXPECT_EQ(stats.count(Rule::kWriteWriteRace), 1u);
}

TEST(RuleStats, ResetZeroesEverything) {
  RuleStats stats;
  stats.bump(Rule::kReadSameEpoch);
  stats.bump(Rule::kFork);
  stats.reset();
  EXPECT_EQ(stats.count(Rule::kReadSameEpoch), 0u);
  EXPECT_EQ(stats.count(Rule::kFork), 0u);
  EXPECT_EQ(stats.total_accesses(), 0u);
}

TEST(RuleStats, NullStatsPointerIsSafe) {
  RaceCollector rc;
  VftV2 d(&rc, nullptr);  // the default bench configuration
  trace::Trace t = {trace::rd(0, 0), trace::rd(0, 0)};
  const auto result = trace::replay(t, d);
  EXPECT_FALSE(result.first_race.has_value());
}

// Re-reading shared data within an epoch must funnel into the same-epoch
// fast rules - the property that makes v2's lock-free paths matter.
TEST(RuleStats, ReadSharedWorkloadIsFastPathDominated) {
  RaceCollector rc;
  RuleStats stats;
  VftV2 d(&rc, &stats);
  trace::Trace t;
  for (Tid th = 0; th < 4; ++th) {
    for (int rep = 0; rep < 50; ++rep) {
      for (VarId x = 0; x < 4; ++x) t.push_back(trace::rd(th, x));
    }
  }
  trace::replay(t, d);
  const std::uint64_t fast = stats.count(Rule::kReadSameEpoch) +
                             stats.count(Rule::kReadSharedSameEpoch) +
                             stats.count(Rule::kWriteSameEpoch);
  const std::uint64_t total = stats.total_accesses();
  EXPECT_GT(static_cast<double>(fast) / static_cast<double>(total), 0.9);
}

// Per-thread shards: concurrent bumpers never share a counter line, and
// the fold after join is exact for the single and the bulk form.
TEST(RuleStats, ShardedCountsExactAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kBumps = 20000;
  RuleStats stats;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&stats] {
      for (std::uint64_t i = 0; i < kBumps; ++i) {
        for (std::size_t r = 0; r < RuleStats::kN; ++r) {
          stats.bump(static_cast<Rule>(r));
        }
      }
      stats.bump(Rule::kFastReadHit, 7);
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t r = 0; r < RuleStats::kN; ++r) {
    const Rule rule = static_cast<Rule>(r);
    const std::uint64_t bulk = rule == Rule::kFastReadHit ? 7 : 0;
    EXPECT_EQ(stats.count(rule), kThreads * (kBumps + bulk))
        << rule_name(rule);
  }
  EXPECT_GE(stats.shards(), 1u);
  EXPECT_LE(stats.shards(), static_cast<std::size_t>(kThreads));
}

// thread_counter() hands out the calling thread's own shard slot: bumps
// through it fold like bump() does, and another thread gets another line.
TEST(RuleStats, ThreadCounterIsTheCallingThreadsShard) {
  RuleStats stats;
  std::atomic<std::uint64_t>* mine = stats.thread_counter(Rule::kFastWriteHit);
  ASSERT_NE(mine, nullptr);
  mine->store(mine->load(std::memory_order_relaxed) + 3,
              std::memory_order_relaxed);
  stats.bump(Rule::kFastWriteHit);
  EXPECT_EQ(stats.count(Rule::kFastWriteHit), 4u);
  std::atomic<std::uint64_t>* theirs = nullptr;
  std::thread([&] {
    theirs = stats.thread_counter(Rule::kFastWriteHit);
    stats.bump(Rule::kFastWriteHit, 2);
  }).join();
  EXPECT_NE(theirs, mine);
  EXPECT_EQ(stats.count(Rule::kFastWriteHit), 6u);
}

}  // namespace
}  // namespace vft

// The address-keyed sync-state table (runtime/sync_table.h) behind the
// session's native locks and atomic locations: exact-address keying
// within a word, one winner when threads race to create the same state,
// a lookup that never inserts, and a reset that drops exactly the states
// a freed range covers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/sync_table.h"
#include "vft/atomics.h"
#include "vft/shadow_state.h"

namespace vft::rt {
namespace {

using Geometry = ShadowGeometry;

TEST(SyncTable, SubWordAtomicsKeepDistinctStates) {
  SyncTable<atomics::AtomicState> table;
  alignas(8) std::uint32_t halves[2] = {};
  atomics::AtomicState& lo = table.of(&halves[0]);
  atomics::AtomicState& hi = table.of(&halves[1]);
  EXPECT_NE(&lo, &hi);
  // Agreement: every later lookup of an address yields the same state.
  EXPECT_EQ(&table.of(&halves[0]), &lo);
  EXPECT_EQ(table.find(&halves[1]), &hi);
  EXPECT_EQ(table.size(), 2u);
}

TEST(SyncTable, RacingFirstPublishersGetOneState) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    SyncTable<atomics::AtomicState> table;
    alignas(8) std::uint64_t word = 0;
    std::array<atomics::AtomicState*, kThreads> got{};
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        got[t] = &table.of(&word);
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 1; t < kThreads; ++t) ASSERT_EQ(got[t], got[0]);
    ASSERT_EQ(table.size(), 1u);
  }
}

TEST(SyncTable, ConcurrentLifecyclesOnDisjointWords) {
  // Threads create, publish into, look up and free states on their own
  // words of one shared page, and all look up one long-lived word there:
  // page publication, head CASes, lookups and unlinks race only through
  // the directory and the page, never on a chain being unlinked (the
  // reset_range contract).
  constexpr int kThreads = 4;
  constexpr int kWordsPerThread = 8;
  constexpr int kRounds = 500;
  SyncTable<atomics::AtomicState> table;
  alignas(Geometry::kPageSpan) static std::uint64_t
      words[kThreads * kWordsPerThread + 1];
  std::uint64_t* shared = &words[kThreads * kWordsPerThread];
  atomics::AtomicState* shared_state = &table.of(shared);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t* mine = &words[t * kWordsPerThread];
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kWordsPerThread; ++i) {
          atomics::AtomicState& s = table.of(&mine[i]);
          s.fast_epoch.store(static_cast<std::uint32_t>(1 + t));
          ASSERT_EQ(table.find(&mine[i]), &s);
          ASSERT_EQ(table.find(shared), shared_state);
        }
        table.reset_range(mine, kWordsPerThread * sizeof(std::uint64_t));
        ASSERT_EQ(table.find(&mine[0]), nullptr);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(table.size(), 1u);
}

TEST(SyncTable, FindNeverInserts) {
  SyncTable<LockState> table;
  alignas(8) std::uint64_t words[4] = {};
  EXPECT_EQ(table.find(&words[0]), nullptr);
  EXPECT_EQ(table.find(&words[0]), nullptr);
  EXPECT_EQ(table.size(), 0u);
  LockState& s = table.of(&words[1]);
  // A neighbour in the same page, or a sub-word alias, is still a miss.
  EXPECT_EQ(table.find(&words[0]), nullptr);
  EXPECT_EQ(table.find(reinterpret_cast<char*>(&words[1]) + 4), nullptr);
  EXPECT_EQ(table.find(&words[1]), &s);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SyncTable, ResetRangeDropsExactlyTheCoveredStates) {
  SyncTable<atomics::AtomicState> table;
  // Two pages of words, so the range below straddles a page boundary.
  std::vector<std::uint64_t> buf(2 * Geometry::kPageSpan / 8 + 8);
  const auto base = reinterpret_cast<std::uintptr_t>(buf.data());
  const std::uintptr_t boundary =
      (base + Geometry::kPageSpan) &
      ~static_cast<std::uintptr_t>(Geometry::kPageSpan - 1);
  auto* before = reinterpret_cast<std::uint64_t*>(boundary) - 2;
  auto* first = reinterpret_cast<std::uint64_t*>(boundary) - 1;
  auto* last = reinterpret_cast<std::uint64_t*>(boundary) + 1;
  auto* after = reinterpret_cast<std::uint64_t*>(boundary) + 2;
  // Sub-word neighbours: the range ends inside `after`'s word.
  auto* after_lo = reinterpret_cast<std::uint32_t*>(after);
  auto* after_hi = after_lo + 1;
  atomics::AtomicState* keep[] = {&table.of(before), &table.of(after_hi)};
  table.of(first);
  table.of(reinterpret_cast<std::uint64_t*>(boundary));
  table.of(last);
  table.of(after_lo);
  ASSERT_EQ(table.size(), 6u);

  // [first, after_hi): the three words from `first`, plus after_lo.
  table.reset_range(first, reinterpret_cast<std::uintptr_t>(after_hi) -
                               reinterpret_cast<std::uintptr_t>(first));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(first), nullptr);
  EXPECT_EQ(table.find(reinterpret_cast<std::uint64_t*>(boundary)), nullptr);
  EXPECT_EQ(table.find(last), nullptr);
  EXPECT_EQ(table.find(after_lo), nullptr);
  EXPECT_EQ(table.find(before), keep[0]);
  EXPECT_EQ(table.find(after_hi), keep[1]);

  // A recycled address starts from a fresh, bottom state.
  atomics::AtomicState& again = table.of(first);
  EXPECT_EQ(again.fast_epoch.load(), 0u);
  EXPECT_EQ(table.size(), 3u);
  // A range over memory that never held a state is a no-op.
  std::uint64_t elsewhere[4] = {};
  table.reset_range(elsewhere, sizeof(elsewhere));
  EXPECT_EQ(table.size(), 3u);
}

}  // namespace
}  // namespace vft::rt

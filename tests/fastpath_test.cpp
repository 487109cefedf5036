// The header-inlined ABI fast path (src/abi/vft_abi_inline.h) against its
// two contracts:
//
//   equivalence  with the descriptor armed, every rule counter is
//                bit-identical to the out-of-line path (VFT_FASTPATH=off)
//                on the same deterministic workload, for all six
//                detectors, with sampling off and at rate=1 under both
//                sampling policies - the inline hit performs exactly the
//                bumps the packed-cell fast path would have performed,
//                and everything else falls through;
//   retraction   Session::reset() bumps the global generation, clears the
//                calling thread's descriptor, and retracts the published
//                backend before it dies; a re-selected detector's backend
//                arms descriptors at the new generation and events flow
//                again.
//
// Tests share the process-global Session; each begins by reconfiguring
// the environment and resetting.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "abi/vft_abi.h"
#include "runtime/session.h"
#include "vft/fastpath_ctx.h"
#include "vft/stats.h"

namespace {

using vft::Rule;
using vft::RuleStats;
using vft::rt::ambient::Session;

constexpr const char* kDetectors[] = {"v1",       "v1.5",   "v2",
                                      "ft-mutex", "ft-cas", "djit"};

/// Reconfigure the process-global session: detector, inline fast path
/// on/off, sampling spec (nullptr: off). Forces backend creation so the
/// environment is consumed, then zeroes the rule counters.
void configure(const char* detector, bool inline_on, const char* sampling) {
  if (inline_on) {
    unsetenv("VFT_FASTPATH");
  } else {
    setenv("VFT_FASTPATH", "off", 1);
  }
  if (sampling != nullptr) {
    setenv("VFT_SAMPLING", sampling, 1);
  } else {
    unsetenv("VFT_SAMPLING");
  }
  unsetenv("VFT_BUDGET");
  ASSERT_TRUE(Session::instance().configure(detector));
  Session::instance().reset();
  Session::instance().backend();
  Session::instance().rule_stats().reset();
}

/// Leave no fast-path/sampling environment behind for later binaries.
struct EnvGuard {
  ~EnvGuard() {
    unsetenv("VFT_FASTPATH");
    unsetenv("VFT_SAMPLING");
    unsetenv("VFT_BUDGET");
  }
} env_guard;

alignas(64) long g_buf[1024];
long g_lock_standin = 0;

/// Deterministic mixed workload: repeated same-epoch hits (the inline
/// path's target), exclusive->shared read transitions via a forked
/// child, straddling accesses, SIMD-resolved ranges, and a sync edge.
/// Race-free by construction (fork/join order every cross-thread pair),
/// so every run produces the same counter vector.
void workload() {
  vft_attach();
  char* bytes = reinterpret_cast<char*>(g_buf);
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 128; ++i) vft_write8(&g_buf[i]);
    for (int i = 0; i < 128; ++i) vft_read8(&g_buf[i]);
    for (int i = 0; i < 128; ++i) vft_read8(&g_buf[i]);   // same-epoch reads
    for (int i = 0; i < 128; ++i) vft_write8(&g_buf[i]);  // same-epoch writes
  }
  for (int i = 0; i < 64; ++i) vft_read4(bytes + 4 * i);
  for (int i = 0; i < 16; ++i) vft_write2(bytes + 512 * 8 + 2 * i);
  vft_read4(bytes + 6);    // straddles a shadow-word boundary
  vft_write4(bytes + 14);  // straddles a shadow-word boundary
  vft_range_write(bytes, 1024);
  vft_range_read(bytes, 1024);
  vft_range_read(bytes + 3, 733);  // unaligned, partial-word tail
  const uint64_t tok = vft_thread_create();
  std::thread child([tok] {
    vft_thread_begin(tok);
    // Ordered after the parent's writes by the fork edge: these flip the
    // first 128 words exclusive -> shared, no race.
    for (int i = 0; i < 128; ++i) vft_read8(&g_buf[i]);
    vft_mutex_lock(&g_lock_standin);
    vft_write8(&g_buf[512]);
    vft_mutex_unlock(&g_lock_standin);
    vft_detach();
  });
  child.join();
  vft_thread_join(tok);
  vft_mutex_lock(&g_lock_standin);
  vft_read8(&g_buf[512]);
  vft_mutex_unlock(&g_lock_standin);
  vft_detach();
}

std::array<std::uint64_t, RuleStats::kN> snapshot() {
  std::array<std::uint64_t, RuleStats::kN> out{};
  RuleStats& s = Session::instance().rule_stats();
  for (std::size_t i = 0; i < RuleStats::kN; ++i) {
    out[i] = s.count(static_cast<Rule>(i));
  }
  return out;
}

TEST(FastpathDifferential, BitIdenticalRuleCountersAcrossDetectors) {
  // nullptr: sampling off (the inline cell path is live for spillable
  // detectors). rate=1 cell: gate active, descriptor never arms. rate=1
  // drop: only the countdown half arms, and at full rate it never skips.
  const char* kSampling[] = {nullptr, "rate=1 policy=cell adaptive=0",
                             "rate=1 policy=drop adaptive=0"};
  for (const char* det : kDetectors) {
    for (const char* sampling : kSampling) {
      SCOPED_TRACE(std::string(det) + " / " +
                   (sampling != nullptr ? sampling : "sampling-off"));
      configure(det, /*inline_on=*/true, sampling);
      workload();
      const auto with_inline = snapshot();
      configure(det, /*inline_on=*/false, sampling);
      workload();
      const auto without_inline = snapshot();
      for (std::size_t i = 0; i < RuleStats::kN; ++i) {
        EXPECT_EQ(with_inline[i], without_inline[i])
            << vft::rule_name(static_cast<Rule>(i));
      }
      EXPECT_EQ(vft_race_count(), 0u);
    }
  }
}

TEST(Fastpath, DescriptorArmsAndResolvesHitsInline) {
  configure("v2", /*inline_on=*/true, nullptr);
  vft_attach();
  static long x = 0;
  vft_write8(&x);  // slow path: first event arms the descriptor
  ASSERT_NE(vft_tl_fastpath.gen, 0u);
  RuleStats& s = Session::instance().rule_stats();
  const std::uint64_t hits = s.count(Rule::kFastWriteHit);
  const std::uint64_t misses = s.count(Rule::kFastMiss);
  for (int i = 0; i < 100; ++i) vft_write8(&x);
  // Inline hits bump this thread's own counter shard directly, so the
  // folded counts include them at once: every repeat was a same-epoch
  // hit, and none fell out of line.
  EXPECT_EQ(s.count(Rule::kFastWriteHit), hits + 100);
  EXPECT_EQ(s.count(Rule::kFastMiss), misses);
  vft_detach();
  // vft_detach disarms the descriptor with the thread's registry slot.
  EXPECT_EQ(vft_tl_fastpath.gen, 0u);
  EXPECT_EQ(s.count(Rule::kFastWriteHit), hits + 100);
}

TEST(Fastpath, EnvKnobDisablesInlineArming) {
  configure("v2", /*inline_on=*/false, nullptr);
  vft_attach();
  static long z = 0;
  for (int i = 0; i < 10; ++i) vft_write8(&z);
  EXPECT_EQ(vft_tl_fastpath.gen, 0u);  // never armed
  // The out-of-line packed-cell fast path still resolves the repeats.
  EXPECT_GE(Session::instance().rule_stats().count(Rule::kFastWriteHit), 9u);
  vft_detach();
}

TEST(Fastpath, ResetRetractsDescriptorAndBackend) {
  configure("v2", /*inline_on=*/true, nullptr);
  vft_attach();
  static long y = 0;
  vft_write8(&y);
  ASSERT_TRUE(Session::instance().has_backend());
  const std::uint64_t gen_before =
      __atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE);
  EXPECT_EQ(vft_tl_fastpath.gen, gen_before);  // armed at the live gen
  vft_detach();

  Session::instance().reset();
  // Retraction: thread descriptor cleared, global generation advanced,
  // published backend withdrawn - all before a new backend exists.
  EXPECT_EQ(vft_tl_fastpath.gen, 0u);
  EXPECT_GT(__atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE),
            gen_before);
  EXPECT_FALSE(Session::instance().has_backend());

  // Re-select a different detector: its backend arms the descriptor at
  // the current generation and events flow end to end again.
  ASSERT_TRUE(Session::instance().configure("ft-cas"));
  vft_attach();
  vft_write8(&y);
  EXPECT_TRUE(Session::instance().has_backend());
  EXPECT_EQ(vft_tl_fastpath.gen,
            __atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE));
  EXPECT_EQ(std::string(vft_detector_name()), "FT-CAS");
  vft_detach();
  Session::instance().configure("v2");
  Session::instance().reset();
}

}  // namespace

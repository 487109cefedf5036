// Algebraic property tests over the vector-clock lattice (randomized,
// seeded): join is the least upper bound for the pointwise order, leq is a
// partial order, and copy/inc interact as Section 3 requires. These are
// the facts the correctness argument leans on; pinning them guards the
// SBO representation against subtle regressions.
#include <gtest/gtest.h>

#include <mutex>
#include <random>

#include "vft/sync_vector_clock.h"
#include "vft/vector_clock.h"

namespace vft {
namespace {

VectorClock random_vc(std::mt19937_64& rng, std::uint32_t max_len,
                      Clock max_clock) {
  VectorClock v;
  const std::uint32_t len =
      std::uniform_int_distribution<std::uint32_t>(0, max_len)(rng);
  for (Tid t = 0; t < len; ++t) {
    const Clock c =
        std::uniform_int_distribution<Clock>(0, max_clock)(rng);
    v.set(t, Epoch::make(t, c));
  }
  return v;
}

class VcAlgebra : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::mt19937_64 rng{GetParam()};
};

TEST_P(VcAlgebra, LeqIsReflexiveAndAntisymmetricAndTransitive) {
  for (int i = 0; i < 60; ++i) {
    const VectorClock a = random_vc(rng, 20, 6);
    const VectorClock b = random_vc(rng, 20, 6);
    const VectorClock c = random_vc(rng, 20, 6);
    EXPECT_TRUE(a.leq(a));
    if (a.leq(b) && b.leq(a)) {
      EXPECT_TRUE(a == b);
    }
    if (a.leq(b) && b.leq(c)) {
      EXPECT_TRUE(a.leq(c));
    }
  }
}

TEST_P(VcAlgebra, JoinIsLeastUpperBound) {
  for (int i = 0; i < 60; ++i) {
    const VectorClock a = random_vc(rng, 16, 6);
    const VectorClock b = random_vc(rng, 16, 6);
    VectorClock j = a;
    j.join(b);
    EXPECT_TRUE(a.leq(j));
    EXPECT_TRUE(b.leq(j));
    // Least: any other upper bound dominates the join.
    VectorClock ub = a;
    ub.join(b);
    ub.join(random_vc(rng, 16, 6));  // a random clock above the join
    EXPECT_TRUE(j.leq(ub));
  }
}

TEST_P(VcAlgebra, JoinCommutativeAssociativeIdempotent) {
  for (int i = 0; i < 60; ++i) {
    const VectorClock a = random_vc(rng, 12, 5);
    const VectorClock b = random_vc(rng, 12, 5);
    const VectorClock c = random_vc(rng, 12, 5);
    VectorClock ab = a;
    ab.join(b);
    VectorClock ba = b;
    ba.join(a);
    EXPECT_TRUE(ab == ba);
    VectorClock ab_c = ab;
    ab_c.join(c);
    VectorClock bc = b;
    bc.join(c);
    VectorClock a_bc = a;
    a_bc.join(bc);
    EXPECT_TRUE(ab_c == a_bc);
    VectorClock aa = a;
    aa.join(a);
    EXPECT_TRUE(aa == a);
  }
}

TEST_P(VcAlgebra, CopyMakesEqualAndLeqBothWays) {
  for (int i = 0; i < 60; ++i) {
    const VectorClock a = random_vc(rng, 24, 6);
    VectorClock b = random_vc(rng, 24, 6);
    b.copy(a);
    EXPECT_TRUE(b == a);
    EXPECT_TRUE(a.leq(b) && b.leq(a));
  }
}

TEST_P(VcAlgebra, IncIsStrictlyIncreasingInOneComponent) {
  for (int i = 0; i < 60; ++i) {
    VectorClock a = random_vc(rng, 10, 6);
    const Tid t = std::uniform_int_distribution<Tid>(0, 9)(rng);
    const VectorClock before = a;
    a.inc(t);
    EXPECT_TRUE(before.leq(a));
    EXPECT_FALSE(a.leq(before));
    EXPECT_EQ(a.get(t), before.get(t).inc());
    for (Tid u = 0; u < 10; ++u) {
      if (u != t) {
        EXPECT_EQ(a.get(u), before.get(u));
      }
    }
  }
}

TEST_P(VcAlgebra, EpochLeqVcAgreesWithComponentwise) {
  for (int i = 0; i < 60; ++i) {
    const VectorClock v = random_vc(rng, 10, 6);
    for (Tid t = 0; t < 10; ++t) {
      const Clock c = std::uniform_int_distribution<Clock>(0, 7)(rng);
      const Epoch e = Epoch::make(t, c);
      EXPECT_EQ(leq(e, v.get(t)), c <= v.get(t).clock());
    }
  }
}

TEST_P(VcAlgebra, SyncVectorClockAgreesWithPlainOnSameOps) {
  std::mutex mu;
  for (int i = 0; i < 20; ++i) {
    VectorClock plain;
    SyncVectorClock sync;
    for (int op = 0; op < 40; ++op) {
      const Tid t = std::uniform_int_distribution<Tid>(0, 15)(rng);
      const Clock c = std::uniform_int_distribution<Clock>(0, 9)(rng);
      plain.set(t, Epoch::make(t, c));
      std::scoped_lock lk(mu);
      sync.set_locked(t, Epoch::make(t, c));
    }
    for (Tid t = 0; t < 16; ++t) EXPECT_EQ(sync.get(t), plain.get(t));
    EXPECT_TRUE(sync.snapshot_locked() == plain);
    const VectorClock probe = random_vc(rng, 16, 9);
    EXPECT_EQ(sync.leq_locked(probe), plain.leq(probe));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcAlgebra,
                         ::testing::Values(1, 7, 42, 1234, 99991));

}  // namespace
}  // namespace vft

// Common scaffolding for the benchmark kernel suite: the C++ analogues of
// the JavaGrande and DaCapo programs of Table 1 (DESIGN.md Section 1.4
// maps each kernel to the program it stands in for).
//
// Every kernel is a function template over the detector type D, so the
// detector's handlers inline into the target code (static dispatch - the
// analogue of RoadRunner inlining tool fast paths). Each kernel:
//   - is race-free by construction (all sharing goes through instrumented
//     locks/barriers/volatiles), unless fault injection is enabled;
//   - routes its dominant data-structure accesses through rt::Var/rt::Array
//     (heap accesses are instrumented; scalar locals are not, mirroring
//     how RoadRunner instruments heap but not JVM locals);
//   - validates its own output (valid flag), so instrumentation bugs that
//     corrupt target semantics fail loudly;
//   - returns a deterministic checksum given (scale, threads, seed).
//
// `scale` grows the problem size roughly linearly in work.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "runtime/instrument.h"

namespace vft::kernels {

/// Where a kernel's dominant arrays keep their element shadow:
///   kInline  a private VarState allocation inside rt::Array (the default,
///            and what the Table 1 runs measure);
///   kSpace   carved from the runtime's lock-free two-level ShadowSpace,
///            so raw-pointer and wrapper instrumentation agree;
///   kPacked  carved from the runtime's PackedShadowSpace: accesses run
///            the 64-bit packed-cell same-epoch fast path inline and only
///            escalated words materialize a VarState (spill-capable
///            detectors; NullTool falls back to kInline).
enum class ShadowBackend : std::uint8_t { kInline, kSpace, kPacked };

inline const char* shadow_backend_name(ShadowBackend b) {
  switch (b) {
    case ShadowBackend::kSpace: return "space";
    case ShadowBackend::kPacked: return "packed";
    default: return "inline";
  }
}

struct KernelConfig {
  std::uint32_t threads = 4;
  std::uint32_t scale = 1;
  std::uint64_t seed = 42;
  /// Shadow backend for kernels ported to the address-keyed API
  /// (currently sor and lufact); others ignore it.
  ShadowBackend shadow = ShadowBackend::kInline;
  /// When true, the kernel plants one unsynchronized access pattern so the
  /// detector under test should report at least one race (fault injection
  /// for the detection tests; benches never set this).
  bool inject_race = false;
  /// When false, kernels skip output validation whose cost is not
  /// negligible next to the kernel itself (timed bench iterations set this
  /// after one validated warm-up run, so ratios are not diluted by
  /// uninstrumented validation work). `valid` is then reported as true.
  bool validate = true;
};

struct KernelResult {
  double checksum = 0.0;
  bool valid = false;
};

/// SplitMix64: tiny deterministic RNG for kernel inputs. (Not the
/// std::mt19937 used by the trace generator; kernels need something cheap
/// enough to call inside instrumented loops without dominating them.)
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ull) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [0, n).
  std::uint64_t next_below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Standard-normal via Box-Muller (montecarlo needs gaussians).
inline double gaussian(Rng& rng) {
  double u1 = rng.next_double();
  double u2 = rng.next_double();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// [begin, end) slice of n items for worker w out of p.
struct Slice {
  std::size_t begin;
  std::size_t end;
};

inline Slice slice_of(std::size_t n, std::uint32_t w, std::uint32_t p) {
  const std::size_t chunk = n / p;
  const std::size_t rem = n % p;
  const std::size_t begin = static_cast<std::size_t>(w) * chunk + std::min<std::size_t>(w, rem);
  const std::size_t len = chunk + (w < rem ? 1 : 0);
  return Slice{begin, begin + len};
}

/// An rt::Array whose shadow placement follows cfg.shadow: inline, or
/// carved from one of the runtime-owned address-keyed backends.
template <typename T, Detector D>
rt::Array<T, D> make_shadowed_array(rt::Runtime<D>& R, const KernelConfig& cfg,
                                    std::size_t n, T initial = T{}) {
  switch (cfg.shadow) {
    case ShadowBackend::kSpace:
      return rt::Array<T, D>(R, R.shadow_space(), n, initial);
    case ShadowBackend::kPacked:
      if constexpr (rt::kPackedCapable<D>) {
        return rt::Array<T, D>(R, R.packed_space(), n, initial);
      } else {
        return rt::Array<T, D>(R, n, initial);  // nothing to pack (NullTool)
      }
    default:
      return rt::Array<T, D>(R, n, initial);
  }
}

}  // namespace vft::kernels

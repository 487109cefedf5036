// Tool plumbing: the NullTool used for base-time measurement, and the
// Runtime that binds a detector to a registry.
//
// Like RoadRunner, the runtime dispatches events to the tool inline in the
// thread that performed the target operation; with a template parameter
// the dispatch is static, so tool fast paths inline into the target code
// (the C++ analogue of RoadRunner inlining fast-path handlers, Section 7).
#pragma once

#include <mutex>
#include <utility>

#include "runtime/registry.h"
#include "runtime/shadow_space.h"
#include "vft/detector.h"

namespace vft::rt {

/// The "no analysis" tool: every handler is a no-op that the optimizer
/// erases. Targets instantiated with NullTool measure base running time
/// (the denominator of the Table 1 overheads).
class NullTool {
 public:
  static constexpr const char* kName = "none";

  struct VarState {
    std::uint64_t id = 0;
  };

  explicit NullTool(RaceCollector* = nullptr, RuleStats* = nullptr) {}

  RaceCollector* races() const { return nullptr; }

  bool read(ThreadState&, VarState&) { return true; }
  bool write(ThreadState&, VarState&) { return true; }
  void acquire(ThreadState&, LockState&) {}
  void release(ThreadState&, LockState&) {}
  void fork(ThreadState&, ThreadState&) {}
  void join(ThreadState&, ThreadState&) {}
};

static_assert(Detector<NullTool>);

/// One analysis session: a detector instance plus the thread registry it
/// works against. Target wrappers (Var, Array, Mutex, Thread, ...) hold a
/// pointer to their Runtime and route events through it.
template <Detector D>
class Runtime {
 public:
  using Tool = D;

  explicit Runtime(D tool) : tool_(std::move(tool)) {}

  D& tool() { return tool_; }
  Registry& registry() { return registry_; }

  /// The session's raw-pointer shadow memory, created on first use (so
  /// wrapper-only targets pay nothing). Tools and examples use this
  /// instead of hand-threading a backend next to the runtime.
  ShadowSpace<D>& shadow_space() {
    std::call_once(space_once_,
                   [this] { space_ = std::make_unique<ShadowSpace<D>>(); });
    return *space_;
  }

  /// The packed-cell shadow space (the inline same-epoch fast path with
  /// VarState spill-on-escalation), also lazy. Meaningful for detectors
  /// whose VarState is SpillableVarState - all six production detectors;
  /// a NullTool instantiation compiles but has nothing to spill to, so
  /// callers gate on the concept (see kernels::make_shadowed_array).
  PackedShadowSpace<D>& packed_space() {
    std::call_once(packed_once_,
                   [this] { packed_ = std::make_unique<PackedShadowSpace<D>>(); });
    return *packed_;
  }

  /// True iff shadow_space() has been materialized (stats reporting can
  /// avoid forcing an allocation).
  bool has_shadow_space() const { return space_ != nullptr; }
  bool has_packed_space() const { return packed_ != nullptr; }

  /// The calling thread's state; the thread must be inside a ThreadScope
  /// (MainScope or a runtime-spawned Thread) or persistently bound by the
  /// ABI attach path. Failing that is target-integration misuse, so the
  /// diagnostic says how to register the thread rather than just aborting.
  ThreadState& self() {
    ThreadState* ts = Registry::current();
    if (ts == nullptr) {
      detail::fatal(
          "analysis event from an unregistered thread: this OS thread has "
          "no ThreadState bound. Register the program's first thread with "
          "a MainScope, spawn workers through rt::Thread, or - for "
          "unmodified binaries - route events through the C ABI "
          "(src/abi/vft_abi.h), whose entry points attach the calling "
          "thread implicitly.");
    }
    return *ts;
  }

  /// RAII registration of the program's initial thread. The ThreadState is
  /// owned by the registry; the scope only binds the thread_local.
  class MainScope {
   public:
    explicit MainScope(Runtime& rt) : scope_(rt.registry_.create()) {}

   private:
    Registry::ThreadScope scope_;
  };

 private:
  D tool_;
  Registry registry_;
  std::once_flag space_once_;
  std::once_flag packed_once_;
  std::unique_ptr<ShadowSpace<D>> space_;
  std::unique_ptr<PackedShadowSpace<D>> packed_;
};

}  // namespace vft::rt

#include "runtime/session.h"

#include <cstdlib>

namespace vft::rt::ambient {
namespace {

/// The launch-time detector names (CLI / VFT_DETECTOR spelling) and their
/// backend factories: configure() validates against this table,
/// create_backend() builds from it, and the fatal message lists it.
struct DetectorEntry {
  const char* name;
  std::unique_ptr<SessionBackend> (*make)(RaceCollector*, RuleStats*,
                                          std::uint64_t generation);
};

template <Detector D>
std::unique_ptr<SessionBackend> make_backend(RaceCollector* races,
                                             RuleStats* stats,
                                             std::uint64_t generation) {
  return std::make_unique<SessionImpl<D>>(races, stats, generation);
}

constexpr DetectorEntry kDetectors[] = {
    {"v1", &make_backend<VftV1>},
    {"v1.5", &make_backend<VftV15>},
    {"v2", &make_backend<VftV2>},
    {"ft-mutex", &make_backend<FtMutex>},
    {"ft-cas", &make_backend<FtCas>},
    {"djit", &make_backend<Djit>},
};

/// The table entry for `name`, or nullptr for an unknown name.
const DetectorEntry* find_detector(const std::string& name) {
  for (const DetectorEntry& e : kDetectors) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

std::string detector_from_env() {
  if (const char* env = std::getenv("VFT_DETECTOR"); env != nullptr &&
      env[0] != '\0') {
    return env;
  }
  return "v2";
}

}  // namespace

bool Session::configure(const std::string& name) {
  if (find_detector(name) == nullptr) return false;
  std::scoped_lock lk(mu_);
  detector_ = name;
  return true;
}

SessionBackend& Session::create_backend() {
  std::scoped_lock lk(mu_);
  if (backend_ == nullptr) {
    if (detector_.empty()) detector_ = detector_from_env();
    // Suppression rules ride the same launch-time configuration surface
    // as the detector choice; load_suppressions_env warns (and skips the
    // file) on parse errors rather than failing the target's launch.
    // Loaded once per process: rules survive a reset() (the collector's
    // clear() keeps them), so a re-created backend must not double-load.
    if (!suppressions_loaded_) {
      suppressions_loaded_ = true;
      races_.load_suppressions_env(std::getenv("VFT_SUPPRESSIONS"));
    }
    // Resolve the sampling configuration and publish the gate *before*
    // the backend exists: SessionImpl snapshots Gate::active() in its
    // constructor, so the first access event already sees the gate.
    // Re-read on every (re-)creation - tests reconfigure via environment
    // + reset(); replaced gates leak by design (a detached target thread
    // may still hold one mid-access).
    {
      const sampling::Config scfg = sampling::config_from_env();
      sampling::Gate::install(scfg.enabled ? new sampling::Gate(scfg)
                                           : nullptr);
    }
    // Same pattern for the access-history layer (prior-side stacks in
    // race reports): published before the backend exists so the first
    // slow-path access can record; default ON, VFT_HISTORY=off disables.
    history::install(history::enabled_from_env() ? new history::AccessHistory()
                                                 : nullptr);
    const DetectorEntry* entry = find_detector(detector_);
    if (entry == nullptr) {
      std::string names;
      for (const DetectorEntry& e : kDetectors) {
        names += ' ';
        names += e.name;
      }
      detail::fatal(
          "unknown detector '%s' (from VFT_DETECTOR); expected one of%s",
          detector_.c_str(), names.c_str());
    }
    // The backend's generation tags its thread bindings and armed
    // descriptors; reset() bumps the global to retract them all.
    backend_ = entry->make(
        &races_, &stats_,
        __atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE));
    v2_ = detector_ == "v2"
              ? static_cast<SessionImpl<VftV2>*>(backend_.get())
              : nullptr;
    backend_ptr_.store(backend_.get(), std::memory_order_release);
  }
  return *backend_;
}

void Session::reset() {
  std::scoped_lock lk(mu_);
  // Invalidate every thread's session binding and header-inlined
  // fast-path descriptor in one shot before tearing the backend down:
  // bumping the global generation makes stale SessionTls records, fence
  // snapshots and armed descriptors unreachable. Other threads are
  // quiescent by this function's contract; the calling thread drops its
  // registry binding and clears its own descriptor eagerly. The backend
  // is retracted before it is destroyed.
  __atomic_fetch_add(&vft_g_fastpath_gen, 1, __ATOMIC_RELEASE);
  Registry::bind(nullptr);
  tl_session = SessionTls{};
  vft_tl_fastpath = vft_fastpath_s{};
  backend_ptr_.store(nullptr, std::memory_order_release);
  v2_ = nullptr;
  backend_.reset();
  races_.clear();
  stats_.reset();
  // Retract the published sampling gate with the backend it belonged to:
  // between this reset and the next backend creation, Gate::active()
  // consumers (the stats ABI, the drop policy's pre-dispatch check) must
  // not see the torn-down session's gate or its counters. The first
  // event re-reads the environment and republishes in create_backend().
  sampling::Gate::install(nullptr);
  // Retract the access history with the backend: its var ids point into
  // the torn-down shadow space's address scheme. Leaked like the gate.
  history::install(nullptr);
}

}  // namespace vft::rt::ambient

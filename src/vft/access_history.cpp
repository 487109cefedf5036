#include "vft/access_history.h"

#include <cstdlib>
#include <cstring>

namespace vft::history {

thread_local std::uint32_t tl_access_size = 0;

namespace {

std::atomic<AccessHistory*> g_active{nullptr};
std::atomic<std::uint64_t> g_next_history_id{1};

/// One entry of the per-thread intern cache: a stack the owning history's
/// StackPool already interned, and its id. owner 0 = empty.
struct InternCacheEntry {
  std::uint64_t owner = 0;
  std::uint32_t id = 0;
  CallStack stack;
};

/// Direct-mapped, indexed by a cheap word-wise hash of the frames (the
/// table's byte-wise FNV runs only on a miss). 16 entries cover the few
/// hot access sites of a loop nest; the full-stack compare makes a hit
/// exact.
constexpr std::size_t kInternCacheLog2 = 4;
constinit thread_local InternCacheEntry
    tl_intern_cache[std::size_t{1} << kInternCacheLog2];

InternCacheEntry& intern_cache_slot(const CallStack& cs) {
  std::uint64_t h = cs.depth;
  for (std::uint8_t i = 0; i < cs.depth; ++i) {
    h = (h ^ cs.pc[i]) * 0x9E3779B97F4A7C15ull;
  }
  return tl_intern_cache[h >> (64 - kInternCacheLog2)];
}

}  // namespace

AccessHistory* active() { return g_active.load(std::memory_order_acquire); }

void install(AccessHistory* h) {
  // Publication only: a replaced instance is leaked by design, because a
  // concurrently racing recorder may still hold the old pointer (same
  // contract as sampling::Gate::install).
  g_active.store(h, std::memory_order_release);
}

bool enabled_from_env() {
  const char* env = std::getenv("VFT_HISTORY");
  if (env == nullptr || env[0] == '\0') return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}

std::uint32_t StackPool::intern(const CallStack& cs) {
  if (cs.empty()) return 0;
  const std::uint64_t h = hash_stack(cs);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_hash_.find(h);
  if (it != by_hash_.end()) {
    for (std::uint32_t id : it->second) {
      if (stacks_[id - 1] == cs) return id;
    }
  }
  if (stacks_.size() >= kMaxStacks) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  stacks_.push_back(cs);
  const auto id = static_cast<std::uint32_t>(stacks_.size());
  by_hash_[h].push_back(id);
  return id;
}

bool StackPool::lookup(std::uint32_t id, CallStack* out) const {
  if (id == 0) return false;
  std::lock_guard<std::mutex> lk(mu_);
  if (id > stacks_.size()) return false;
  *out = stacks_[id - 1];
  return true;
}

std::size_t StackPool::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stacks_.size();
}

AccessHistory::AccessHistory()
    : id_(g_next_history_id.fetch_add(1, std::memory_order_relaxed)) {}

std::uint32_t AccessHistory::intern(const CallStack& cs) {
  if (cs.empty()) return 0;
  InternCacheEntry& e = intern_cache_slot(cs);
  if (e.owner == id_ && e.stack == cs) return e.id;
  const std::uint32_t sid = stacks_.intern(cs);
  // Only real ids are cached: a full table must keep counting its drops.
  if (sid != 0) {
    e.owner = id_;
    e.id = sid;
    e.stack = cs;
  }
  return sid;
}

void AccessHistory::record(std::uint64_t var, Tid tid, Epoch epoch,
                           AccessKind kind, std::uint16_t size,
                           const CallStack& stack) {
  // Intern outside the shard lock: a cache miss takes the (distinct)
  // table lock and may compare frame arrays, which has no business
  // serializing unrelated variables.
  const std::uint32_t sid = intern(stack);
  Entry e;
  e.stack_id = sid;
  e.epoch = epoch;
  e.tid = tid;
  e.kind = kind;
  e.valid = 1;
  e.size = size;

  Shard& s = shard_of(var);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.rings.find(var);
  if (it == s.rings.end()) {
    if (var_count_.load(std::memory_order_relaxed) >= kMaxVars) {
      var_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    var_count_.fetch_add(1, std::memory_order_relaxed);
    it = s.rings.emplace(var, Ring{}).first;
  }
  it->second.push(e);
  ++s.recorded;
}

std::uint64_t AccessHistory::recorded() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    n += s.recorded;
  }
  return n;
}

void AccessHistory::record_current(std::uint64_t var, Tid tid, Epoch epoch,
                                   AccessKind kind) {
  const CallStack cs = capture_event_stack();
  std::uint32_t size = tl_access_size;
  if (size > 0xffffu) size = 0xffffu;
  record(var, tid, epoch, kind, static_cast<std::uint16_t>(size), cs);
}

bool AccessHistory::find(std::uint64_t var, Epoch epoch, AccessKind want,
                         Entry* out) const {
  const Shard& s = shard_of(var);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.rings.find(var);
  if (it == s.rings.end()) return false;
  const Entry* e = it->second.find(epoch, want);
  if (e == nullptr) return false;
  *out = *e;
  return true;
}

void AccessHistory::reset_range(std::uint64_t addr, std::size_t size) {
  if (size == 0) return;
  const std::uint64_t lo = addr;
  const std::uint64_t hi = addr + size;
  // Small ranges: erase per word-aligned key. Large ranges (a munmap of a
  // big arena) would touch too many keys that were never tracked, so scan
  // the shards instead.
  constexpr std::size_t kPerKeyLimit = 4096;
  if (size <= kPerKeyLimit) {
    for (std::uint64_t v = lo & ~std::uint64_t{7}; v < hi; v += 8) {
      Shard& s = shard_of(v);
      std::lock_guard<std::mutex> lk(s.mu);
      if (s.rings.erase(v) != 0) {
        var_count_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    return;
  }
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    for (auto it = s.rings.begin(); it != s.rings.end();) {
      if (it->first >= lo && it->first < hi) {
        it = s.rings.erase(it);
        var_count_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
}

void AccessHistory::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.rings.clear();
  }
  var_count_.store(0, std::memory_order_relaxed);
}

}  // namespace vft::history

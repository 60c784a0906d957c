#include "exp/workload_cache.h"

#include <algorithm>

namespace fairsched::exp {

double CacheStats::hit_rate() const {
  const std::uint64_t lookups = hits + misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

void CacheStats::accumulate(const CacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  bytes_in_use += other.bytes_in_use;
  peak_bytes += other.peak_bytes;
}

WorkloadCache::WorkloadCache(std::size_t max_bytes, bool retain)
    : max_bytes_(max_bytes), retain_(retain) {}

void WorkloadCache::retire_locked(
    std::map<std::string, Entry>::iterator it) {
  stats_.bytes_in_use -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void WorkloadCache::evict_over_budget_locked() {
  while (stats_.bytes_in_use > max_bytes_ && !lru_.empty()) {
    auto victim = entries_.find(lru_.front());
    retire_locked(victim);
    ++stats_.evictions;
  }
}

std::shared_ptr<const void> WorkloadCache::get_or_compute(
    const std::string& key, std::size_t uses, const ComputeFn& compute,
    bool* computed_here) {
  if (computed_here) *computed_here = true;
  if (!enabled()) return compute().value;

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // we compute
    Entry& entry = it->second;
    if (!entry.ready) {
      // Another task is computing this key; wait for it. If that compute
      // throws (entry vanishes) or the entry is evicted before we reacquire
      // the lock, loop and become the computer ourselves.
      ready_cv_.wait(lock);
      continue;
    }
    ++stats_.hits;
    if (computed_here) *computed_here = false;
    std::shared_ptr<const void> value = entry.value;
    if (!retain_ && ++consumed_[key] >= uses) {
      retire_locked(it);
      consumed_.erase(key);
    } else {
      lru_.splice(lru_.end(), lru_, entry.lru_pos);
    }
    return value;
  }

  ++stats_.misses;
  if (!retain_ && uses <= 1) {
    // Nobody else will ever ask: compute without storing (or latching —
    // distinct single-use keys cannot collide).
    lock.unlock();
    return compute().value;
  }
  entries_[key] = Entry{};  // pending: ready == false latches waiters
  lock.unlock();

  Computed computed;
  try {
    computed = compute();
  } catch (...) {
    lock.lock();
    entries_.erase(key);
    lock.unlock();
    ready_cv_.notify_all();
    throw;
  }

  lock.lock();
  if (!retain_ && ++consumed_[key] >= uses) {
    // Every planned use is already consumed (this compute was a re-miss
    // after an eviction and we are the last consumer): nothing left to
    // share, so do not store.
    entries_.erase(key);
    consumed_.erase(key);
  } else {
    Entry& entry = entries_[key];
    entry.value = computed.value;
    entry.bytes = computed.bytes;
    entry.ready = true;
    entry.lru_pos = lru_.insert(lru_.end(), key);
    stats_.bytes_in_use += computed.bytes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_in_use);
    evict_over_budget_locked();
  }
  lock.unlock();
  ready_cv_.notify_all();
  return computed.value;
}

CacheStats WorkloadCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace fairsched::exp

#include "service/cache.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/digest.hpp"

namespace qmap::service {

std::size_t CachedOutcome::bytes() const {
  // String payloads plus a flat per-entry overhead for the map node, LRU
  // node, and control block. Approximate on purpose: the budget bounds
  // memory to the right order, it is not an allocator audit.
  return fingerprint.size() + fingerprint_digest.size() +
         outcome_json.size() + winner_label.size() + error.size() + 160;
}

void ResultCache::Flight::retain_interest() noexcept {
  interest_.fetch_add(1, std::memory_order_relaxed);
}

void ResultCache::Flight::drop_interest() noexcept {
  if (interest_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    token_.cancel();
  }
}

ResultCache::ResultCache(CacheConfig config, obs::Observer* obs)
    : config_(std::move(config)), obs_(obs) {
  const int shards = std::max(1, config_.shards);
  config_.shards = shards;
  shard_budget_ = std::max<std::size_t>(
      1, config_.max_bytes / static_cast<std::size_t>(shards));
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t ResultCache::shard_of(const std::string& key) const {
  // Keys are already well-mixed digests, but re-hash so raw test keys
  // ("a", "b", ...) still spread.
  return fnv1a64(key) % shards_.size();
}

std::int64_t ResultCache::now_us() const {
  if (config_.now_us) return config_.now_us();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ResultCache::update_gauges() const {
  obs::set_gauge(obs_, "service.cache.bytes",
                 static_cast<double>(bytes_.load(std::memory_order_relaxed)));
  obs::set_gauge(obs_, "service.cache.entries",
                 static_cast<double>(entries_.load(std::memory_order_relaxed)));
}

ResultCache::Lookup ResultCache::acquire(const std::string& key) {
  const std::size_t index = shard_of(key);
  Shard& shard = *shards_[index];
  Lookup lookup;

  std::unique_lock<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    Entry& entry = it->second;
    if (entry.expires_us != 0 && now_us() >= entry.expires_us) {
      // Negative entry aged out: erase and fall through to a fresh flight.
      const std::size_t freed = entry.bytes;
      shard.bytes -= freed;
      shard.lru.erase(entry.lru_it);
      shard.entries.erase(it);
      expired_.fetch_add(1, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      bytes_.fetch_sub(freed, std::memory_order_relaxed);
      obs::add(obs_, "service.cache.expired");
    } else {
      shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
      lookup.kind = Lookup::Kind::Hit;
      lookup.value = entry.value;
      if (entry.value->ok) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs::add(obs_, "service.cache.hit");
      } else {
        negative_hits_.fetch_add(1, std::memory_order_relaxed);
        obs::add(obs_, "service.cache.negative_hit");
      }
      return lookup;
    }
  }

  auto flight_it = shard.flights.find(key);
  if (flight_it != shard.flights.end()) {
    flight_it->second->retain_interest();
    lookup.kind = Lookup::Kind::Follower;
    lookup.flight = flight_it->second;
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs_, "service.cache.coalesced");
    return lookup;
  }

  auto flight = std::make_shared<Flight>(key, index);
  shard.flights.emplace(key, flight);
  lookup.kind = Lookup::Kind::Leader;
  lookup.flight = std::move(flight);
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::add(obs_, "service.cache.miss");
  return lookup;
}

void ResultCache::insert_locked(Shard& shard, const std::string& key,
                                std::shared_ptr<const CachedOutcome> value) {
  const std::size_t bytes = value->bytes();
  if (bytes > shard_budget_) {
    insert_rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs_, "service.cache.insert_rejected");
    return;
  }

  auto existing = shard.entries.find(key);
  if (existing != shard.entries.end()) {
    const std::size_t freed = existing->second.bytes;
    shard.bytes -= freed;
    shard.lru.erase(existing->second.lru_it);
    shard.entries.erase(existing);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    bytes_.fetch_sub(freed, std::memory_order_relaxed);
  }

  while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
    const std::string& victim_key = shard.lru.back();
    auto victim = shard.entries.find(victim_key);
    shard.bytes -= victim->second.bytes;
    entries_.fetch_sub(1, std::memory_order_relaxed);
    bytes_.fetch_sub(victim->second.bytes, std::memory_order_relaxed);
    shard.entries.erase(victim);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs_, "service.cache.evictions");
  }

  Entry entry;
  entry.bytes = bytes;
  entry.expires_us =
      value->ok ? 0
                : now_us() + static_cast<std::int64_t>(
                                 config_.negative_ttl_ms * 1000.0);
  shard.lru.push_front(key);
  entry.lru_it = shard.lru.begin();
  entry.value = std::move(value);
  shard.bytes += bytes;
  shard.entries.emplace(key, std::move(entry));
  entries_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void ResultCache::complete(const std::shared_ptr<Flight>& flight,
                           CachedOutcome outcome, bool store) {
  auto value = std::make_shared<const CachedOutcome>(std::move(outcome));
  {
    Shard& shard = *shards_[flight->shard_];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.flights.erase(flight->key_);
    if (store && (value->ok || config_.negative_ttl_ms > 0.0)) {
      insert_locked(shard, flight->key_, value);
    }
  }
  update_gauges();
  {
    std::lock_guard<std::mutex> lock(flight->mutex_);
    flight->result_ = std::move(value);
    flight->done_ = true;
  }
  flight->done_cv_.notify_all();
}

void ResultCache::abandon(const std::shared_ptr<Flight>& flight) {
  {
    Shard& shard = *shards_[flight->shard_];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.flights.erase(flight->key_);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex_);
    flight->result_ = nullptr;
    flight->done_ = true;
  }
  flight->done_cv_.notify_all();
}

std::shared_ptr<const CachedOutcome> ResultCache::wait(
    const std::shared_ptr<Flight>& flight) const {
  std::unique_lock<std::mutex> lock(flight->mutex_);
  flight->done_cv_.wait(lock, [&flight] { return flight->done_; });
  return flight->result_;
}

std::shared_ptr<const CachedOutcome> ResultCache::lookup(
    const std::string& key) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return nullptr;
  Entry& entry = it->second;
  if (entry.expires_us != 0 && now_us() >= entry.expires_us) {
    const std::size_t freed = entry.bytes;
    shard.bytes -= freed;
    shard.lru.erase(entry.lru_it);
    expired_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    bytes_.fetch_sub(freed, std::memory_order_relaxed);
    shard.entries.erase(it);
    obs::add(obs_, "service.cache.expired");
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
  return entry.value;
}

void ResultCache::insert(const std::string& key, CachedOutcome outcome) {
  auto value = std::make_shared<const CachedOutcome>(std::move(outcome));
  if (!value->ok && config_.negative_ttl_ms <= 0.0) return;
  {
    Shard& shard = *shards_[shard_of(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    insert_locked(shard, key, std::move(value));
  }
  update_gauges();
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.negative_hits = negative_hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.insert_rejected = insert_rejected_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  return stats;
}

void ResultCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    bytes_.fetch_sub(shard->bytes, std::memory_order_relaxed);
    entries_.fetch_sub(shard->entries.size(), std::memory_order_relaxed);
    shard->entries.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
  update_gauges();
}

}  // namespace qmap::service

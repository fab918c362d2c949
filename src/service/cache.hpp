// Sharded, content-addressed result cache with single-flight deduplication.
//
// At millions-of-users scale the request mix a mapping service sees is
// dominated by *identical* (circuit, device, pipeline, seed) submissions —
// the same textbook circuits against the same backends. The ResultCache
// turns that repetition into microsecond answers:
//
//   * content-addressed: keys are 128-bit digests of the canonical request
//     text (common/digest.hpp), so two clients submitting the same circuit
//     with shuffled JSON keys or elided pipeline defaults collapse onto
//     one entry (see PipelineSpec::canonical_json);
//   * sharded: keys hash onto independent (mutex, LRU list, map) shards,
//     so concurrent dispatch workers never serialize on one lock;
//   * bounded: each shard owns an equal slice of the byte budget and
//     evicts least-recently-used entries when an insert would overflow it;
//     an entry larger than a whole shard is rejected, never stored;
//   * single-flight: the first acquire() of a missing key becomes the
//     Leader (it must compile and complete()/abandon() the flight); every
//     concurrent acquire() of the same key becomes a Follower that wait()s
//     for the leader's value instead of racing a duplicate compile. N
//     identical in-flight requests trigger exactly one compile;
//   * negative caching: failed outcomes (exhausted ladder, admission
//     rejection) are stored with a TTL so a poisoned request cannot be
//     retried hot, but does get another chance once the TTL lapses.
//
// Observability (obs/): hit/miss/coalesced/eviction/expiry counters plus
// bytes/entries gauges under the service.cache.* names documented in
// DESIGN.md §10 (linted by scripts/check_service_metrics.sh).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "engine/cancel.hpp"
#include "obs/obs.hpp"

namespace qmap::service {

/// The cached value: everything a cache hit needs to answer a request
/// byte-identically to the cold path, stored as serialized strings so the
/// byte accounting is exact and hits never re-serialize.
struct CachedOutcome {
  /// True when the compile produced a usable result (CompileOutcome::ok).
  bool ok = false;
  /// CompileOutcome::fingerprint() — byte-deterministic for a fixed seed,
  /// so a hit replays exactly what the cold path would have produced.
  std::string fingerprint;
  /// content_digest(fingerprint): the short identity echoed to clients.
  std::string fingerprint_digest;
  /// CompileOutcome::to_json().dump() — replayed verbatim on verbose hits.
  std::string outcome_json;
  std::string winner_label;
  int rung = -1;
  bool validated = false;
  /// Failure detail when !ok (negative entry).
  std::string error;
  /// Recovery classification of the failure when !ok — the terminal
  /// attempt's ErrorClass (Transient for cancellations). The service's
  /// per-device circuit breaker counts only Permanent ones.
  ErrorClass error_class = ErrorClass::Permanent;
  /// True when the outcome was produced by a brownout-down-tiered compile.
  /// Brownout outcomes are never stored (complete(..., store=false)), so a
  /// degraded answer cannot be replayed after the overload clears.
  bool brownout = false;

  /// Approximate heap footprint used for the byte budget.
  [[nodiscard]] std::size_t bytes() const;
};

struct CacheConfig {
  /// Total byte budget across all shards (entries' CachedOutcome::bytes()).
  std::size_t max_bytes = std::size_t(64) << 20;
  /// Lock shards (clamped to >= 1). Each owns max_bytes / shards.
  int shards = 8;
  /// Lifetime of negative (!ok) entries in milliseconds; 0 disables
  /// negative caching entirely. Positive entries never expire (they are
  /// deterministic replays), only LRU-evict.
  double negative_ttl_ms = 2000.0;
  /// Microsecond clock for TTL bookkeeping; defaults to steady_clock.
  /// Tests inject a fake to step time over the negative TTL.
  std::function<std::int64_t()> now_us;
};

struct CacheStats {
  std::uint64_t hits = 0;           // positive hits
  std::uint64_t negative_hits = 0;  // cached-failure hits
  std::uint64_t misses = 0;         // acquire() became Leader
  std::uint64_t coalesced = 0;      // acquire() became Follower
  std::uint64_t evictions = 0;      // LRU evictions under byte pressure
  std::uint64_t expired = 0;        // negative entries aged out
  std::uint64_t insert_rejected = 0;  // entry larger than one shard
  std::size_t bytes = 0;
  std::size_t entries = 0;
};

class ResultCache {
 public:
  /// `obs` is the metrics sink (not owned; null disables recording).
  explicit ResultCache(CacheConfig config = {}, obs::Observer* obs = nullptr);

  /// One in-flight computation of one key. The Leader's compile token is
  /// exposed so a service can cancel work no client is waiting for any
  /// more: interest starts at 1 (the leader) and rises by 1 per follower;
  /// drop_interest() fires the token once every interested party has hung
  /// up. Completion is sticky — a token fired after complete() is a no-op.
  class Flight {
   public:
    explicit Flight(std::string key, std::size_t shard)
        : key_(std::move(key)), shard_(shard) {}

    [[nodiscard]] const std::string& key() const noexcept { return key_; }
    [[nodiscard]] CancelToken& token() noexcept { return token_; }

    void retain_interest() noexcept;
    /// Fires token() when the count reaches zero.
    void drop_interest() noexcept;

   private:
    friend class ResultCache;

    std::string key_;
    std::size_t shard_ = 0;
    CancelToken token_;
    std::atomic<int> interest_{1};

    mutable std::mutex mutex_;
    std::condition_variable done_cv_;
    bool done_ = false;
    std::shared_ptr<const CachedOutcome> result_;  // null after abandon()
  };

  struct Lookup {
    enum class Kind { Hit, Leader, Follower };
    Kind kind = Kind::Hit;
    /// Set when Hit.
    std::shared_ptr<const CachedOutcome> value;
    /// Set when Leader (must complete()/abandon()) or Follower (wait()).
    std::shared_ptr<Flight> flight;
  };

  /// Single-flight acquire; see Lookup. An expired negative entry reads as
  /// a miss (and is erased). Hits refresh LRU recency.
  [[nodiscard]] Lookup acquire(const std::string& key);

  /// Publishes the leader's outcome: stores it (positive always, negative
  /// only when negative_ttl_ms > 0), wakes every follower with the shared
  /// value, and retires the flight. `store` = false delivers the value to
  /// the followers but keeps it out of the cache — the service uses this
  /// for brownout-degraded outcomes that must not outlive the overload.
  void complete(const std::shared_ptr<Flight>& flight, CachedOutcome outcome,
                bool store = true);

  /// Retires the flight without a value (e.g. the compile was cancelled):
  /// followers wake with nullptr and nothing is cached, so the next
  /// request recomputes.
  void abandon(const std::shared_ptr<Flight>& flight);

  /// Follower side: blocks until the leader completes or abandons.
  [[nodiscard]] std::shared_ptr<const CachedOutcome> wait(
      const std::shared_ptr<Flight>& flight) const;

  /// Plain lookup (no flight creation): refreshes recency on hit.
  [[nodiscard]] std::shared_ptr<const CachedOutcome> lookup(
      const std::string& key);
  /// Direct insert, bypassing single-flight (tests/tools).
  void insert(const std::string& key, CachedOutcome outcome);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const CachedOutcome> value;
    std::list<std::string>::iterator lru_it;
    /// Absolute expiry in clock microseconds; 0 = never (positive entry).
    std::int64_t expires_us = 0;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;
    /// Front = most recently used.
    std::list<std::string> lru;
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights;
    std::size_t bytes = 0;
  };

  [[nodiscard]] std::size_t shard_of(const std::string& key) const;
  [[nodiscard]] std::int64_t now_us() const;
  /// Inserts under the shard lock; evicts LRU entries to fit.
  void insert_locked(Shard& shard, const std::string& key,
                     std::shared_ptr<const CachedOutcome> value);
  void update_gauges() const;

  CacheConfig config_;
  obs::Observer* obs_ = nullptr;
  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> negative_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> insert_rejected_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> entries_{0};
};

}  // namespace qmap::service

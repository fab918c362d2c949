// Compile-service suite: ResultCache single-flight/LRU/TTL semantics,
// canonical content-addressed cache keys, request framing, multiplexing,
// disconnect handling, and the determinism pin the whole design rests on —
// a cache hit replays the byte-identical outcome fingerprint the cold path
// produced, across 1/2/8 dispatcher threads.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/builtin.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "qasm/openqasm.hpp"
#include "resilience/resilience.hpp"
#include "service/cache.hpp"
#include "service/serve_flags.hpp"
#include "service/service.hpp"
#include "workloads/workloads.hpp"

namespace qmap::service {
namespace {

CachedOutcome make_outcome(const std::string& tag, bool ok = true) {
  CachedOutcome outcome;
  outcome.ok = ok;
  outcome.fingerprint = "fingerprint:" + tag;
  outcome.fingerprint_digest = content_digest(outcome.fingerprint);
  outcome.outcome_json = "{\"tag\":\"" + tag + "\"}";
  outcome.winner_label = "greedy+sabre";
  outcome.rung = ok ? 0 : -1;
  outcome.validated = ok;
  if (!ok) outcome.error = "exhausted: " + tag;
  return outcome;
}

std::string ghz_qasm(int n) { return to_openqasm(workloads::ghz(n)); }

ServiceRequest compile_request(const std::string& id,
                               const std::string& client,
                               const std::string& qasm,
                               std::uint64_t seed = 7) {
  ServiceRequest request;
  request.op = "compile";
  request.id = id;
  request.client = client;
  request.device = "ibm_qx4";
  request.qasm = qasm;
  request.seed = seed;
  return request;
}

// ---------------------------------------------------------------- cache --

TEST(ResultCache, HitAfterCompleteReturnsStoredValue) {
  ResultCache cache;
  auto lookup = cache.acquire("k");
  ASSERT_EQ(lookup.kind, ResultCache::Lookup::Kind::Leader);
  cache.complete(lookup.flight, make_outcome("a"));

  auto again = cache.acquire("k");
  ASSERT_EQ(again.kind, ResultCache::Lookup::Kind::Hit);
  EXPECT_EQ(again.value->fingerprint, "fingerprint:a");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, SingleFlightFollowersAllReceiveLeaderValue) {
  ResultCache cache;
  auto leader = cache.acquire("k");
  ASSERT_EQ(leader.kind, ResultCache::Lookup::Kind::Leader);

  constexpr int kFollowers = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> fingerprints(kFollowers);
  std::atomic<int> joined{0};
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&cache, &fingerprints, &joined, i] {
      auto follower = cache.acquire("k");
      EXPECT_EQ(follower.kind, ResultCache::Lookup::Kind::Follower);
      joined.fetch_add(1);
      const auto value = cache.wait(follower.flight);
      ASSERT_NE(value, nullptr);
      fingerprints[static_cast<std::size_t>(i)] = value->fingerprint;
      follower.flight->drop_interest();
    });
  }
  // Wait until every follower has actually joined the flight, then publish.
  while (joined.load() < kFollowers) std::this_thread::yield();
  cache.complete(leader.flight, make_outcome("x"));
  for (auto& thread : threads) thread.join();

  for (const auto& fingerprint : fingerprints) {
    EXPECT_EQ(fingerprint, "fingerprint:x");
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // exactly one compile for 9 requests
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kFollowers));
}

TEST(ResultCache, AbandonWakesFollowersWithNull) {
  ResultCache cache;
  auto leader = cache.acquire("k");
  auto follower_result =
      std::async(std::launch::async, [&cache] {
        auto follower = cache.acquire("k");
        if (follower.kind != ResultCache::Lookup::Kind::Follower) {
          // Raced past the leader's abandon: a fresh leader, give it back.
          cache.abandon(follower.flight);
          return std::string("not-a-follower");
        }
        const auto value = cache.wait(follower.flight);
        follower.flight->drop_interest();
        return value == nullptr ? std::string("null") : value->fingerprint;
      });
  // Give the async a chance to join the flight before abandoning.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.abandon(leader.flight);
  const std::string got = follower_result.get();
  EXPECT_TRUE(got == "null" || got == "not-a-follower");
  // Nothing cached: the next acquire is a fresh leader.
  auto again = cache.acquire("k");
  EXPECT_EQ(again.kind, ResultCache::Lookup::Kind::Leader);
  cache.abandon(again.flight);
}

TEST(ResultCache, FlightInterestCountFiresTokenAtZero) {
  ResultCache cache;
  auto leader = cache.acquire("k");
  leader.flight->retain_interest();  // a follower joins
  EXPECT_FALSE(leader.flight->token().cancelled());
  leader.flight->drop_interest();  // follower hangs up
  EXPECT_FALSE(leader.flight->token().cancelled());
  leader.flight->drop_interest();  // leader's client hangs up too
  EXPECT_TRUE(leader.flight->token().cancelled());
  cache.abandon(leader.flight);
}

TEST(ResultCache, LruEvictsOldestUnderByteBudget) {
  CacheConfig config;
  config.shards = 1;  // deterministic eviction order
  const std::size_t entry_bytes = make_outcome("0").bytes();
  config.max_bytes = 3 * entry_bytes;
  ResultCache cache(config);

  cache.insert("a", make_outcome("0"));
  cache.insert("b", make_outcome("1"));
  cache.insert("c", make_outcome("2"));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_LE(cache.stats().bytes, config.max_bytes);

  // Touch "a" so "b" becomes least-recently-used, then overflow.
  EXPECT_NE(cache.lookup("a"), nullptr);
  cache.insert("d", make_outcome("3"));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup("b"), nullptr);  // the LRU victim
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_NE(cache.lookup("d"), nullptr);
  EXPECT_LE(cache.stats().bytes, config.max_bytes);
}

TEST(ResultCache, OversizedEntryRejectedNotStored) {
  CacheConfig config;
  config.shards = 1;
  config.max_bytes = 64;  // smaller than any real entry
  ResultCache cache(config);
  cache.insert("big", make_outcome("oversized"));
  EXPECT_EQ(cache.stats().insert_rejected, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.lookup("big"), nullptr);
}

TEST(ResultCache, NegativeEntryExpiresAfterTtlOnFakeClock) {
  std::int64_t fake_now_us = 0;
  CacheConfig config;
  config.shards = 1;
  config.negative_ttl_ms = 5.0;
  config.now_us = [&fake_now_us] { return fake_now_us; };
  ResultCache cache(config);

  cache.insert("poison", make_outcome("bad", /*ok=*/false));
  auto hit = cache.acquire("poison");
  ASSERT_EQ(hit.kind, ResultCache::Lookup::Kind::Hit);
  EXPECT_FALSE(hit.value->ok);
  EXPECT_EQ(cache.stats().negative_hits, 1u);

  fake_now_us += 5000;  // exactly the TTL: expired
  auto after = cache.acquire("poison");
  EXPECT_EQ(after.kind, ResultCache::Lookup::Kind::Leader);
  EXPECT_EQ(cache.stats().expired, 1u);
  cache.abandon(after.flight);
}

TEST(ResultCache, RePoisoningAfterExpiryGetsAFreshTtl) {
  std::int64_t fake_now_us = 0;
  CacheConfig config;
  config.shards = 1;
  config.negative_ttl_ms = 5.0;
  config.now_us = [&fake_now_us] { return fake_now_us; };
  ResultCache cache(config);

  cache.insert("poison", make_outcome("bad", /*ok=*/false));
  fake_now_us += 5000;  // first poisoning expires
  auto leader = cache.acquire("poison");
  ASSERT_EQ(leader.kind, ResultCache::Lookup::Kind::Leader);
  EXPECT_EQ(cache.stats().expired, 1u);
  // The fresh failure re-poisons the key: its TTL is stamped now, not
  // inherited from the dead entry.
  cache.complete(leader.flight, make_outcome("bad-again", /*ok=*/false));

  fake_now_us += 4999;  // one tick inside the new window: still served
  auto inside = cache.acquire("poison");
  ASSERT_EQ(inside.kind, ResultCache::Lookup::Kind::Hit);
  EXPECT_FALSE(inside.value->ok);
  EXPECT_EQ(cache.stats().negative_hits, 1u);

  fake_now_us += 1;  // the new window lapses too
  auto fresh = cache.acquire("poison");
  EXPECT_EQ(fresh.kind, ResultCache::Lookup::Kind::Leader);
  EXPECT_EQ(cache.stats().expired, 2u);
  cache.abandon(fresh.flight);
}

TEST(ResultCache, LookupPathExpiresNegativeEntriesToo) {
  // lookup() — the read-only path the open-breaker fast-lane uses — must
  // apply the same TTL as acquire(), not resurrect stale poison.
  std::int64_t fake_now_us = 0;
  CacheConfig config;
  config.shards = 1;
  config.negative_ttl_ms = 5.0;
  config.now_us = [&fake_now_us] { return fake_now_us; };
  ResultCache cache(config);

  cache.insert("poison", make_outcome("bad", /*ok=*/false));
  ASSERT_NE(cache.lookup("poison"), nullptr);

  fake_now_us += 5000;
  EXPECT_EQ(cache.lookup("poison"), nullptr);
  EXPECT_EQ(cache.stats().expired, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, NegativeTtlZeroDisablesNegativeCaching) {
  CacheConfig config;
  config.negative_ttl_ms = 0.0;
  ResultCache cache(config);
  cache.insert("bad", make_outcome("bad", /*ok=*/false));
  EXPECT_EQ(cache.stats().entries, 0u);
  auto lookup = cache.acquire("bad");
  EXPECT_EQ(lookup.kind, ResultCache::Lookup::Kind::Leader);
  cache.abandon(lookup.flight);
}

// ----------------------------------------------------- request framing --

TEST(ServiceRequest, FromJsonRejectsUnknownFieldsAndOps) {
  EXPECT_THROW(ServiceRequest::from_json(Json::parse(R"({"sead": 1})")),
               MappingError);
  EXPECT_THROW(ServiceRequest::from_json(Json::parse(R"({"op": "explode"})")),
               MappingError);
  // Seeds: only integers in [0, 2^53) convert exactly from a JSON number.
  for (const char* seed : {"-1", "1.5", "9007199254740992"}) {
    try {
      (void)ServiceRequest::from_json(
          Json::parse(std::string(R"({"seed": )") + seed + "}"));
      ADD_FAILURE() << "seed " << seed << " was accepted";
    } catch (const MappingError& e) {
      EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos)
          << e.what();
    }
  }
  ServiceRequest largest;
  largest.seed = 9007199254740991ull;
  EXPECT_EQ(ServiceRequest::from_json(largest.to_json()).seed,
            9007199254740991ull);
}

// --------------------------------------------------- qmap_serve flags --

TEST(ServeFlags, ParsesEveryFlag) {
  const ServeFlagsResult parsed = parse_serve_flags(
      {"--socket", "/tmp/q.sock", "--workers", "4", "--compile-threads", "0",
       "--cache-mb", "16", "--cache-shards", "2", "--negative-ttl-ms", "0.5",
       "--deadline-ms", "300", "--drain-ms", "1e3", "--max-queued", "0",
       "--metrics"});
  ASSERT_EQ(parsed.error, "");
  const ServeFlags& flags = parsed.flags;
  EXPECT_EQ(flags.socket_path, "/tmp/q.sock");
  EXPECT_EQ(flags.config.num_workers, 4);
  EXPECT_EQ(flags.config.num_compile_threads, 0);
  EXPECT_EQ(flags.config.cache.max_bytes, std::size_t(16) << 20);
  EXPECT_EQ(flags.config.cache.shards, 2);
  EXPECT_EQ(flags.config.cache.negative_ttl_ms, 0.5);
  EXPECT_EQ(flags.config.default_deadline_ms, 300.0);
  EXPECT_EQ(flags.drain_ms, 1000.0);
  EXPECT_EQ(flags.config.overload.max_queued_total, 0u);
  EXPECT_TRUE(flags.dump_metrics);
  EXPECT_FALSE(flags.help);
  EXPECT_TRUE(parse_serve_flags({"--help"}).flags.help);
  // Upper caps are accepted; nothing here starts a thread.
  EXPECT_EQ(parse_serve_flags({"--workers", "256"}).flags.config.num_workers,
            256);
  EXPECT_EQ(parse_serve_flags({"--cache-mb", "1048576"})
                .flags.config.cache.max_bytes,
            std::size_t(1) << 40);
}

TEST(ServeFlags, RejectsMalformedNegativeAndOversizedValuesNamingTheFlag) {
  const std::vector<std::vector<std::string>> bad = {
      {"--workers", "abc"},         {"--workers", "3x"},
      {"--workers", ""},            {"--workers", "-1"},
      {"--workers", "0"},           {"--workers", "257"},
      {"--workers", "+2"},          {"--workers", "1.5"},
      {"--compile-threads", "-3"},  {"--compile-threads", "100000"},
      {"--cache-mb", "-1"},         {"--cache-mb", "1048577"},
      {"--cache-mb", "18446744073709551616"},
      {"--cache-shards", "0"},      {"--cache-shards", "4096"},
      {"--max-queued", "-5"},       {"--max-queued", "1000001"},
      {"--negative-ttl-ms", "-1"},  {"--negative-ttl-ms", "nan"},
      {"--deadline-ms", "inf"},     {"--deadline-ms", "5ms"},
      {"--drain-ms", "1e300"},      {"--drain-ms", " 5"},
  };
  for (const auto& args : bad) {
    const ServeFlagsResult parsed = parse_serve_flags(args);
    EXPECT_NE(parsed.error.find(args[0]), std::string::npos)
        << args[0] << " '" << args[1] << "': " << parsed.error;
  }
  EXPECT_NE(parse_serve_flags({"--workers"}).error.find("--workers"),
            std::string::npos);
  EXPECT_NE(parse_serve_flags({"--bogus"}).error.find("--bogus"),
            std::string::npos);
}

TEST(ServiceRequest, JsonRoundTripPreservesFields) {
  ServiceRequest request = compile_request("r1", "alice", ghz_qasm(3), 42);
  request.deadline_ms = 250.0;
  request.verbose = true;
  request.pipeline = PipelineSpec::standard();
  const ServiceRequest reparsed =
      ServiceRequest::from_json(request.to_json());
  EXPECT_EQ(reparsed.id, "r1");
  EXPECT_EQ(reparsed.client, "alice");
  EXPECT_EQ(reparsed.device, "ibm_qx4");
  EXPECT_EQ(reparsed.seed, 42u);
  EXPECT_EQ(reparsed.deadline_ms, 250.0);
  EXPECT_TRUE(reparsed.verbose);
  ASSERT_TRUE(reparsed.pipeline.has_value());
  EXPECT_EQ(*reparsed.pipeline, *request.pipeline);
}

// ------------------------------------------------------ canonical keys --

TEST(CanonicalKey, PipelineKeyOrderAndElisionDoNotSplitCache) {
  // Same pipeline, three spellings: shuffled JSON key order, elided
  // default options, fully spelled out. All must produce one cache entry.
  const char* spelled = R"({"passes": [
      {"pass": "decompose", "options": {}},
      {"pass": "placer", "options": {"algorithm": "greedy"}},
      {"options": {"algorithm": "sabre"}, "pass": "router"}]})";
  const char* elided = R"({"passes": ["decompose", "placer", "router"]})";
  const PipelineSpec a = PipelineSpec::from_json_text(spelled);
  const PipelineSpec b = PipelineSpec::from_json_text(elided);
  EXPECT_EQ(a.canonical_json().dump(), b.canonical_json().dump());

  CompileService service;
  const std::string qasm = ghz_qasm(3);
  ServiceRequest first = compile_request("r1", "alice", qasm);
  first.pipeline = a;
  ServiceRequest second = compile_request("r2", "bob", qasm);
  second.pipeline = b;

  const ServiceResponse cold = service.handle(first);
  ASSERT_EQ(cold.status, "ok");
  EXPECT_EQ(cold.cache, "miss");
  const ServiceResponse warm = service.handle(second);
  EXPECT_EQ(warm.status, "ok");
  EXPECT_EQ(warm.cache, "hit");  // regression: used to depend on spelling
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(service.cache_stats().entries, 1u);
}

TEST(CanonicalKey, QasmFormattingDoesNotSplitCache) {
  CompileService service;
  const char* compact =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
      "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
  const char* noisy =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// a GHZ state\n"
      "qreg r[3];\n\nh  r[0] ;\ncx r[0] , r[1];\ncx r[1],r[2];\n";
  const ServiceResponse cold =
      service.handle(compile_request("r1", "a", compact));
  const ServiceResponse warm =
      service.handle(compile_request("r2", "b", noisy));
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
}

TEST(CanonicalKey, SeedAndDeviceAndPipelineSplitCache) {
  CompileService service;
  const std::string qasm = ghz_qasm(3);
  const ServiceResponse base =
      service.handle(compile_request("r1", "a", qasm, 7));
  EXPECT_EQ(base.cache, "miss");

  ServiceRequest other_seed = compile_request("r2", "a", qasm, 8);
  EXPECT_EQ(service.handle(other_seed).cache, "miss");

  ServiceRequest other_device = compile_request("r3", "a", qasm, 7);
  other_device.device = "ibm_qx5";
  EXPECT_EQ(service.handle(other_device).cache, "miss");

  ServiceRequest pinned = compile_request("r4", "a", qasm, 7);
  pinned.pipeline = PipelineSpec::standard();
  EXPECT_EQ(service.handle(pinned).cache, "miss");
}

// ----------------------------------------------------------- semantics --

TEST(CompileService, PerClientLatencyHistogramsAreCapped) {
  // Hostile client ids must not grow the metrics registry without bound:
  // past the cap every id shares the overflow histogram.
  obs::Observer observer;
  ServiceConfig config;
  config.obs = &observer;
  CompileService service(std::move(config));
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    ServiceRequest request;
    request.op = "ping";
    request.id = "p" + std::to_string(i);
    request.client =
        std::to_string(rng.index(1u << 30)) + "-" + std::to_string(i);
    EXPECT_EQ(service.handle(request).status, "pong");
  }
  std::size_t client_metrics = 0;
  const Json metrics = observer.metrics().to_json();
  for (const char* section : {"counters", "gauges", "histograms"}) {
    for (const auto& [name, value] : metrics.as_object().at(section).as_object()) {
      if (name.rfind("service.client.", 0) == 0) ++client_metrics;
    }
  }
  EXPECT_LE(client_metrics, CompileService::kMaxClientLatencyHistograms + 1);
  EXPECT_EQ(observer.metrics()
                .histogram("service.client.overflow.latency_ms")
                .count,
            10000 - CompileService::kMaxClientLatencyHistograms);
}

TEST(CompileService, HitReplaysColdFingerprintByteIdentically) {
  CompileService service;
  const std::string qasm = ghz_qasm(4);
  ServiceRequest request = compile_request("r", "a", qasm);
  request.verbose = true;

  const ServiceResponse cold = service.handle(request);
  ASSERT_EQ(cold.status, "ok");
  ASSERT_EQ(cold.cache, "miss");
  const ServiceResponse warm = service.handle(request);
  ASSERT_EQ(warm.cache, "hit");

  // The whole design rests on this: hit and cold are indistinguishable.
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(warm.payload.dump(), cold.payload.dump());
  EXPECT_EQ(warm.rung, cold.rung);
  EXPECT_EQ(warm.winner, cold.winner);

  // And the cold fingerprint matches a direct resilience::compile of the
  // same request — the service adds caching, not semantics.
  resilience::Policy policy;
  policy.seed = 7;
  const auto direct =
      resilience::compile(parse_openqasm(qasm), devices::ibm_qx4(), policy);
  EXPECT_EQ(cold.fingerprint, content_digest(direct.fingerprint()));
}

TEST(CompileService, NIdenticalRequestsCompileExactlyOnce) {
  CompileService service;
  const std::string qasm = ghz_qasm(4);

  constexpr int kClients = 8;
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    futures.push_back(service.submit(compile_request(
        "r" + std::to_string(i), "client" + std::to_string(i), qasm)));
  }
  std::vector<ServiceResponse> responses;
  responses.reserve(kClients);
  for (auto& future : futures) responses.push_back(future.get());

  // Whatever the interleaving — coalesced onto the in-flight compile or a
  // hit on the completed entry — exactly one compile ran and every client
  // got the identical fingerprint.
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, kClients - 1u);
  for (const auto& response : responses) {
    EXPECT_EQ(response.status, "ok");
    EXPECT_EQ(response.fingerprint, responses.front().fingerprint);
  }
}

TEST(CompileService, RejectedRequestIsNegativelyCachedWithTtl) {
  std::int64_t fake_now_us = 0;
  ServiceConfig config;
  config.cache.negative_ttl_ms = 5.0;
  config.cache.now_us = [&fake_now_us] { return fake_now_us; };
  CompileService service(std::move(config));

  // 6 qubits can never fit the 5-qubit QX4: admission rejects, and the
  // rejection is cached as a poisoned entry so retries stay cheap.
  const std::string qasm = ghz_qasm(6);
  const ServiceResponse cold =
      service.handle(compile_request("r1", "a", qasm));
  EXPECT_EQ(cold.status, "rejected");
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_NE(cold.error.find("rejected"), std::string::npos);

  const ServiceResponse warm =
      service.handle(compile_request("r2", "a", qasm));
  EXPECT_EQ(warm.status, "rejected");
  EXPECT_EQ(warm.cache, "negative-hit");
  EXPECT_EQ(service.cache_stats().negative_hits, 1u);

  fake_now_us += 5000;  // TTL lapsed: the request gets a fresh assessment
  const ServiceResponse after =
      service.handle(compile_request("r3", "a", qasm));
  EXPECT_EQ(after.status, "rejected");
  EXPECT_EQ(after.cache, "miss");
  EXPECT_EQ(service.cache_stats().expired, 1u);
}

TEST(CompileService, PoisonedRequestDoesNotSinkNeighbours) {
  CompileService service;
  const ServiceResponse bad =
      service.handle(compile_request("bad", "a", ghz_qasm(6)));
  EXPECT_EQ(bad.status, "rejected");
  const ServiceResponse good =
      service.handle(compile_request("good", "a", ghz_qasm(3)));
  EXPECT_EQ(good.status, "ok");
}

TEST(CompileService, SharedAdmissionPathMatchesResilienceCompile) {
  // The service's pre-queue admission and resilience::compile's must agree
  // — both run the same supervisor assess() (satellite: shared admission).
  ServiceConfig config;
  config.policy.budget.max_gates = 4;
  CompileService service(std::move(config));
  const std::string qasm = ghz_qasm(4);  // 4 gates... plus measure? >4 gates

  resilience::Policy policy;
  policy.budget.max_gates = 4;
  const auto direct =
      resilience::compile(parse_openqasm(qasm), devices::ibm_qx4(), policy);
  const ServiceResponse response =
      service.handle(compile_request("r", "a", qasm));
  EXPECT_EQ(response.status == "rejected", !direct.admission.admitted());
}

TEST(CompileService, UnknownDeviceAndBadQasmAnswerStructuredErrors) {
  CompileService service;
  ServiceRequest request = compile_request("r1", "a", ghz_qasm(3));
  request.device = "nonexistent";
  const ServiceResponse unknown = service.handle(request);
  EXPECT_EQ(unknown.status, "error");
  EXPECT_NE(unknown.error.find("unknown device"), std::string::npos);
  EXPECT_NE(unknown.error.find("ibm_qx4"), std::string::npos);

  const ServiceResponse bad =
      service.handle(compile_request("r2", "a", "qreg q[2]; nonsense"));
  EXPECT_EQ(bad.status, "error");
  EXPECT_NE(bad.error.find("parse"), std::string::npos);
}

TEST(CompileService, NoCacheBypassesLookupAndStore) {
  CompileService service;
  const std::string qasm = ghz_qasm(3);
  ServiceRequest request = compile_request("r", "a", qasm);
  request.no_cache = true;
  const ServiceResponse first = service.handle(request);
  EXPECT_EQ(first.cache, "bypass");
  EXPECT_EQ(service.cache_stats().entries, 0u);
  const ServiceResponse second = service.handle(request);
  EXPECT_EQ(second.cache, "bypass");
  EXPECT_EQ(second.fingerprint, first.fingerprint);
}

TEST(CompileService, PinnedPipelineRunsAsRungOne) {
  CompileService service;
  ServiceRequest request = compile_request("r", "a", ghz_qasm(3));
  request.pipeline = PipelineSpec::standard("identity", "naive");
  const ServiceResponse response = service.handle(request);
  ASSERT_EQ(response.status, "ok");
  EXPECT_EQ(response.rung, 1);  // pinned pipeline, not the portfolio race
  EXPECT_EQ(response.winner, "identity+naive");
}

TEST(CompileService, PinnedStandardPipelinePassesRungOneOnNativeGateDevices) {
  // The standard pipeline lowers to each device's native set, so rung 1's
  // validity audit passes and the ladder never falls through to rung 2.
  CompileService service;
  for (const char* device : {"surface17", "ibm_qx5"}) {
    ServiceRequest request = compile_request("r", "a", ghz_qasm(4));
    request.device = device;
    request.pipeline = PipelineSpec::standard();
    const ServiceResponse response = service.handle(request);
    ASSERT_EQ(response.status, "ok") << device << ": " << response.error;
    EXPECT_EQ(response.rung, 1) << device;
    EXPECT_EQ(response.winner, "greedy+sabre") << device;
    EXPECT_TRUE(response.validated) << device;
  }
}

TEST(CompileService, QueueCapRejectsFloodingClient) {
  ServiceConfig config;
  config.num_workers = 1;
  config.max_queued_per_client = 2;
  CompileService service(std::move(config));

  const std::string qasm = to_openqasm(workloads::qft(5, false));
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    ServiceRequest request =
        compile_request("r" + std::to_string(i), "flood", qasm);
    request.device = "ibm_qx5";
    futures.push_back(service.submit(std::move(request)));
  }
  int rejected = 0;
  for (auto& future : futures) {
    const ServiceResponse response = future.get();
    if (response.status == "rejected" &&
        response.error.find("queue full") != std::string::npos) {
      ++rejected;
    }
  }
  // With one worker and a cap of 2, at most 3 of 6 submissions can ever be
  // in the system (1 executing + 2 queued): at least 3 must bounce.
  EXPECT_GE(rejected, 3);
}

TEST(CompileService, DisconnectFlushesQueuedRequests) {
  ServiceConfig config;
  config.num_workers = 1;
  CompileService service(std::move(config));

  const std::string qasm = to_openqasm(workloads::qft(6, false));
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest request =
        compile_request("r" + std::to_string(i), "leaver", qasm,
                        static_cast<std::uint64_t>(i));  // distinct keys
    request.device = "ibm_qx5";
    futures.push_back(service.submit(std::move(request)));
  }
  service.disconnect("leaver");
  // Every future resolves (no hangs); whatever had not been dispatched
  // yet was answered "cancelled" without compiling.
  int cancelled = 0;
  for (auto& future : futures) {
    const ServiceResponse response = future.get();
    EXPECT_TRUE(response.status == "ok" || response.status == "cancelled")
        << response.status;
    if (response.status == "cancelled") ++cancelled;
    if (response.status == "cancelled") {
      EXPECT_TRUE(response.fingerprint.empty());
    }
  }
  service.wait_idle();
  // The service stays usable after the disconnect.
  const ServiceResponse after =
      service.handle(compile_request("after", "other", ghz_qasm(3)));
  EXPECT_EQ(after.status, "ok");
}

TEST(CompileService, CancelledPolicyTokenStopsLadderBeforeAdmission) {
  // The engine-side contract disconnect cancellation rides on.
  CancelToken token;
  token.cancel();
  resilience::Policy policy;
  policy.cancel = &token;
  const auto outcome = resilience::compile(workloads::ghz(3),
                                           devices::ibm_qx4(), policy);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("cancelled"), std::string::npos);
}

// --------------------------------------------------------- determinism --

TEST(CompileService, FingerprintsIdenticalAcrossOneTwoEightWorkers) {
  // The tentpole determinism pin: the same request mix through 1-, 2- and
  // 8-worker services produces byte-identical fingerprints per request,
  // and every response agrees with its own service's cold answer.
  const std::vector<std::string> circuits = {
      ghz_qasm(3), ghz_qasm(4), to_openqasm(workloads::qft(4, false)),
      to_openqasm(workloads::fig1_example()),
      to_openqasm(workloads::w_state(4))};

  std::vector<std::map<std::string, std::string>> by_workers;
  for (const int workers : {1, 2, 8}) {
    ServiceConfig config;
    config.num_workers = workers;
    config.num_compile_threads = 2;
    CompileService service(std::move(config));

    std::vector<std::future<ServiceResponse>> futures;
    // Two rounds so round two is all warm hits/coalesced joins.
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < circuits.size(); ++i) {
        futures.push_back(service.submit(compile_request(
            "q" + std::to_string(i) + "-" + std::to_string(round),
            "client" + std::to_string(i % 3), circuits[i])));
      }
    }
    std::map<std::string, std::string> fingerprints;
    for (auto& future : futures) {
      const ServiceResponse response = future.get();
      ASSERT_EQ(response.status, "ok");
      const std::string key = response.id.substr(0, response.id.find('-'));
      auto [it, inserted] =
          fingerprints.emplace(key, response.fingerprint);
      // Warm answers must equal the cold answer byte for byte.
      EXPECT_EQ(it->second, response.fingerprint) << response.id;
    }
    EXPECT_EQ(fingerprints.size(), circuits.size());
    by_workers.push_back(std::move(fingerprints));
  }
  EXPECT_EQ(by_workers[0], by_workers[1]);
  EXPECT_EQ(by_workers[0], by_workers[2]);
}

// ------------------------------------------------------------ framing ---

TEST(CompileService, ServeAnswersJsonLines) {
  std::istringstream in(
      "{\"op\":\"ping\",\"id\":\"p\"}\n"
      "not json at all\n"
      "{\"op\":\"compile\",\"id\":\"c\",\"device\":\"ibm_qx4\",\"qasm\":" +
      Json(ghz_qasm(3)).dump() +
      "}\n"
      "{\"op\":\"stats\",\"id\":\"s\"}\n");
  std::ostringstream out;
  CompileService service;
  const int lines = service.serve(in, out);
  EXPECT_EQ(lines, 4);

  std::map<std::string, Json> responses;  // id -> response
  std::istringstream replies(out.str());
  std::string line;
  int errors = 0;
  while (std::getline(replies, line)) {
    const Json json = Json::parse(line);
    if (json.contains("id")) {
      responses.emplace(json.at("id").as_string(), json);
    } else {
      EXPECT_EQ(json.at("status").as_string(), "error");
      ++errors;
    }
  }
  EXPECT_EQ(errors, 1);  // the unparseable line
  ASSERT_TRUE(responses.count("p"));
  EXPECT_EQ(responses.at("p").at("status").as_string(), "pong");
  ASSERT_TRUE(responses.count("c"));
  EXPECT_EQ(responses.at("c").at("status").as_string(), "ok");
  EXPECT_FALSE(responses.at("c").at("fingerprint").as_string().empty());
  ASSERT_TRUE(responses.count("s"));
  // Control ops answer inline, possibly before the queued compile runs, so
  // assert the stats *shape* here and the final counts on the service.
  EXPECT_TRUE(responses.at("s").at("payload").at("cache").contains("misses"));
  EXPECT_EQ(service.cache_stats().misses, 1u);
}

TEST(CompileService, BadRequestErrorsEchoTheRequestsIdAndClient) {
  // Compile answers come back out of order, so a client finds which
  // request failed only by its id. A pin that still switches lowering or
  // the peephole off names the pass and the key.
  const std::string qasm = Json(ghz_qasm(3)).dump();
  std::istringstream in(
      "{\"op\":\"compile\",\"id\":\"a\",\"client\":\"alice\","
      "\"device\":\"surface17\",\"qasm\":" + qasm +
      ",\"pipeline\":[{\"pass\":\"decompose\",\"options\":"
      "{\"lower_to_native\":false}},\"placer\",\"router\"]}\n"
      "{\"op\":\"compile\",\"id\":\"b\",\"client\":\"bob\","
      "\"device\":\"ibm_qx5\",\"qasm\":" + qasm +
      ",\"pipeline\":[\"decompose\",\"placer\",\"router\","
      "{\"pass\":\"postroute\",\"options\":{\"peephole\":false}}]}\n"
      "{\"op\":\"compile\",\"id\":7,\"client\":\"carol\","
      "\"typo\":1}\n"
      "[\"not\", \"an\", \"object\"]\n");
  std::ostringstream out;
  CompileService service;
  EXPECT_EQ(service.serve(in, out), 4);

  std::vector<Json> responses;
  std::istringstream replies(out.str());
  std::string line;
  while (std::getline(replies, line)) responses.push_back(Json::parse(line));
  ASSERT_EQ(responses.size(), 4u);
  for (const Json& response : responses) {
    EXPECT_EQ(response.at("status").as_string(), "error") << response.dump();
  }
  EXPECT_EQ(responses[0].at("id").as_string(), "a");
  EXPECT_EQ(responses[0].at("client").as_string(), "alice");
  EXPECT_EQ(responses[0].at("error").as_string(),
            "bad request: pass 'decompose': unknown option "
            "'lower_to_native' (valid: none)");
  EXPECT_EQ(responses[1].at("id").as_string(), "b");
  EXPECT_EQ(responses[1].at("client").as_string(), "bob");
  EXPECT_EQ(responses[1].at("error").as_string(),
            "bad request: pass 'postroute': unknown option 'peephole' "
            "(valid: none)");
  // A non-string id is not echoed; the client still is.
  EXPECT_FALSE(responses[2].contains("id"));
  EXPECT_EQ(responses[2].at("client").as_string(), "carol");
  // A line that is not a JSON object names no request.
  EXPECT_FALSE(responses[3].contains("id"));
  EXPECT_EQ(responses[3].at("client").as_string(), "");
}

TEST(CompileService, DefaultServiceRegistersTheFourBuiltInDevices) {
  const CompileService service;
  const std::vector<std::string> expected = {"ibm_qx4", "ibm_qx5",
                                             "surface17", "surface7"};
  EXPECT_EQ(service.device_names(), expected);
}

TEST(CompileService, StatsReportsCacheAndDevices) {
  CompileService service;
  ServiceRequest stats_request;
  stats_request.op = "stats";
  const ServiceResponse response = service.handle(stats_request);
  EXPECT_EQ(response.status, "stats");
  EXPECT_EQ(response.payload.at("devices").size(), 4u);
  EXPECT_TRUE(response.payload.at("cache").contains("evictions"));
}

}  // namespace
}  // namespace qmap::service

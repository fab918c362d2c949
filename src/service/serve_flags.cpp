#include "service/serve_flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>

namespace qmap::service {
namespace {

constexpr std::uint64_t kMaxThreads = 256;  // --workers, --compile-threads
constexpr std::uint64_t kMaxCacheMb = 1u << 20;  // 1 TiB
constexpr std::uint64_t kMaxCacheShards = 1024;
constexpr std::uint64_t kMaxQueued = 1'000'000;
constexpr double kMaxMs = 24.0 * 3600.0 * 1000.0;  // one day

/// `text` as an integer in [low, high], or false.
bool parse_count(const std::string& text, std::uint64_t low,
                 std::uint64_t high, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && out >= low && out <= high;
}

/// `text` as a finite number of milliseconds in [0, kMaxMs], or false.
bool parse_ms(const std::string& text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out) && out >= 0.0 &&
         out <= kMaxMs;
}

}  // namespace

ServeFlagsResult parse_serve_flags(const std::vector<std::string>& args) {
  ServeFlagsResult result;
  ServeFlags& flags = result.flags;
  ServiceConfig& config = flags.config;
  for (std::size_t i = 0; i < args.size() && result.error.empty(); ++i) {
    const std::string& flag = args[i];
    // Each reader consumes the flag's value; on a bad or missing value it
    // sets result.error, which ends the loop, and returns a placeholder.
    const auto value = [&]() -> std::string {
      if (i + 1 < args.size()) return args[++i];
      result.error = flag + " needs a value";
      return {};
    };
    const auto count = [&](std::uint64_t low, std::uint64_t high) {
      const std::string text = value();
      std::uint64_t parsed = 0;
      if (result.error.empty() && !parse_count(text, low, high, parsed)) {
        result.error = flag + " expects an integer in [" +
                       std::to_string(low) + ", " + std::to_string(high) +
                       "], got '" + text + "'";
      }
      return parsed;
    };
    const auto ms = [&] {
      const std::string text = value();
      double parsed = 0.0;
      if (result.error.empty() && !parse_ms(text, parsed)) {
        result.error = flag + " expects milliseconds in [0, " +
                       std::to_string(static_cast<long>(kMaxMs)) +
                       "], got '" + text + "'";
      }
      return parsed;
    };
    if (flag == "--socket") {
      flags.socket_path = value();
    } else if (flag == "--workers") {
      config.num_workers = static_cast<int>(count(1, kMaxThreads));
    } else if (flag == "--compile-threads") {
      config.num_compile_threads = static_cast<int>(count(0, kMaxThreads));
    } else if (flag == "--cache-mb") {
      config.cache.max_bytes = static_cast<std::size_t>(count(0, kMaxCacheMb))
                               << 20;
    } else if (flag == "--cache-shards") {
      config.cache.shards = static_cast<int>(count(1, kMaxCacheShards));
    } else if (flag == "--negative-ttl-ms") {
      config.cache.negative_ttl_ms = ms();
    } else if (flag == "--deadline-ms") {
      config.default_deadline_ms = ms();
    } else if (flag == "--drain-ms") {
      flags.drain_ms = ms();
    } else if (flag == "--max-queued") {
      config.overload.max_queued_total =
          static_cast<std::size_t>(count(0, kMaxQueued));
    } else if (flag == "--metrics") {
      flags.dump_metrics = true;
    } else if (flag == "--help" || flag == "-h") {
      flags.help = true;
    } else {
      result.error = "unknown option " + flag;
    }
  }
  return result;
}

}  // namespace qmap::service

// qmap_serve's command line, parsed apart from main() so every rejection
// can be tested without starting a daemon.
//
// Numeric flags are read with std::from_chars: the whole value must be a
// number, with no sign, no trailing text, and no more than the flag's cap.
// A bad value is an error that names the flag; qmap_serve prints it and
// exits with status 2. The caps keep a typo from asking for thousands of
// threads or for a cache budget whose byte count overflows.
#pragma once

#include <string>
#include <vector>

#include "service/service.hpp"

namespace qmap::service {

/// What a qmap_serve command line asks for.
struct ServeFlags {
  ServiceConfig config;
  std::string socket_path;  // empty: serve stdin/stdout
  double drain_ms = 2000.0;
  bool dump_metrics = false;
  bool help = false;
};

/// parse_serve_flags' answer: `flags` when `error` is empty, otherwise a
/// one-line message naming the offending flag.
struct ServeFlagsResult {
  ServeFlags flags;
  std::string error;
};

/// Parses the arguments after the program name.
[[nodiscard]] ServeFlagsResult parse_serve_flags(
    const std::vector<std::string>& args);

}  // namespace qmap::service

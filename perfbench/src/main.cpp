// End-to-end benchmark of the Fig. 2 compile.
//
//   perfbench --workload <compile_s17|serve_mixed|stream_qx5> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Prints one line per metric, then the JSON result object as the last line
// of stdout. See perfbench/README.md for the workloads and metrics.
#include <malloc.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <compile_s17|serve_mixed|"
               "stream_qx5> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>]\n";
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-file") {
        args.trace_file = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  // Keep freed memory in the heap for reuse, as a long-running compile
  // daemon's allocator ends up doing: otherwise every streamed compile
  // maps and faults in its ~150 MB afresh, and the host's page-fault cost
  // (which varies widely on a shared virtual machine) swamps the timing.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Result result;
  try {
    if (args.workload == "compile_s17") {
      result = perfbench::run_compile_s17(args);
    } else if (args.workload == "serve_mixed") {
      result = perfbench::run_serve_mixed(args);
    } else if (args.workload == "stream_qx5") {
      result = perfbench::run_stream_qx5(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (args.trace) perfbench::complete_per_layer(result);
  perfbench::print_result(result);
  return 0;
}

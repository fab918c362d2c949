// qmap_serve: the compile-as-a-service daemon.
//
// Speaks JSON-lines (one request object per line, one response object per
// line; correlate by "id") over stdin/stdout by default, or over a Unix
// domain socket with --socket PATH — each accepted connection gets its own
// serve() loop, so several local clients can multiplex one daemon, one
// result cache, and one compile pool.
//
//   echo '{"op":"ping"}' | qmap_serve
//   qmap_serve --socket /tmp/qmap.sock &
//   printf '%s\n' '{"op":"compile","device":"ibm_qx4","qasm":"..."}' |
//     nc -U /tmp/qmap.sock
//
// Lifecycle: SIGTERM/SIGINT trigger a graceful drain — the daemon stops
// admitting (further submits answer status:"shed"), waits up to
// --drain-ms for in-flight compiles, cancels stragglers, flushes every
// response, and exits 0. SIGPIPE is ignored so a client hanging up
// mid-response surfaces as a short write, never as daemon death.
//
// See README "Running the compile service" and DESIGN.md §10.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/serve_flags.hpp"
#include "service/service.hpp"

#ifndef _WIN32
#include <csignal>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define QMAP_SERVE_HAVE_UNIX_SOCKETS 1
#endif

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --socket PATH        listen on a Unix domain socket instead of\n"
      << "                       stdin/stdout (one serve loop per client)\n"
      << "  --workers N          dispatcher threads, 1-256 (default 2)\n"
      << "  --compile-threads N  engine pool threads, 0-256 (default 0:\n"
      << "                       hardware)\n"
      << "  --cache-mb N         result-cache byte budget in MiB, at most\n"
      << "                       1048576 (default 64)\n"
      << "  --cache-shards N     result-cache lock shards, 1-1024 (default 8)\n"
      << "  --negative-ttl-ms X  failed-outcome cache TTL (default 2000)\n"
      << "  --deadline-ms X      default per-request deadline (default none)\n"
      << "  --drain-ms X         graceful-drain deadline on SIGTERM/SIGINT\n"
      << "                       (default 2000; stragglers are cancelled)\n"
      << "  --max-queued N       global queue budget; beyond it requests are\n"
      << "                       shed (default 256, 0 = unlimited, at most\n"
      << "                       1000000)\n"
      << "  --metrics            dump the obs metrics JSON to stderr on exit\n"
      << "  --help               this text\n"
      << "X is in milliseconds, 0 to 86400000. A malformed or out-of-range\n"
      << "value exits with status 2.\n";
}

#ifdef QMAP_SERVE_HAVE_UNIX_SOCKETS
// One accept loop; each connection is served on its own thread against the
// shared service (shared cache, shared compile pool, shared fairness
// queues — the whole point of the daemon).
int serve_unix_socket(qmap::service::CompileService& service,
                      const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("qmap_serve: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "qmap_serve: socket path too long: " << path << "\n";
    ::close(listener);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    std::perror("qmap_serve: bind");
    ::close(listener);
    return 1;
  }
  if (::listen(listener, 16) != 0) {
    std::perror("qmap_serve: listen");
    ::close(listener);
    return 1;
  }
  std::cerr << "qmap_serve: listening on " << path << "\n";

  std::vector<std::thread> sessions;
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    sessions.emplace_back([&service, fd] {
      // Drain the connection into memory, serve it, write the responses
      // back. JSON-lines has no framing beyond '\n', so EOF is the only
      // request-stream terminator a socket client can send (shutdown(WR)).
      std::string input;
      char buffer[4096];
      for (;;) {
        const ssize_t n = ::read(fd, buffer, sizeof(buffer));
        if (n <= 0) break;
        input.append(buffer, static_cast<std::size_t>(n));
      }
      std::istringstream in(input);
      std::ostringstream out;
      service.serve(in, out);
      const std::string reply = out.str();
      std::size_t written = 0;
      while (written < reply.size()) {
        // SIGPIPE is ignored process-wide (main), so a client that hung
        // up surfaces here as n <= 0 (EPIPE) and we just stop writing.
        const ssize_t n =
            ::write(fd, reply.data() + written, reply.size() - written);
        if (n <= 0) break;
        written += static_cast<std::size_t>(n);
      }
      ::close(fd);
    });
  }
  for (auto& session : sessions) session.join();
  ::close(listener);
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  qmap::service::ServeFlagsResult parsed = qmap::service::parse_serve_flags(
      std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.error.empty()) {
    std::cerr << "qmap_serve: " << parsed.error << "\n";
    usage(argv[0]);
    return 2;
  }
  if (parsed.flags.help) {
    usage(argv[0]);
    return 0;
  }
  qmap::service::ServiceConfig config = std::move(parsed.flags.config);
  const std::string socket_path = parsed.flags.socket_path;
  const bool dump_metrics = parsed.flags.dump_metrics;
  const double drain_ms = parsed.flags.drain_ms;

#ifndef _WIN32
  // SIGPIPE immunity: a client hanging up mid-response must surface as a
  // short write in the write loops, never kill the daemon. (The stdio
  // path is covered too: an EPIPE'd std::cout just sets failbit.)
  std::signal(SIGPIPE, SIG_IGN);

  // Block the drain signals before any thread exists, so every thread —
  // dispatchers, compile pool, socket sessions — inherits the mask and
  // the dedicated sigwait thread below is their only receiver.
  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGTERM);
  sigaddset(&drain_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);
#endif

  qmap::obs::Observer observer;
  config.obs = &observer;
  qmap::service::CompileService service(std::move(config));

#ifndef _WIN32
  // Graceful drain: first SIGTERM/SIGINT stops admission, finishes (or
  // past the deadline, cancels) in-flight work, flushes responses, and
  // exits 0. Detached: on a normal EOF exit the thread is still parked in
  // sigwait and dies with the process.
  std::thread([&service, &observer, drain_signals, drain_ms,
               dump_metrics] {
    int signal_number = 0;
    sigset_t signals = drain_signals;
    if (sigwait(&signals, &signal_number) != 0) return;
    std::cerr << "qmap_serve: caught "
              << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
              << ", draining (deadline " << drain_ms << "ms)\n";
    const qmap::service::DrainReport report = service.drain(drain_ms);
    std::cerr << "qmap_serve: drained in " << report.wall_ms << "ms"
              << (report.clean ? "" : " (stragglers cancelled)") << "\n";
    if (dump_metrics) {
      std::cerr << observer.metrics().to_json().dump(2) << "\n";
    }
    std::cout.flush();
    std::exit(0);
  }).detach();
#endif

  int rc = 0;
  if (!socket_path.empty()) {
#ifdef QMAP_SERVE_HAVE_UNIX_SOCKETS
    rc = serve_unix_socket(service, socket_path);
#else
    std::cerr << "qmap_serve: --socket unsupported on this platform\n";
    rc = 2;
#endif
  } else {
    service.serve(std::cin, std::cout);
  }

  if (dump_metrics) {
    std::cerr << observer.metrics().to_json().dump(2) << "\n";
  }
  return rc;
}

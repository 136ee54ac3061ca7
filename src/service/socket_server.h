// Serves the NDJSON request protocol on an AF_UNIX socket and/or a TCP
// listener, through the non-blocking epoll event loop in
// src/service/event_loop.h (DESIGN.md §11).
//
// One event-loop thread owns every socket: it accepts, reads with incremental
// NDJSON framing into per-connection buffers, runs each admitted request line
// through admission control (per-client and global in-flight caps plus a
// sliding-window rate limiter), and hands admitted work to a bounded run queue
// executed on a ThreadPool. Excess work is shed with structured `overloaded` /
// `rate_limited` envelopes; slow readers get backpressure (a write-buffer
// high-watermark pauses their reads) instead of head-of-line blocking anyone
// else. SIGTERM/SIGINT — or a `shutdown` request on any connection — drains
// gracefully: no new connections are accepted, in-flight requests finish and
// flush within a bounded grace period, stragglers are forcibly shut down, the
// socket file is unlinked, and the metrics summary is always emitted.
#ifndef SRC_SERVICE_SOCKET_SERVER_H_
#define SRC_SERVICE_SOCKET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/service/metrics.h"
#include "src/service/service.h"

namespace concord {

struct SocketServerOptions {
  // Per-connection cap on a single NDJSON request line. A client exceeding it
  // gets {"v":1,"ok":false,"error":{"code":"line_too_long",...}} and its
  // connection is closed — the server's memory use stays bounded no matter
  // what clients send.
  size_t max_line_bytes = 16 * 1024 * 1024;
  int backlog = 8;             // listen(2) backlog.
  // Concurrent open connections. Unlike the old thread-per-connection pool cap
  // this is an admission bound, not a parallelism knob: connection N+1 gets a
  // structured `overloaded` reply and is closed instead of queueing in the
  // backlog behind everyone else.
  int max_connections = 256;
  int64_t idle_timeout_ms = 30000;  // Close connections idle this long; <=0 = never.
  int64_t drain_ms = 5000;     // Grace period for in-flight work on shutdown.
  // Install SIGTERM/SIGINT handlers (restored on exit) that trigger the drain.
  // Tests that send signals to themselves rely on this; embedders that own
  // signal handling can turn it off and call Service::RequestShutdown instead.
  bool install_signal_handlers = true;

  // ---- TCP listener ----
  // "host:port" to also (or only) serve on TCP; "" disables. The host is an
  // IPv4 dotted quad; "" or "*" binds all interfaces; port 0 picks an
  // ephemeral port (reported through bound_tcp_port).
  std::string listen;
  // Out-param: actual TCP port after bind (useful with port 0). Atomic because
  // the embedder typically runs the server on a background thread and spins on
  // this from another.
  std::atomic<int>* bound_tcp_port = nullptr;

  // ---- Run queue and admission control (DESIGN.md §11) ----
  int workers = 4;             // Pool threads executing admitted requests.
  // Global queued+executing cap — the bound on the run queue feeding the
  // worker pool. Requests beyond it are shed with `overloaded`. 0 = unbounded.
  size_t max_inflight = 64;
  // Same cap per peer identity (TCP peer address / Unix peer pid), so one
  // greedy client cannot own every run-queue slot. 0 = unbounded.
  size_t max_inflight_per_client = 8;
  // Sliding-window rate limiter keyed by peer identity: at most rate_limit
  // admissions per rate_window_ms per peer, excess shed with `rate_limited`.
  // 0 = no rate limiting.
  size_t rate_limit = 0;
  int64_t rate_window_ms = 1000;
  // Backpressure: once a connection's pending response bytes exceed this, its
  // reads are paused until the buffer drains below half — a slow reader
  // throttles itself, never the loop or other clients.
  size_t write_high_watermark = 4 * 1024 * 1024;

  // Where the frontend records connection/shed/queue-depth metrics
  // (concord_frontend_*). Null means the served service's own registry, so
  // the `metrics` verb exposes them.
  MetricsRegistry* registry = nullptr;
};

// Binds `path` (unlinking any stale socket first) and/or the TCP address in
// options.listen, serves until shutdown, and removes the socket file. An empty
// `path` serves TCP only (options.listen must then be non-empty). Writes the
// metrics summary to `summary` (when non-null) on exit — including on
// signal-driven shutdown. Returns 0 on clean (drained) shutdown, 2 on socket
// errors.
int RunServiceSocket(Service& service, const std::string& path, std::ostream& err,
                     std::ostream* summary, const SocketServerOptions& options = {});

// Dials an AF_UNIX stream socket as a client, returning the connected fd or -1
// (with *error describing the failure when non-null). Lives here because raw
// socket(2) calls are confined to the socket frontend modules (tools/lint.py
// rule raw-socket); the fuzz harness's socket oracle and the socket clients in
// bench/ and perfbench/ dial through this.
int DialUnixClient(const std::string& path, std::string* error);

}  // namespace concord

#endif  // SRC_SERVICE_SOCKET_SERVER_H_

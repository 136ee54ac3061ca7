#include "src/service/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/service/admission.h"
#include "src/util/error_code.h"
#include "src/util/fault.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace concord {

namespace {

// One client connection. Split personality: the framing/admission fields are
// touched only by the event-loop thread (no lock needed), while the response
// pipeline (`done`, `flush_seq`, `out`) is shared with pool workers and guarded
// by `mu` — a leaf lock in the DESIGN.md §9 hierarchy (never acquires another
// lock while held; workers take it after HandleLine's own locks are long gone).
//
// Response sequencing: every parsed request line takes the next `seq` in
// arrival order. Workers park finished responses in `done[seq]`; the loop
// thread moves consecutive sequences into `out` starting at `flush_seq`, so
// replies — including shed-rejection envelopes parked by the loop itself — go
// out strictly in request order even when requests finish out of order.
struct Conn {
  int fd = -1;
  bool tcp = false;
  std::string peer;  // Admission identity: "tcp:<ip>" or "unix:<pid>".
  // One span per connection: its duration is the connection's lifetime, so the
  // `metrics` verb can report how long clients stay attached.
  TraceSpan span{"serve", "connection"};

  // ---- Event-loop-thread-only state ----
  std::string in;             // Unparsed bytes (incremental NDJSON framing).
  uint64_t next_seq = 0;      // Sequence number the next parsed line will take.
  bool read_paused = false;   // Backpressure: out bytes above the high watermark.
  bool read_ready = false;    // A readable edge arrived while paused.
  bool discard_input = false; // Line cap tripped: ignore all further input.
  bool close_after_flush = false;
  bool peer_eof = false;
  bool io_error = false;      // Unrecoverable read/write error: close now.
  bool closed = false;
  int64_t last_activity_ms = 0;

  // ---- Shared with pool workers ----
  Mutex mu;
  std::map<uint64_t, std::string> done CONCORD_GUARDED_BY(mu);
  uint64_t flush_seq CONCORD_GUARDED_BY(mu) = 0;
  std::string out CONCORD_GUARDED_BY(mu);     // Flushed-in-order response bytes.
  size_t out_off CONCORD_GUARDED_BY(mu) = 0;  // Prefix of `out` already sent.
};

// The one family of replies built outside Service::HandleLine (shed work
// and oversize lines never reach the parser), so the v1 error envelope is
// mirrored by hand exactly as the service would render it. Messages are fixed
// strings with no characters needing JSON escaping.
std::string FrontendErrorLine(ErrorCode code, const std::string& message) {
  return "{\"v\":1,\"ok\":false,\"error\":{\"code\":\"" +
         std::string(ErrorCodeName(code)) + "\",\"message\":\"" + message + "\"}}";
}

bool TransientAcceptError(int error) {
  // ECONNABORTED: the client gave up between connect and accept — theirs, not
  // ours. EMFILE/ENFILE: fd exhaustion is usually momentary for a server whose
  // connections are short-lived; backing off beats tearing the service down.
  return error == ECONNABORTED || error == EMFILE || error == ENFILE ||
         error == EAGAIN || error == EWOULDBLOCK;
}

// Admission identity. TCP peers are keyed by address (one laptop hammering
// from many connections is still one client); Unix peers by SO_PEERCRED pid,
// the closest local analogue.
std::string PeerIdentity(int fd, bool tcp) {
  if (tcp) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    char buf[INET_ADDRSTRLEN] = {0};
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
        addr.sin_family == AF_INET &&
        ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) != nullptr) {
      return std::string("tcp:") + buf;
    }
    return "tcp:unknown";
  }
  ucred cred{};
  socklen_t len = sizeof(cred);
  if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &len) == 0) {
    return "unix:" + std::to_string(cred.pid);
  }
  return "unix:unknown";
}

class EventLoop {
 public:
  EventLoop(Service& service, const SocketServerOptions& options,
            int signal_fd, std::ostream& err)
      : service_(service),
        options_(options),
        signal_fd_(signal_fd),
        err_(err),
        admission_(AdmissionOptions{options.max_inflight,
                                    options.max_inflight_per_client,
                                    options.rate_limit, options.rate_window_ms}),
        start_(std::chrono::steady_clock::now()),
        pool_(static_cast<size_t>(options.workers < 1 ? 1 : options.workers)) {}

  int Run(std::vector<EventLoopListener> listeners) {
    listeners_ = std::move(listeners);
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    completion_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    bool fatal = false;
    if (epoll_fd_ < 0 || completion_fd_ < 0) {
      err_ << "error: event loop setup: " << std::strerror(errno) << "\n";
      fatal = true;
    }
    if (!fatal) {
      // Listeners and wake fds are level-triggered (a pending connection or
      // byte must keep firing until handled); connection sockets are
      // edge-triggered and drained to EAGAIN on every event.
      for (const EventLoopListener& listener : listeners_) {
        AddInterest(listener.fd, EPOLLIN);
      }
      if (signal_fd_ >= 0) {
        AddInterest(signal_fd_, EPOLLIN);
      }
      AddInterest(completion_fd_, EPOLLIN);
      fatal = !Loop();
    }

    // Teardown (clean or fatal): stop listening, cut every connection loose,
    // and join in-flight work so no worker outlives the loop.
    CloseListeners();
    std::vector<std::shared_ptr<Conn>> remaining;
    remaining.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) {
      remaining.push_back(conn);
    }
    for (const std::shared_ptr<Conn>& conn : remaining) {
      CloseConn(conn);
    }
    pool_.Wait();
    if (completion_fd_ >= 0) {
      ::close(completion_fd_);
    }
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
    return fatal ? 2 : 0;
  }

 private:
  // ---- Epoll plumbing -------------------------------------------------------

  void AddInterest(int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  int64_t NowMs() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  bool IsListener(int fd) const {
    for (const EventLoopListener& listener : listeners_) {
      if (listener.fd == fd) {
        return true;
      }
    }
    return false;
  }

  // Wakes the loop thread from a pool worker after a response lands in `done`.
  void WakeLoop() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(completion_fd_, &one, sizeof(one));
  }

  void DrainCompletionFd() {
    uint64_t counter;
    while (::read(completion_fd_, &counter, sizeof(counter)) > 0) {
    }
  }

  // ---- Main loop ------------------------------------------------------------

  bool Loop() {
    while (true) {
      if (!draining_ && service_.shutdown_requested()) {
        StartDrain();
      }
      if (draining_) {
        if (conns_.empty()) {
          return true;
        }
        if (NowMs() >= drain_deadline_ms_) {
          // Grace expired: cut stragglers loose. Their in-flight work still
          // finishes (pool_.Wait() in Run), but nothing more goes on the wire.
          return true;
        }
      }
      epoll_event events[64];
      int n = ::epoll_wait(epoll_fd_, events, 64, ComputeTimeoutMs());
      if (n < 0) {
        if (errno == EINTR) {
          continue;  // Re-checks shutdown_requested() at the top.
        }
        err_ << "error: epoll_wait: " << std::strerror(errno) << "\n";
        return false;
      }
      for (int i = 0; i < n; ++i) {
        int fd = events[i].data.fd;
        if (fd == signal_fd_) {
          // Parity with the poll()-era loop: the byte is left in the shared
          // signal pipe so every concurrently-running loop in this process
          // observes the signal; RunServiceSocket drains it after the run.
          service_.RequestShutdown();
        } else if (fd == completion_fd_) {
          DrainCompletionFd();
        } else if (IsListener(fd)) {
          if (!HandleAccept(fd)) {
            return false;
          }
        } else {
          HandleConnEvent(fd, events[i].events);
        }
      }
      ProcessCompletions();
      if (!draining_ && options_.idle_timeout_ms > 0) {
        IdleSweep();
      }
    }
  }

  // The longest the loop blocks in epoll_wait. Service::RequestShutdown from
  // another thread (an embedder stopping the server) touches no descriptor
  // the loop waits on, so an idle loop must still re-read the flag.
  static constexpr int64_t kMaxWaitMs = 100;

  int ComputeTimeoutMs() {
    int64_t now = NowMs();
    int64_t timeout = kMaxWaitMs;
    if (draining_) {
      timeout = std::clamp<int64_t>(drain_deadline_ms_ - now, 0, kMaxWaitMs);
    } else if (options_.idle_timeout_ms > 0) {
      int64_t next_deadline = std::numeric_limits<int64_t>::max();
      for (auto& [fd, conn] : conns_) {
        if (!PendingWork(*conn)) {
          next_deadline = std::min(next_deadline,
                                   conn->last_activity_ms + options_.idle_timeout_ms);
        }
      }
      if (next_deadline != std::numeric_limits<int64_t>::max()) {
        timeout = std::clamp<int64_t>(next_deadline - now + 1, 0, kMaxWaitMs);
      }
    }
    return static_cast<int>(timeout);
  }

  // ---- Accept path ----------------------------------------------------------

  bool HandleAccept(int listener_fd) {
    bool tcp = false;
    for (const EventLoopListener& listener : listeners_) {
      if (listener.fd == listener_fd) {
        tcp = listener.tcp;
      }
    }
    for (;;) {
      int client = ::accept4(listener_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (client < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (TransientAcceptError(errno)) {
          return true;  // Level-triggered: a pending connection re-fires.
        }
        err_ << "error: accept: " << std::strerror(errno) << "\n";
        return false;
      }
      if (FaultPoint("accept")) {
        ::close(client);  // Injected accept failure: the client sees a reset.
        continue;
      }
      if (draining_ ||
          (options_.max_connections > 0 &&
           conns_.size() >= static_cast<size_t>(options_.max_connections))) {
        // Reject instead of letting the backlog queue the client behind
        // everyone else: a structured envelope, then close.
        std::string reply =
            FrontendErrorLine(ErrorCode::kOverloaded,
                              "server overloaded: " +
                                  std::to_string(options_.max_connections) +
                                  " connections already open") +
            "\n";
        [[maybe_unused]] ssize_t n =
            ::send(client, reply.data(), reply.size(), MSG_NOSIGNAL);
        ::close(client);
        CountShed("connection_limit");
        continue;
      }
      auto conn = std::make_shared<Conn>();
      conn->fd = client;
      conn->tcp = tcp;
      conn->peer = PeerIdentity(client, tcp);
      conn->last_activity_ms = NowMs();
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
      ev.data.fd = client;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev) != 0) {
        ::close(client);
        continue;
      }
      conns_.emplace(client, conn);
      if (options_.registry != nullptr) {
        options_.registry->Count("concord_frontend_connections_total",
                                 "Connections accepted by the serve frontend.",
                                 {{"transport", tcp ? "tcp" : "unix"}});
        options_.registry->SetGauge("concord_frontend_open_connections",
                                    "Currently open serve connections.", {},
                                    static_cast<double>(conns_.size()));
      }
    }
  }

  // ---- Connection events ----------------------------------------------------

  void HandleConnEvent(int fd, uint32_t events) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) {
      return;  // Closed earlier in this event batch.
    }
    std::shared_ptr<Conn> conn = it->second;
    // Deterministic stall/poison hook for slow-loris tests: delay_ms stalls
    // the whole loop (every client feels it, which is the point of the
    // scenario); fail_nth/fail_all drops the connection.
    if (FaultPoint("conn_stall_ms")) {
      conn->io_error = true;
    }
    if ((events & EPOLLERR) != 0) {
      conn->io_error = true;
    }
    if (!conn->io_error && (events & EPOLLOUT) != 0) {
      FlushConn(*conn);
    }
    if (!conn->io_error && (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
      if (draining_ || conn->read_paused || conn->discard_input) {
        conn->read_ready = true;  // Revisited when the pause lifts.
      } else {
        ReadConn(*conn);
      }
    }
    AfterEvent(conn);
  }

  // Reads to EAGAIN (edge-triggered contract), framing and admitting complete
  // lines as they appear. Stops early on the backpressure high-watermark.
  void ReadConn(Conn& conn) {
    char chunk[1 << 16];
    for (;;) {
      if (FaultPoint("conn_read")) {
        conn.io_error = true;
        return;
      }
      ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;
        }
        conn.io_error = true;
        return;
      }
      if (n == 0) {
        // Client hung up (possibly mid-line; the partial line is dropped).
        conn.peer_eof = true;
        return;
      }
      conn.last_activity_ms = NowMs();
      conn.in.append(chunk, static_cast<size_t>(n));
      ProcessLines(conn);
      if (conn.discard_input) {
        return;
      }
      if (PendingOutBytes(conn) > options_.write_high_watermark) {
        // Backpressure: stop reading until this client drains its responses.
        // Unread bytes stay in the kernel buffer, throttling the peer via TCP
        // flow control; read_ready makes the resume re-drain what is queued.
        conn.read_paused = true;
        conn.read_ready = true;
        return;
      }
    }
  }

  void ProcessLines(Conn& conn) {
    size_t start = 0;
    while (!conn.discard_input) {
      size_t newline = conn.in.find('\n', start);
      if (newline == std::string::npos) {
        break;
      }
      size_t end = newline;
      if (end > start && conn.in[end - 1] == '\r') {
        --end;  // Tolerate CRLF line endings.
      }
      std::string line = conn.in.substr(start, end - start);
      start = newline + 1;
      if (line.empty()) {
        continue;  // Blank lines between requests are permitted.
      }
      if (line.size() > options_.max_line_bytes) {
        OverlongLine(conn);
        break;
      }
      AdmitLine(conn, std::move(line));
    }
    conn.in.erase(0, start);
    if (!conn.discard_input && conn.in.size() > options_.max_line_bytes) {
      // A line is still unterminated past the cap: the buffer must not grow
      // without bound on hostile or broken input.
      OverlongLine(conn);
    }
  }

  void OverlongLine(Conn& conn) {
    ParkReply(conn, FrontendErrorLine(
                        ErrorCode::kLineTooLong,
                        "request line exceeds " +
                            std::to_string(options_.max_line_bytes) + " bytes"));
    conn.discard_input = true;
    conn.close_after_flush = true;
    conn.in.clear();
  }

  // Admission pipeline (DESIGN.md §11): rate limit, then the global run-queue
  // bound, then the per-client bound. Shed lines get their envelope parked at
  // their sequence slot immediately — in-order delivery, no work done.
  void AdmitLine(Conn& conn, std::string line) {
    AdmissionDecision decision = admission_.TryAdmit(conn.peer, NowMs());
    switch (decision) {
      case AdmissionDecision::kRateLimited:
        CountShed("rate_limited");
        ParkReply(conn,
                  FrontendErrorLine(
                      ErrorCode::kRateLimited,
                      "rate limit exceeded: " +
                          std::to_string(options_.rate_limit) +
                          " requests per " +
                          std::to_string(options_.rate_window_ms) + " ms"));
        return;
      case AdmissionDecision::kOverloadedGlobal:
        CountShed("global_inflight");
        ParkReply(conn,
                  FrontendErrorLine(
                      ErrorCode::kOverloaded,
                      "server overloaded: " +
                          std::to_string(options_.max_inflight) +
                          " requests already in flight"));
        return;
      case AdmissionDecision::kOverloadedClient:
        CountShed("client_inflight");
        ParkReply(conn,
                  FrontendErrorLine(
                      ErrorCode::kOverloaded,
                      "client overloaded: " +
                          std::to_string(options_.max_inflight_per_client) +
                          " requests already in flight from this peer"));
        return;
      case AdmissionDecision::kAdmit:
        break;
    }
    uint64_t seq = conn.next_seq++;
    if (options_.registry != nullptr) {
      options_.registry->Count("concord_frontend_admitted_total",
                               "Requests admitted past admission control.", {});
    }
    UpdateQueueGauge();
    // find() not conns_[...]: the map owns one reference, the task another.
    std::shared_ptr<Conn> shared = conns_.find(conn.fd)->second;
    pool_.Submit([this, shared, seq, line = std::move(line)]() mutable {
      std::string response = service_.HandleLine(line);
      admission_.Complete(shared->peer);
      UpdateQueueGauge();
      {
        MutexLock lock(shared->mu);
        shared->done.emplace(seq, std::move(response));
      }
      {
        MutexLock lock(flush_mu_);
        flush_queue_.push_back(shared);
      }
      // Always wake: the loop both flushes this response and re-checks
      // shutdown_requested() (the response may have answered `shutdown`).
      WakeLoop();
    });
  }

  // Parks a loop-built (shed/overlong) reply at the next sequence slot and
  // flushes whatever became consecutive.
  void ParkReply(Conn& conn, std::string reply) {
    uint64_t seq = conn.next_seq++;
    {
      MutexLock lock(conn.mu);
      conn.done.emplace(seq, std::move(reply));
    }
    FlushConn(conn);
  }

  // ---- Write path -----------------------------------------------------------

  size_t PendingOutBytes(Conn& conn) {
    MutexLock lock(conn.mu);
    return conn.out.size() - conn.out_off;
  }

  // Anything still owed to the peer: unflushed sequences or unsent bytes.
  bool PendingWork(Conn& conn) {
    MutexLock lock(conn.mu);
    return conn.flush_seq < conn.next_seq || conn.out_off < conn.out.size() ||
           !conn.done.empty();
  }

  // Moves consecutive completed responses into the write buffer and sends to
  // EAGAIN. Loop-thread only — workers never touch the socket.
  void FlushConn(Conn& conn) {
    if (conn.closed) {
      return;
    }
    MutexLock lock(conn.mu);
    for (auto it = conn.done.find(conn.flush_seq); it != conn.done.end();
         it = conn.done.find(conn.flush_seq)) {
      conn.out += it->second;
      conn.out += '\n';
      conn.done.erase(it);
      ++conn.flush_seq;
    }
    while (conn.out_off < conn.out.size()) {
      if (FaultPoint("conn_write")) {
        conn.io_error = true;
        break;
      }
      // MSG_NOSIGNAL: a client that hangs up mid-response must surface as
      // EPIPE, not deliver a process-killing SIGPIPE to the long-running
      // server.
      ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                         conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;  // Edge-triggered EPOLLOUT re-fires when writable again.
        }
        conn.io_error = true;
        break;
      }
      conn.out_off += static_cast<size_t>(n);
      conn.last_activity_ms = NowMs();
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    } else if (conn.out_off > (size_t{1} << 20)) {
      conn.out.erase(0, conn.out_off);  // Keep slow-reader buffers compact.
      conn.out_off = 0;
    }
  }

  // Post-event fixpoint: lift backpressure pauses (which can unlock more
  // reads) and close the connection once nothing is owed and a close is due.
  void AfterEvent(const std::shared_ptr<Conn>& conn) {
    for (;;) {
      if (conn->closed) {
        return;
      }
      if (conn->io_error) {
        CloseConn(conn);
        return;
      }
      if (conn->read_paused && !draining_ && !conn->discard_input &&
          PendingOutBytes(*conn) <= options_.write_high_watermark / 2) {
        conn->read_paused = false;
        if (conn->read_ready) {
          conn->read_ready = false;
          ReadConn(*conn);
          FlushConn(*conn);
          continue;  // The read may have refilled the write buffer.
        }
      }
      if (!PendingWork(*conn) &&
          (conn->close_after_flush || conn->peer_eof || draining_)) {
        CloseConn(conn);
      }
      return;
    }
  }

  void CloseConn(const std::shared_ptr<Conn>& conn) {
    if (conn->closed) {
      return;
    }
    conn->closed = true;
    ::close(conn->fd);  // Also drops the epoll registration.
    conns_.erase(conn->fd);
    if (options_.registry != nullptr) {
      options_.registry->SetGauge("concord_frontend_open_connections",
                                  "Currently open serve connections.", {},
                                  static_cast<double>(conns_.size()));
    }
  }

  // ---- Completions, drain, idle ---------------------------------------------

  void ProcessCompletions() {
    std::vector<std::shared_ptr<Conn>> ready;
    {
      MutexLock lock(flush_mu_);
      ready.swap(flush_queue_);
    }
    for (const std::shared_ptr<Conn>& conn : ready) {
      if (conn->closed) {
        continue;  // Response outlived its connection; discard.
      }
      FlushConn(*conn);
      AfterEvent(conn);
    }
  }

  void StartDrain() {
    draining_ = true;
    int64_t grace = options_.drain_ms < 0 ? 0 : options_.drain_ms;
    drain_deadline_ms_ = NowMs() + grace;
    // Stop accepting first (and unlink the socket path so new clients fail
    // fast), then let in-flight work finish and flush within the grace period.
    CloseListeners();
    if (signal_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, signal_fd_, nullptr);
    }
    std::vector<std::shared_ptr<Conn>> snapshot;
    snapshot.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) {
      snapshot.push_back(conn);
    }
    for (const std::shared_ptr<Conn>& conn : snapshot) {
      FlushConn(*conn);
      AfterEvent(conn);  // Closes every connection with nothing in flight.
    }
  }

  void CloseListeners() {
    for (EventLoopListener& listener : listeners_) {
      if (listener.fd >= 0) {
        ::close(listener.fd);
        listener.fd = -1;
      }
      if (!listener.unlink_path.empty()) {
        ::unlink(listener.unlink_path.c_str());
        listener.unlink_path.clear();
      }
    }
  }

  void IdleSweep() {
    int64_t now = NowMs();
    std::vector<std::shared_ptr<Conn>> idle;
    for (auto& [fd, conn] : conns_) {
      if (!PendingWork(*conn) &&
          now - conn->last_activity_ms >= options_.idle_timeout_ms) {
        idle.push_back(conn);
      }
    }
    for (const std::shared_ptr<Conn>& conn : idle) {
      CloseConn(conn);  // Idle timeout: reclaim the connection.
    }
  }

  // ---- Metrics --------------------------------------------------------------

  void CountShed(const char* reason) {
    if (options_.registry != nullptr) {
      options_.registry->Count("concord_frontend_shed_total",
                               "Requests shed by admission control.",
                               {{"reason", reason}});
    }
  }

  void UpdateQueueGauge() {
    if (options_.registry != nullptr) {
      options_.registry->SetGauge(
          "concord_frontend_queue_depth",
          "Admitted requests queued or executing on the worker pool.", {},
          static_cast<double>(admission_.inflight()));
    }
  }

  // ---- Members (declaration order is initialization order; the pool is last
  // so it is destroyed first, joining workers while everything they reference
  // is still alive) ----
  Service& service_;
  const SocketServerOptions options_;
  const int signal_fd_;
  std::ostream& err_;
  AdmissionController admission_;
  const std::chrono::steady_clock::time_point start_;
  int epoll_fd_ = -1;
  int completion_fd_ = -1;
  std::vector<EventLoopListener> listeners_;
  // Loop-thread only; workers reach connections via the shared_ptr their task
  // captured, never through this map.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  bool draining_ = false;
  int64_t drain_deadline_ms_ = 0;
  Mutex flush_mu_;  // Leaf lock: handoff of completed work to the loop thread.
  std::vector<std::shared_ptr<Conn>> flush_queue_ CONCORD_GUARDED_BY(flush_mu_);
  ThreadPool pool_;
};

}  // namespace

int RunEventLoop(Service& service, const SocketServerOptions& options,
                 std::vector<EventLoopListener> listeners, int signal_wake_fd,
                 std::ostream& err) {
  EventLoop loop(service, options, signal_wake_fd, err);
  return loop.Run(std::move(listeners));
}

}  // namespace concord

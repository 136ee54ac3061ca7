#include "src/service/socket_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/service/event_loop.h"

namespace concord {

namespace {

// Self-pipe write end for the signal handler. A handler may only touch
// async-signal-safe state, so it writes one byte here and the event loop's
// epoll_wait wakes up to run the actual drain logic.
std::atomic<int> g_wake_fd{-1};

void OnShutdownSignal(int /*signo*/) {
  int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char byte = 1;
    // Best effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

// The wake pipe lives for the whole process and is never closed: a signal
// handler caught on another thread can load g_wake_fd just before teardown
// clears it and write() after the fds are gone — at best a lost wakeup, at
// worst a write into whatever reused the descriptor. Keeping the pipe alive
// makes the late write harmless; each run drains stale bytes before serving.
const int* WakePipe() {
  static const int* fds = [] {
    static int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) == 0) {
      ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
      ::fcntl(pipe_fds[1], F_SETFL, O_NONBLOCK);
    }
    return pipe_fds;
  }();
  return fds;
}

void DrainWakePipe(int read_fd) {
  char buf[64];
  while (::read(read_fd, buf, sizeof(buf)) > 0) {
  }
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Binds and listens on the Unix socket, unlinking any stale file first.
// Returns the non-blocking listener fd, or -1 with *error set.
int CreateUnixListener(const std::string& path, int backlog, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0 || !SetNonBlocking(fd)) {
    *error = "cannot serve on " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

// Parses "host:port" from --listen. Host "" / "*" / "0.0.0.0" binds all
// interfaces and "localhost" is accepted as 127.0.0.1; anything else must be
// an IPv4 dotted quad. Port 0 asks the kernel for an ephemeral port.
bool ParseListenSpec(const std::string& spec, in_addr* host, uint16_t* port,
                     std::string* error) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    *error = "--listen expects host:port, got '" + spec + "'";
    return false;
  }
  std::string host_text = spec.substr(0, colon);
  std::string port_text = spec.substr(colon + 1);
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    *error = "cannot parse listen port '" + port_text + "'";
    return false;
  }
  long value = std::strtol(port_text.c_str(), nullptr, 10);
  if (value < 0 || value > 65535) {
    *error = "listen port out of range: " + port_text;
    return false;
  }
  *port = static_cast<uint16_t>(value);
  if (host_text.empty() || host_text == "*" || host_text == "0.0.0.0") {
    host->s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (host_text == "localhost") {
    host_text = "127.0.0.1";
  }
  if (::inet_pton(AF_INET, host_text.c_str(), host) != 1) {
    *error = "cannot parse listen host '" + host_text +
             "' (IPv4 dotted quad expected)";
    return false;
  }
  return true;
}

// Binds and listens on the TCP address in `spec`. Returns the non-blocking
// listener fd (reporting the bound port through *bound_port) or -1.
int CreateTcpListener(const std::string& spec, int backlog, std::string* error,
                      int* bound_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  uint16_t port = 0;
  if (!ParseListenSpec(spec, &addr.sin_addr, &port, error)) {
    return -1;
  }
  addr.sin_port = htons(port);
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // SO_REUSEADDR: a restart must not wait out TIME_WAIT from its predecessor.
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0 || !SetNonBlocking(fd)) {
    *error = "cannot serve on " + spec + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = static_cast<int>(ntohs(bound.sin_port));
    }
  }
  return fd;
}

void CloseListeners(std::vector<EventLoopListener>* listeners) {
  for (EventLoopListener& listener : *listeners) {
    if (listener.fd >= 0) {
      ::close(listener.fd);
    }
    if (!listener.unlink_path.empty()) {
      ::unlink(listener.unlink_path.c_str());
    }
  }
  listeners->clear();
}

}  // namespace

int RunServiceSocket(Service& service, const std::string& path, std::ostream& err,
                     std::ostream* summary, const SocketServerOptions& options) {
  std::vector<EventLoopListener> listeners;
  std::string error;
  if (!path.empty()) {
    int fd = CreateUnixListener(path, options.backlog, &error);
    if (fd < 0) {
      err << "error: " << error << "\n";
      return 2;
    }
    listeners.push_back(EventLoopListener{fd, /*tcp=*/false, path});
  }
  if (!options.listen.empty()) {
    int port = 0;
    int fd = CreateTcpListener(options.listen, options.backlog, &error, &port);
    if (fd < 0) {
      err << "error: " << error << "\n";
      CloseListeners(&listeners);
      return 2;
    }
    if (options.bound_tcp_port != nullptr) {
      options.bound_tcp_port->store(port, std::memory_order_release);
    }
    listeners.push_back(EventLoopListener{fd, /*tcp=*/true, ""});
  }
  if (listeners.empty()) {
    err << "error: no socket path or --listen address to serve\n";
    return 2;
  }

  // Self-pipe so signal handlers can wake the event loop without races. It is
  // shared across runs (see WakePipe), so discard any byte a late handler from
  // a previous run may have left behind — otherwise the first epoll_wait would
  // read it as an immediate shutdown request.
  const int* wake_pipe = WakePipe();
  if (wake_pipe[0] < 0) {
    err << "error: pipe: " << std::strerror(errno) << "\n";
    CloseListeners(&listeners);
    return 2;
  }
  DrainWakePipe(wake_pipe[0]);
  g_wake_fd.store(wake_pipe[1], std::memory_order_relaxed);

  struct sigaction old_term {};
  struct sigaction old_int {};
  if (options.install_signal_handlers) {
    struct sigaction sa {};
    sa.sa_handler = OnShutdownSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);
  }

  SocketServerOptions wired = options;
  if (wired.registry == nullptr) {
    wired.registry = &service.metrics().registry();
  }
  int rc = RunEventLoop(service, wired, std::move(listeners), wake_pipe[0], err);

  if (options.install_signal_handlers) {
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
  }
  g_wake_fd.store(-1, std::memory_order_relaxed);
  DrainWakePipe(wake_pipe[0]);  // The pipe itself outlives the run; see WakePipe.

  if (summary != nullptr) {
    *summary << service.SummaryText();
  }
  return rc;
}

int DialUnixClient(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path too long: " + path;
    }
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace concord

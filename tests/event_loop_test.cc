// The epoll socket frontend (src/service/event_loop.h): TCP + Unix listeners,
// incremental NDJSON framing under adversarial segmentation, admission control
// (rate limit, global and per-client in-flight caps, connection cap),
// backpressure for slow readers, socket-layer fault injection, idle timeout,
// and byte-identical reports across Unix and TCP serving.
#include "src/service/event_loop.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/datagen/corpus.h"
#include "src/datagen/edge_gen.h"
#include "src/format/json.h"
#include "src/service/service.h"
#include "src/service/socket_server.h"
#include "src/util/fault.h"

namespace concord {
namespace {

// ---- Client-side socket helpers (tests play the client by hand) ------------

int ConnectUnix(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return -1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

int ConnectTcp(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1) {
    return -1;
  }
  for (int attempt = 0; attempt < 500; ++attempt) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') {
      return line;
    }
    line.push_back(c);
  }
  return line;
}

std::string ReadUntilEof(int fd) {
  std::string received;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    received.append(chunk, static_cast<size_t>(n));
  }
  return received;
}

bool WriteStr(int fd, const std::string& data) {
  return ::write(fd, data.data(), data.size()) ==
         static_cast<ssize_t>(data.size());
}

JsonValue ParseResponse(const std::string& text) {
  std::string error;
  auto parsed = JsonValue::Parse(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error << " in: " << text;
  return parsed ? *parsed : JsonValue::Null();
}

std::string ErrorCodeOf(const JsonValue& response) {
  const JsonValue* error = response.Find("error");
  return error == nullptr ? "" : error->GetString("code").value_or("");
}

// ---- Request builders -------------------------------------------------------

std::string StatsLine(int64_t id) {
  return "{\"v\":1,\"verb\":\"stats\",\"id\":" + std::to_string(id) + "}";
}

std::string LearnRequest(const std::string& dataset,
                         const GeneratedCorpus& corpus) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("learn"));
  request.Set("dataset", JsonValue::String(dataset));
  JsonValue items = JsonValue::Array();
  for (const GeneratedConfig& config : corpus.configs) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(config.name));
    item.Set("text", JsonValue::String(config.text));
    items.Append(std::move(item));
  }
  request.Set("configs", std::move(items));
  JsonValue options = JsonValue::Object();
  options.Set("support", JsonValue::Number(int64_t{3}));
  request.Set("options", std::move(options));
  return request.Serialize(0);
}

std::string CheckRequest(const std::string& contracts,
                         const std::vector<GeneratedConfig>& configs) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("check"));
  request.Set("contracts", JsonValue::String(contracts));
  JsonValue items = JsonValue::Array();
  for (const GeneratedConfig& config : configs) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(config.name));
    item.Set("text", JsonValue::String(config.text));
    items.Append(std::move(item));
  }
  request.Set("configs", std::move(items));
  return request.Serialize(0);
}

// ---- Fixture ----------------------------------------------------------------

// Serves a Service through the real socket frontend on a background thread;
// tests drive it as hand-rolled clients.
class EventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("concord_event_loop_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    StopServer();
    services_.clear();
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  Service& NewService() {
    services_.push_back(std::make_unique<Service>(ServiceOptions{}));
    return *services_.back();
  }

  std::string UnixPath() const { return (dir_ / "serve.sock").string(); }

  int TcpPort() const { return tcp_port_.load(std::memory_order_acquire); }

  // Starts the frontend on a background thread, serving the Unix path and/or
  // an ephemeral TCP port on 127.0.0.1.
  void StartServer(Service& service, SocketServerOptions options,
                   bool serve_unix = true, bool serve_tcp = false) {
    ASSERT_FALSE(thread_.joinable()) << "server already running";
    options.install_signal_handlers = false;
    if (serve_tcp) {
      options.listen = "127.0.0.1:0";
      options.bound_tcp_port = &tcp_port_;
    }
    tcp_port_.store(0, std::memory_order_release);
    server_options_ = options;
    service_ = &service;
    unix_served_ = serve_unix;
    exit_code_ = -1;
    server_done_.store(false, std::memory_order_release);
    thread_ = std::thread([this] {
      exit_code_ = RunServiceSocket(*service_, unix_served_ ? UnixPath() : "",
                                    err_, nullptr, server_options_);
      server_done_.store(true, std::memory_order_release);
    });
    if (serve_tcp) {
      for (int i = 0; i < 500 && TcpPort() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      ASSERT_GT(TcpPort(), 0) << err_.str();
    }
  }

  int Connect() { return unix_served_ ? ConnectUnix(UnixPath()) : ConnectTcp(TcpPort()); }

  // Sends `shutdown` (retrying through transient admission rejections), joins
  // the server thread, and asserts a clean drained exit.
  void ExpectCleanShutdown() {
    FaultInjector::Global().Reset();
    bool acknowledged = false;
    for (int attempt = 0; attempt < 200 && !acknowledged; ++attempt) {
      int fd = Connect();
      ASSERT_GE(fd, 0);
      if (WriteStr(fd, "{\"v\":1,\"verb\":\"shutdown\"}\n")) {
        JsonValue response = ParseResponse(ReadLine(fd));
        acknowledged = response.GetBool("ok") == true;
      }
      ::close(fd);
      if (!acknowledged) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_TRUE(acknowledged) << "shutdown was never admitted";
    thread_.join();
    EXPECT_EQ(exit_code_, 0) << err_.str();
  }

  // Unconditional teardown for failure paths: request shutdown directly and
  // poke the loop awake with a throwaway connection.
  void StopServer() {
    if (!thread_.joinable()) {
      return;
    }
    service_->RequestShutdown();
    PokeOnce();
    thread_.join();
  }

  void PokeOnce() {
    int fd = -1;
    if (unix_served_) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::string path = UnixPath();
      if (path.size() < sizeof(addr.sun_path)) {
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
          // Listener already gone: the loop is past the point of needing a poke.
        }
      }
    }
    if (fd >= 0) {
      ::close(fd);
    }
  }

  std::filesystem::path dir_;
  std::vector<std::unique_ptr<Service>> services_;
  Service* service_ = nullptr;
  SocketServerOptions server_options_;
  bool unix_served_ = true;
  std::atomic<int> tcp_port_{0};
  std::ostringstream err_;
  int exit_code_ = -1;
  std::atomic<bool> server_done_{false};
  std::thread thread_;
};

// ---- Protocol over TCP ------------------------------------------------------

TEST_F(EventLoopTest, ServesProtocolOnTcpAndUnixSimultaneously) {
  Service& service = NewService();
  StartServer(service, SocketServerOptions{}, /*serve_unix=*/true,
              /*serve_tcp=*/true);

  int tcp = ConnectTcp(TcpPort());
  ASSERT_GE(tcp, 0);
  ASSERT_TRUE(WriteStr(tcp, StatsLine(7) + "\n"));
  JsonValue tcp_response = ParseResponse(ReadLine(tcp));
  EXPECT_EQ(tcp_response.GetBool("ok"), true);
  EXPECT_EQ(tcp_response.GetInt("id"), 7);
  ::close(tcp);

  int unix_fd = ConnectUnix(UnixPath());
  ASSERT_GE(unix_fd, 0);
  ASSERT_TRUE(WriteStr(unix_fd, StatsLine(8) + "\n"));
  JsonValue unix_response = ParseResponse(ReadLine(unix_fd));
  EXPECT_EQ(unix_response.GetBool("ok"), true);
  EXPECT_EQ(unix_response.GetInt("id"), 8);
  ::close(unix_fd);

  ExpectCleanShutdown();
}

// ---- Framing under adversarial segmentation (satellite: partial I/O) -------

TEST_F(EventLoopTest, RequestSplitAcrossManyTcpSegmentsIsReassembled) {
  Service& service = NewService();
  StartServer(service, SocketServerOptions{}, /*serve_unix=*/false,
              /*serve_tcp=*/true);

  int fd = ConnectTcp(TcpPort());
  ASSERT_GE(fd, 0);
  std::string request = StatsLine(42) + "\n";
  // Dribble the request a few bytes at a time with pauses, so the loop
  // observes many partial reads and must hold the fragment across events.
  for (size_t i = 0; i < request.size(); i += 3) {
    ASSERT_TRUE(WriteStr(fd, request.substr(i, 3)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  JsonValue response = ParseResponse(ReadLine(fd));
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetInt("id"), 42);
  ::close(fd);
  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, RequestsCoalescedInOneSegmentAnswerInOrder) {
  Service& service = NewService();
  StartServer(service, SocketServerOptions{}, /*serve_unix=*/false,
              /*serve_tcp=*/true);

  int fd = ConnectTcp(TcpPort());
  ASSERT_GE(fd, 0);
  // Two complete requests in one write — one segment, two parsed lines.
  ASSERT_TRUE(WriteStr(fd, StatsLine(1) + "\n" + StatsLine(2) + "\n"));
  JsonValue first = ParseResponse(ReadLine(fd));
  JsonValue second = ParseResponse(ReadLine(fd));
  EXPECT_EQ(first.GetInt("id"), 1);
  EXPECT_EQ(second.GetInt("id"), 2);
  ::close(fd);
  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, LineCapOverflowArrivingByteByByteIsRejected) {
  Service& service = NewService();
  SocketServerOptions options;
  options.max_line_bytes = 64;
  StartServer(service, options, /*serve_unix=*/false, /*serve_tcp=*/true);

  int fd = ConnectTcp(TcpPort());
  ASSERT_GE(fd, 0);
  // No newline ever arrives; the buffered fragment crosses the cap mid-stream.
  // Writes may start failing once the server rejects and closes — that is the
  // expected outcome, not an error.
  for (int i = 0; i < 200; ++i) {
    char byte = 'x';
    // MSG_NOSIGNAL: once the server rejects and closes, further writes must
    // fail with EPIPE, not SIGPIPE the test.
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string received = ReadUntilEof(fd);  // Reply, then the server hangs up.
  ::close(fd);
  ASSERT_FALSE(received.empty());
  JsonValue response = ParseResponse(received.substr(0, received.find('\n')));
  EXPECT_EQ(response.GetBool("ok"), false);
  EXPECT_EQ(ErrorCodeOf(response), "line_too_long");

  ExpectCleanShutdown();
}

// ---- Admission control ------------------------------------------------------

TEST_F(EventLoopTest, RateLimitedRequestsGetStructuredErrors) {
  Service& service = NewService();
  SocketServerOptions options;
  options.rate_limit = 2;
  options.rate_window_ms = 500;  // Short: the shutdown request regains quota.
  options.registry = &service.metrics().registry();
  StartServer(service, options);

  int fd = Connect();
  ASSERT_GE(fd, 0);
  // Three pipelined requests in one burst: two admitted, the third shed.
  ASSERT_TRUE(WriteStr(fd, StatsLine(1) + "\n" + StatsLine(2) + "\n" +
                               StatsLine(3) + "\n"));
  JsonValue first = ParseResponse(ReadLine(fd));
  JsonValue second = ParseResponse(ReadLine(fd));
  JsonValue third = ParseResponse(ReadLine(fd));
  ::close(fd);
  EXPECT_EQ(first.GetBool("ok"), true);
  EXPECT_EQ(second.GetBool("ok"), true);
  EXPECT_EQ(third.GetBool("ok"), false);
  EXPECT_EQ(ErrorCodeOf(third), "rate_limited");
  EXPECT_EQ(service.metrics().registry().CounterValue(
                "concord_frontend_shed_total", {{"reason", "rate_limited"}}),
            1u);

  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, PerClientCapShedsInArrivalOrder) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Service& service = NewService();
  ParseResponse(service.HandleLine(LearnRequest("d", corpus)));

  SocketServerOptions options;
  options.max_inflight_per_client = 1;
  StartServer(service, options);

  // A slow check followed by a pipelined stats on the same connection: the
  // stats is shed immediately (the peer's one slot is taken), but its reply
  // must still arrive *after* the check's — responses keep arrival order.
  ASSERT_TRUE(FaultInjector::Global().Configure("check:delay_ms=200"));
  int fd = Connect();
  ASSERT_GE(fd, 0);
  std::string check = CheckRequest("d", {corpus.configs[0]});
  ASSERT_TRUE(WriteStr(fd, check + "\n" + StatsLine(2) + "\n"));
  JsonValue first = ParseResponse(ReadLine(fd));
  JsonValue second = ParseResponse(ReadLine(fd));
  FaultInjector::Global().Reset();
  ::close(fd);

  EXPECT_EQ(first.GetBool("ok"), true) << "the admitted check should succeed";
  EXPECT_EQ(second.GetBool("ok"), false);
  EXPECT_EQ(ErrorCodeOf(second), "overloaded");

  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, GlobalCapShedsOtherClientsInsteadOfQueuing) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Service& service = NewService();
  ParseResponse(service.HandleLine(LearnRequest("d", corpus)));

  SocketServerOptions options;
  options.max_inflight = 1;
  options.max_inflight_per_client = 0;
  StartServer(service, options);

  ASSERT_TRUE(FaultInjector::Global().Configure("check:delay_ms=400"));
  int slow = Connect();
  ASSERT_GE(slow, 0);
  ASSERT_TRUE(WriteStr(slow, CheckRequest("d", {corpus.configs[0]}) + "\n"));
  // Let the slow check get admitted before the second client arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The second client is rejected promptly with a structured envelope — it is
  // not head-of-line blocked behind the slow request.
  int other = Connect();
  ASSERT_GE(other, 0);
  ASSERT_TRUE(WriteStr(other, StatsLine(9) + "\n"));
  JsonValue shed = ParseResponse(ReadLine(other));
  ::close(other);
  EXPECT_EQ(shed.GetBool("ok"), false);
  EXPECT_EQ(ErrorCodeOf(shed), "overloaded");

  // The slow client's admitted work still completes normally.
  JsonValue slow_response = ParseResponse(ReadLine(slow));
  FaultInjector::Global().Reset();
  ::close(slow);
  EXPECT_EQ(slow_response.GetBool("ok"), true);

  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, ConnectionCapRejectsWithOverloadedEnvelope) {
  Service& service = NewService();
  SocketServerOptions options;
  options.max_connections = 1;
  StartServer(service, options);

  int held = Connect();
  ASSERT_GE(held, 0);
  // Prove the first connection is registered before the second arrives.
  ASSERT_TRUE(WriteStr(held, StatsLine(1) + "\n"));
  ParseResponse(ReadLine(held));

  int rejected = Connect();
  ASSERT_GE(rejected, 0);
  std::string received = ReadUntilEof(rejected);  // Envelope, then close.
  ::close(rejected);
  ASSERT_FALSE(received.empty());
  JsonValue response = ParseResponse(received.substr(0, received.find('\n')));
  EXPECT_EQ(response.GetBool("ok"), false);
  EXPECT_EQ(ErrorCodeOf(response), "overloaded");

  ::close(held);  // Free the slot so the shutdown connection is admitted.
  ExpectCleanShutdown();
}

// ---- Backpressure -----------------------------------------------------------

TEST_F(EventLoopTest, SlowReaderGetsBackpressureNotOthers) {
  Service& service = NewService();
  SocketServerOptions options;
  options.write_high_watermark = 256;  // Tiny: force the pause quickly.
  options.max_inflight = 0;            // Isolate backpressure from shedding.
  options.max_inflight_per_client = 0;
  StartServer(service, options);

  constexpr int kPipelined = 500;
  int slow = Connect();
  ASSERT_GE(slow, 0);
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    burst += StatsLine(i) + "\n";
  }
  ASSERT_TRUE(WriteStr(slow, burst));
  // Do not read yet: the slow client's response buffer crosses the watermark
  // and its reads pause, while the kernel socket buffer absorbs the rest.

  // A well-behaved client on another connection is served promptly.
  int polite = Connect();
  ASSERT_GE(polite, 0);
  ASSERT_TRUE(WriteStr(polite, StatsLine(9999) + "\n"));
  JsonValue response = ParseResponse(ReadLine(polite));
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetInt("id"), 9999);
  ::close(polite);

  // Now drain: every pipelined request gets exactly one response, in order —
  // backpressure delayed the slow client, it never dropped or reordered.
  for (int i = 0; i < kPipelined; ++i) {
    JsonValue reply = ParseResponse(ReadLine(slow));
    ASSERT_EQ(reply.GetBool("ok"), true) << "response " << i;
    ASSERT_EQ(reply.GetInt("id"), i);
  }
  ::close(slow);
  ExpectCleanShutdown();
}

// ---- Socket-layer fault injection (satellite: CONCORD_FAULTS) --------------

TEST_F(EventLoopTest, AcceptFaultDropsOneConnection) {
  Service& service = NewService();
  StartServer(service, SocketServerOptions{});

  ASSERT_TRUE(FaultInjector::Global().Configure("accept:fail_nth=1"));
  int dropped = Connect();
  ASSERT_GE(dropped, 0);  // connect(2) succeeds; the server closes right away.
  EXPECT_EQ(ReadUntilEof(dropped), "");
  ::close(dropped);

  // Only the first accept was poisoned; the server keeps serving.
  int fd = Connect();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteStr(fd, StatsLine(1) + "\n"));
  EXPECT_EQ(ParseResponse(ReadLine(fd)).GetBool("ok"), true);
  ::close(fd);
  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, ReadFaultDropsConnectionMidFrame) {
  Service& service = NewService();
  StartServer(service, SocketServerOptions{});

  int fd = Connect();
  ASSERT_GE(fd, 0);
  // Poison the next socket read, then send half a request: the server must
  // drop this connection (no reply, no partial-line leak) and keep running.
  ASSERT_TRUE(FaultInjector::Global().Configure("conn_read:fail_nth=1"));
  ASSERT_TRUE(WriteStr(fd, "{\"v\":1,\"verb\":\"st"));
  EXPECT_EQ(ReadUntilEof(fd), "");
  ::close(fd);
  FaultInjector::Global().Reset();

  int next = Connect();
  ASSERT_GE(next, 0);
  ASSERT_TRUE(WriteStr(next, StatsLine(1) + "\n"));
  EXPECT_EQ(ParseResponse(ReadLine(next)).GetBool("ok"), true);
  ::close(next);
  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, WriteFaultDropsConnectionWithoutCrashing) {
  Service& service = NewService();
  StartServer(service, SocketServerOptions{});

  int fd = Connect();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(FaultInjector::Global().Configure("conn_write:fail_nth=1"));
  ASSERT_TRUE(WriteStr(fd, StatsLine(1) + "\n"));
  // The response was computed but its write failed: connection closed, nothing
  // delivered, server alive.
  EXPECT_EQ(ReadUntilEof(fd), "");
  ::close(fd);
  FaultInjector::Global().Reset();

  int next = Connect();
  ASSERT_GE(next, 0);
  ASSERT_TRUE(WriteStr(next, StatsLine(2) + "\n"));
  EXPECT_EQ(ParseResponse(ReadLine(next)).GetBool("ok"), true);
  ::close(next);
  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, StallFaultDelaysButDoesNotBreakServing) {
  Service& service = NewService();
  StartServer(service, SocketServerOptions{});

  // Deterministic slow-loris stand-in: every connection event stalls the loop
  // thread. Requests still complete correctly once the stalls elapse.
  ASSERT_TRUE(FaultInjector::Global().Configure("conn_stall_ms:delay_ms=50"));
  int fd = Connect();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteStr(fd, StatsLine(5) + "\n"));
  JsonValue response = ParseResponse(ReadLine(fd));
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetInt("id"), 5);
  ::close(fd);
  FaultInjector::Global().Reset();
  ExpectCleanShutdown();
}

TEST_F(EventLoopTest, ClientDisconnectMidFrameDropsPartialLine) {
  Service& service = NewService();
  StartServer(service, SocketServerOptions{});

  int fd = Connect();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteStr(fd, "{\"v\":1,\"verb\":\"sta"));
  ::close(fd);  // Mid-frame disconnect: the fragment must be discarded.

  int next = Connect();
  ASSERT_GE(next, 0);
  ASSERT_TRUE(WriteStr(next, StatsLine(3) + "\n"));
  EXPECT_EQ(ParseResponse(ReadLine(next)).GetBool("ok"), true);
  ::close(next);
  ExpectCleanShutdown();
}

// ---- Idle timeout -----------------------------------------------------------

TEST_F(EventLoopTest, IdleConnectionsAreReclaimed) {
  Service& service = NewService();
  SocketServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(service, options);

  int fd = Connect();
  ASSERT_GE(fd, 0);
  // Never send anything: the server must hang up on its own.
  EXPECT_EQ(ReadUntilEof(fd), "");
  ::close(fd);
  ExpectCleanShutdown();
}

// An embedder stops the server with Service::RequestShutdown from its own
// thread. With idle reclaim off and no client connected, nothing else wakes
// the loop, so it must notice the flag on its own.
TEST_F(EventLoopTest, RequestShutdownStopsAnIdleLoop) {
  Service& service = NewService();
  SocketServerOptions options;
  options.idle_timeout_ms = 0;
  StartServer(service, options);

  int fd = Connect();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteStr(fd, StatsLine(1) + "\n"));
  EXPECT_EQ(ParseResponse(ReadLine(fd)).GetBool("ok"), true);
  ::close(fd);
  // Let the loop retire the connection and go back to waiting.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  service.RequestShutdown();
  for (int i = 0; i < 200 && !server_done_.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(server_done_.load(std::memory_order_acquire))
      << "the loop did not stop within 2 s of RequestShutdown";
  // On failure, TearDown's StopServer wakes the loop with a connection.
}

// ---- Byte-identity across transports ----------------------------------------

TEST_F(EventLoopTest, ReportsAreByteIdenticalAcrossUnixAndTcp) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  std::string learn = LearnRequest("d", corpus);
  std::string check = CheckRequest("d", corpus.configs);

  // One Service on both transports. Warm the parse cache once, then capture a
  // warm response per transport (cache counters are part of the response, so
  // both sides must be equally warm to compare bytes).
  Service& single = NewService();
  ParseResponse(single.HandleLine(learn));
  StartServer(single, SocketServerOptions{}, /*serve_unix=*/true,
              /*serve_tcp=*/true);
  int warm = ConnectUnix(UnixPath());
  ASSERT_GE(warm, 0);
  ASSERT_TRUE(WriteStr(warm, check + "\n"));
  ParseResponse(ReadLine(warm));
  ::close(warm);

  int unix_fd = ConnectUnix(UnixPath());
  ASSERT_GE(unix_fd, 0);
  ASSERT_TRUE(WriteStr(unix_fd, check + "\n"));
  std::string unix_response = ReadLine(unix_fd);
  ::close(unix_fd);

  int tcp_fd = ConnectTcp(TcpPort());
  ASSERT_GE(tcp_fd, 0);
  ASSERT_TRUE(WriteStr(tcp_fd, check + "\n"));
  std::string tcp_response = ReadLine(tcp_fd);
  ::close(tcp_fd);
  EXPECT_EQ(unix_response, tcp_response);
  ExpectCleanShutdown();
}

}  // namespace
}  // namespace concord

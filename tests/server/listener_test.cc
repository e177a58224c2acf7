// Listener: the socket lifecycle both server planes share. Covers the
// Start() preconditions (once, never after a stop, port in range) on
// the Listener and through both planes, bounded reaping of finished
// connection threads, and Stop()/Join() from a handler, against a
// parked reader, and from two threads at once.

#include "server/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <string>
#include <system_error>
#include <thread>

#include <gtest/gtest.h>

#include "server/advisor_server.h"
#include "server/http_endpoint.h"

namespace cdpd {
namespace {

ServiceOptions TestServiceOptions() {
  ServiceOptions options;
  options.rows = 50'000;
  options.domain_size = 100'000;
  options.block_size = 5;
  options.k = 2;
  options.num_threads = 2;
  return options;
}

/// A loopback client socket connected to `port`, or -1.
int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocks until the peer closes `fd`; true on a clean EOF.
bool ReadUntilEof(int fd) {
  char buf[64];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

/// Open descriptors of this process, or -1 where /proc is unavailable.
int OpenFdCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/fd", ec);
  if (ec) return -1;
  return static_cast<int>(
      std::distance(it, std::filesystem::directory_iterator()));
}

template <typename Predicate>
bool WaitFor(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ListenerTest, SecondStartFailsWithFailedPrecondition) {
  Listener listener([](int) {});
  ASSERT_TRUE(listener.Start({}).ok());
  const int port = listener.port();
  const Status again = listener.Start({});
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition) << again.ToString();
  EXPECT_EQ(listener.port(), port);

  // Both planes inherit the rule instead of aborting the process on a
  // move-assignment onto their running accept thread.
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  HttpEndpoint endpoint(&service);
  ASSERT_TRUE(endpoint.Start().ok());
  EXPECT_EQ(endpoint.Start().code(), StatusCode::kFailedPrecondition);
  endpoint.Shutdown();
  server.Shutdown();
}

TEST(ListenerTest, StartAfterStopFailsAndOpensNoSocket) {
  Listener listener([](int) {});
  ASSERT_TRUE(listener.Start({}).ok());
  listener.Stop();
  listener.Join();
  const int fds_before = OpenFdCount();
  EXPECT_EQ(listener.Start({}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OpenFdCount(), fds_before);

  // Never started, but stopped: still single-use.
  Listener stopped([](int) {});
  stopped.Stop();
  EXPECT_EQ(stopped.Start({}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stopped.port(), 0);

  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
  HttpEndpoint endpoint(&service);
  ASSERT_TRUE(endpoint.Start().ok());
  endpoint.Shutdown();
  const int plane_fds_before = OpenFdCount();
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(endpoint.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OpenFdCount(), plane_fds_before);
}

TEST(ListenerTest, PortOutsideRangeIsInvalidArgument) {
  for (const int port : {70000, 65536, -1}) {
    ListenOptions options;
    options.port = port;
    Listener listener([](int) {});
    const Status status = listener.Start(options);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << port;
    EXPECT_NE(status.message().find(std::to_string(port)), std::string::npos)
        << status.ToString();
    EXPECT_EQ(listener.port(), 0);
    // A rejected Start() consumes nothing.
    EXPECT_TRUE(listener.Start({}).ok());
  }

  AdvisorService service(TestServiceOptions());
  ListenOptions options;
  options.port = 70000;
  AdvisorServer server(&service);
  EXPECT_EQ(server.Start(options).code(), StatusCode::kInvalidArgument);
  HttpEndpoint endpoint(&service);
  EXPECT_EQ(endpoint.Start(options).code(), StatusCode::kInvalidArgument);
}

TEST(ListenerTest, ReapingStaysBoundedAcrossSequentialConnections) {
  std::atomic<int> served{0};
  Listener listener([&](int fd) {
    const char byte = 'x';
    (void)!::write(fd, &byte, 1);
    served.fetch_add(1);
  });
  ASSERT_TRUE(listener.Start({}).ok());
  size_t max_tracked = 0;
  for (int i = 0; i < 200; ++i) {
    const int fd = ConnectTo(listener.port());
    ASSERT_GE(fd, 0);
    // EOF proves the Listener closed the fd once the handler returned.
    ASSERT_TRUE(ReadUntilEof(fd));
    ::close(fd);
    max_tracked = std::max(max_tracked, listener.TrackedConnections());
  }
  EXPECT_EQ(served.load(), 200);
  // Without reaping the set would hold all 200 finished connections.
  EXPECT_LE(max_tracked, 16u);
  listener.Stop();
  listener.Join();
}

TEST(ListenerTest, StopFromInsideAHandlerReturnsAndJoinCompletes) {
  Listener* self = nullptr;
  std::atomic<bool> stop_returned{false};
  Listener listener([&](int) {
    self->Stop();  // The SHUTDOWN-frame pattern.
    stop_returned.store(true);
  });
  self = &listener;
  ASSERT_TRUE(listener.Start({}).ok());
  const int port = listener.port();
  const int fd = ConnectTo(port);
  ASSERT_GE(fd, 0);
  // Stop() shuts this connection down too, so EOF may arrive before
  // the handler returns; Join() waits for that.
  EXPECT_TRUE(ReadUntilEof(fd));
  ::close(fd);
  listener.Join();
  EXPECT_TRUE(stop_returned.load());
  EXPECT_EQ(listener.TrackedConnections(), 0u);
  // The listening socket is closed: nothing accepts on the port.
  EXPECT_LT(ConnectTo(port), 0);
}

TEST(ListenerTest, StopUnblocksAHandlerParkedInRead) {
  std::atomic<int> parked{0};
  std::atomic<bool> read_returned{false};
  Listener listener([&](int fd) {
    parked.fetch_add(1);
    char byte = 0;
    (void)!::read(fd, &byte, 1);  // The idle client never writes.
    read_returned.store(true);
  });
  ASSERT_TRUE(listener.Start({}).ok());
  const int fd = ConnectTo(listener.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WaitFor([&] { return parked.load() == 1; }));
  listener.Stop();
  listener.Join();
  EXPECT_TRUE(read_returned.load());
  ::close(fd);
}

TEST(ListenerTest, ConcurrentStopIsIdempotent) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> parked{0};
    Listener listener([&](int fd) {
      parked.fetch_add(1);
      char byte = 0;
      (void)!::read(fd, &byte, 1);
    });
    ASSERT_TRUE(listener.Start({}).ok());
    const int fd = ConnectTo(listener.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WaitFor([&] { return parked.load() == 1; }));
    std::thread a([&] { listener.Stop(); });
    std::thread b([&] { listener.Stop(); });
    a.join();
    b.join();
    listener.Stop();
    listener.Join();
    EXPECT_EQ(listener.TrackedConnections(), 0u);
    EXPECT_EQ(listener.Start({}).code(), StatusCode::kFailedPrecondition);
    ::close(fd);
  }
}

TEST(ListenerTest, JoinLeavesNoConnectionsTracked) {
  constexpr int kClients = 8;
  std::atomic<int> parked{0};
  Listener listener([&](int fd) {
    parked.fetch_add(1);
    char byte = 0;
    (void)!::read(fd, &byte, 1);
  });
  ASSERT_TRUE(listener.Start({}).ok());
  int fds[kClients];
  for (int& fd : fds) {
    fd = ConnectTo(listener.port());
    ASSERT_GE(fd, 0);
  }
  ASSERT_TRUE(WaitFor([&] { return parked.load() == kClients; }));
  EXPECT_EQ(listener.TrackedConnections(), static_cast<size_t>(kClients));
  listener.Stop();
  listener.Join();
  EXPECT_EQ(listener.TrackedConnections(), 0u);
  // Every server-side fd was closed: each client sees EOF.
  for (const int fd : fds) {
    EXPECT_TRUE(ReadUntilEof(fd));
    ::close(fd);
  }
}

}  // namespace
}  // namespace cdpd

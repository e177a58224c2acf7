#ifndef CDPD_SERVER_LISTENER_H_
#define CDPD_SERVER_LISTENER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"

namespace cdpd {

/// Where a server plane listens.
struct ListenOptions {
  /// Loopback by default: the advisor's protocols are unauthenticated,
  /// so a plane should not listen on a routable interface unless the
  /// deployment supplies its own perimeter.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by port(). Must lie in
  /// [0, 65535].
  int port = 0;
};

/// The TCP socket lifecycle both server planes share: bind and listen
/// on an IPv4 address, accept on a dedicated thread, and serve each
/// connection on a thread of its own by calling `handler(fd)`.
///
/// Contract:
///   - Start() succeeds at most once. A second Start(), or a Start()
///     after Stop(), fails with FailedPrecondition and opens no socket;
///     a port outside [0, 65535] fails with InvalidArgument. A failed
///     Start() leaves the listener startable.
///   - The handler owns the protocol, the Listener owns the fd: when
///     the handler returns, the Listener closes the connection. A
///     handler must not close its fd.
///   - Stop() never joins. It closes the listening socket and shuts
///     down every open connection, so a handler blocked in read()
///     wakes up and returns. It is idempotent, safe from any thread,
///     and safe from inside a handler (a SHUTDOWN request).
///   - Join() waits until Stop() has been called and every handler has
///     returned (at once if Start() never succeeded). It must not be
///     called from a handler.
///   - The destructor stops and joins.
///
/// Finished connection threads are joined by the accept loop before
/// each accept, so a long-lived plane does not hoard one mapped stack
/// per past connection.
class Listener {
 public:
  using Handler = std::function<void(int fd)>;

  explicit Listener(Handler handler) : handler_(std::move(handler)) {}
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Binds, listens, and spawns the accept thread. Fails with Internal
  /// on socket errors (port in use, no permission).
  Status Start(const ListenOptions& options);

  /// The bound port (the ephemeral port when options.port was 0); 0
  /// before Start().
  int port() const { return port_; }

  void Stop();
  void Join();

  /// Connections still tracked (serving, or finished and awaiting the
  /// accept loop's next reap). Lets tests assert the set stays bounded.
  size_t TrackedConnections();

 private:
  /// One accepted connection: its socket, the thread serving it, and a
  /// completion flag the accept loop polls to reap the thread.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    int fd;
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void AcceptLoop();
  void Serve(Connection* conn);
  /// Joins and frees every connection whose handler has finished.
  void ReapFinished();

  const Handler handler_;
  int port_ = 0;
  /// Guards the state below. Never held while a handler runs.
  std::mutex mu_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<int> open_fds_;
  /// Serializes Join() callers (a main thread and a destructor).
  std::mutex join_mu_;
};

}  // namespace cdpd

#endif  // CDPD_SERVER_LISTENER_H_

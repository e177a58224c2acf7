#ifndef CDPD_SERVER_ADVISOR_SERVER_H_
#define CDPD_SERVER_ADVISOR_SERVER_H_

#include <cstddef>

#include "common/result.h"
#include "server/advisor_service.h"
#include "server/listener.h"

namespace cdpd {

/// The advisor's frame plane: speaks the length-prefixed frame protocol
/// of server/frame.h on the connections a Listener (server/listener.h)
/// accepts, dispatching each request frame to an AdvisorService
/// (borrowed — must outlive the server) on a per-connection thread.
/// One request, one response; requests on one connection are
/// sequential, concurrency comes from multiple connections.
///
/// Lifecycle: Start() binds and spawns the accept thread; Wait()
/// blocks until a SHUTDOWN frame (or Shutdown() from another thread)
/// stops the server; the destructor shuts down and joins. A SHUTDOWN
/// request is acked first, then in-flight solves are cancelled through
/// the service's cancel token, the listener closes, and every
/// connection thread is joined.
///
/// Per-request metrics land in the service registry: the
/// "server.requests" / "server.request_errors" counters, the
/// "server.inflight_requests" gauge, a per-opcode "server.op.<name>"
/// counter and "server.op_us.<name>" latency histogram, and the
/// overall "server.request_us" histogram (p50/p95/p99 via
/// MetricsSnapshot). Latency is recorded *after* the response write
/// completes, so it covers the full server-observed request.
///
/// Request ids: a frame whose tag carries kRequestIdFlag prefixes its
/// payload with an "id\n" header; the server echoes the id on the
/// response (same flag, same header) and stamps it into every log
/// line, the latency histograms' exemplars, and the slow-log entry
/// with its request-scoped span tree (parse → solve → respond).
/// Unflagged frames round-trip bit-identically to the pre-id protocol.
class AdvisorServer {
 public:
  /// `service` is borrowed and must outlive the server.
  explicit AdvisorServer(AdvisorService* service)
      : service_(service),
        listener_([this](int fd) { ServeConnection(fd); }) {}
  ~AdvisorServer() { Shutdown(); }

  /// Binds, listens, and spawns the accept thread. Fails as
  /// Listener::Start() does: at most one successful Start(), never
  /// after a shutdown, and only for a port in [0, 65535].
  Status Start(const ListenOptions& options = {}) {
    return listener_.Start(options);
  }

  /// The bound port (the ephemeral port when options.port was 0); 0
  /// before Start().
  int port() const { return listener_.port(); }

  /// Blocks until the server has stopped (SHUTDOWN frame or
  /// Shutdown()) and every connection thread has been joined.
  void Wait() { listener_.Join(); }

  /// Stops accepting, cancels in-flight solves, unblocks connection
  /// reads, and joins every thread. Idempotent. Not from a connection
  /// handler: a handler stops the server with RequestStop().
  void Shutdown() {
    RequestStop();
    Wait();
  }

  /// The non-blocking half of Shutdown(): cancels solves, closes the
  /// listener, and unblocks connection reads — without joining
  /// anything, so it is safe from a connection handler and from a
  /// signal watcher while another thread sits in Wait().
  void RequestStop() {
    service_->CancelAll();
    listener_.Stop();
  }

  /// Connections still tracked by the listener. Exposed so tests can
  /// assert the set stays bounded across many sequential connections.
  size_t TrackedConnectionsForTest() { return listener_.TrackedConnections(); }

 private:
  /// The frame loop of one connection; returns when the client hangs
  /// up, a write fails, or a SHUTDOWN frame was served.
  void ServeConnection(int fd);

  AdvisorService* service_;
  Listener listener_;
};

}  // namespace cdpd

#endif  // CDPD_SERVER_ADVISOR_SERVER_H_

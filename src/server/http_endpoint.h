#ifndef CDPD_SERVER_HTTP_ENDPOINT_H_
#define CDPD_SERVER_HTTP_ENDPOINT_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.h"
#include "server/advisor_service.h"
#include "server/listener.h"

namespace cdpd {

/// One parsed HTTP request target and the response to send back —
/// separated from the connection handler so the routing logic is
/// unit-testable without a live listener.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// The advisor's observability plane: a minimal HTTP/1.0 server on its
/// own Listener (server/listener.h), in the same process as the
/// frame-protocol server (separate port), serving read-only views of
/// the AdvisorService:
///
///   GET /metrics   Prometheus text exposition of the live snapshot
///                  (counters, gauges, histogram summaries, exemplars).
///   GET /healthz   200 once the process serves — liveness.
///   GET /readyz    200 after the first INGEST left a non-empty window
///                  (the catalog is pinned at construction), else 503 —
///                  readiness for real traffic.
///   GET /varz      The metrics snapshot as JSON (StatsJson).
///   GET /slowlog   The slowest recorded requests, slowest first, with
///                  their span trees.
///   GET /trace?id=<request-id>
///                  One request's slow-log entry by id (recent ring
///                  first), 404 when the id has aged out.
///
/// One request per connection (Connection: close), one thread per
/// connection; request bodies are ignored and only GET is served. The
/// service is borrowed and must outlive the endpoint.
class HttpEndpoint {
 public:
  explicit HttpEndpoint(AdvisorService* service)
      : service_(service),
        listener_([this](int fd) { ServeConnection(fd); }) {}

  /// Binds, listens, and spawns the accept thread. Fails as
  /// Listener::Start() does.
  Status Start(const ListenOptions& options = {}) {
    return listener_.Start(options);
  }

  /// The bound port (the ephemeral port when options.port was 0); 0
  /// before Start().
  int port() const { return listener_.port(); }

  /// Stops accepting, unblocks in-flight connections, joins all
  /// threads. Idempotent.
  void Shutdown() {
    listener_.Stop();
    listener_.Join();
  }

  /// Connections still tracked (serving, or finished and awaiting the
  /// accept loop's next reap). Exposed so tests can assert the set
  /// stays bounded across many sequential requests.
  size_t TrackedConnectionsForTest() { return listener_.TrackedConnections(); }

  /// Pure routing: maps a request target ("/metrics",
  /// "/trace?id=abc") to the response the handler would send.
  /// Exposed for tests.
  HttpResponse Route(std::string_view target);

 private:
  /// Reads one request's headers, routes its target, and writes the
  /// response; the listener then closes the connection.
  void ServeConnection(int fd);

  AdvisorService* service_;
  Listener listener_;
};

}  // namespace cdpd

#endif  // CDPD_SERVER_HTTP_ENDPOINT_H_

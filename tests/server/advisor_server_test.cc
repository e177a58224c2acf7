// AdvisorServer end to end: real TCP on a loopback ephemeral port,
// real AdvisorClient connections. Covers the transport lifecycle
// (start / serve / client-driven shutdown), concurrent clients, and
// error mapping across the wire (a server-side Status comes back as
// the same code with the same message).

#include "server/advisor_server.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"

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

std::string TestTrace() {
  return "SELECT a FROM t WHERE a = 1;\n"
         "SELECT b FROM t WHERE b = 2;\n"
         "UPDATE t SET c = 3 WHERE d = 4;\n"
         "SELECT c FROM t WHERE d = 5;\n"
         "SELECT d FROM t WHERE b = 6;\n";
}

TEST(AdvisorServerTest, ServesTheFullOpSetOverTcp) {
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  AdvisorClient client =
      AdvisorClient::Connect("127.0.0.1", server.port()).value();
  EXPECT_TRUE(client.Ping().ok());

  const std::string ack = client.Ingest(TestTrace()).value();
  EXPECT_NE(ack.find("\"accepted\":5"), std::string::npos) << ack;

  const std::string priced = client.WhatIf("a").value();
  EXPECT_NE(priced.find("\"exec_cost\""), std::string::npos) << priced;

  const std::string recommended = client.Recommend("k=2\nmethod=optimal")
                                      .value();
  EXPECT_NE(recommended.find("\"schedule\""), std::string::npos)
      << recommended;
  EXPECT_NE(recommended.find("\"total_cost\""), std::string::npos);

  const std::string stats = client.Stats().value();
  EXPECT_NE(stats.find("\"counters\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("server.requests"), std::string::npos) << stats;

  // Client-driven shutdown: acked, then the server stops and Wait()
  // returns.
  EXPECT_TRUE(client.Shutdown().ok());
  server.Wait();
  EXPECT_FALSE(AdvisorClient::Connect("127.0.0.1", server.port()).ok());
}

TEST(AdvisorServerTest, ServerSideErrorsCrossTheWireWithCodeAndMessage) {
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  AdvisorClient client =
      AdvisorClient::Connect("127.0.0.1", server.port()).value();

  // Unknown opcode.
  const auto bad_op = client.Call(static_cast<ServerOp>(99), "");
  ASSERT_FALSE(bad_op.ok());
  EXPECT_EQ(bad_op.status().code(), StatusCode::kInvalidArgument);

  // A connection survives an error reply: the same client keeps going.
  EXPECT_TRUE(client.Ping().ok());

  // Recommend on an empty window.
  const auto empty_window = client.Recommend("");
  ASSERT_FALSE(empty_window.ok());
  EXPECT_EQ(empty_window.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(empty_window.status().message().find("INGEST"),
            std::string::npos)
      << empty_window.status().ToString();

  // Malformed payloads: a bad config spec (the schema lookup's
  // NotFound survives the wire) and a bad request line.
  EXPECT_EQ(client.WhatIf("nosuchcolumn").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Recommend("k=two").status().code(),
            StatusCode::kInvalidArgument);

  server.Shutdown();
  server.Wait();
}

TEST(AdvisorServerTest, ConcurrentClientsShareOneResidentService) {
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  {
    AdvisorClient seeder =
        AdvisorClient::Connect("127.0.0.1", server.port()).value();
    ASSERT_TRUE(seeder.Ingest(TestTrace()).ok());
  }

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> failures{0};
  std::vector<std::string> recommendations(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto connected = AdvisorClient::Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures.fetch_add(1);
        return;
      }
      AdvisorClient client = std::move(connected).value();
      for (int r = 0; r < kRequestsPerClient; ++r) {
        Result<std::string> reply =
            (r % 2 == 0) ? client.WhatIf("a") : client.Recommend("k=2");
        if (!reply.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (r % 2 == 1) recommendations[c] = std::move(reply).value();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  // Same window, same options: every client saw the same answer (the
  // resident solution plus determinism make this exact).
  for (int c = 1; c < kClients; ++c) {
    std::string left = recommendations[0];
    std::string right = recommendations[c];
    // reused_resident differs between the first solver and the reusers;
    // normalize it away before comparing.
    const std::string cold = "\"reused_resident\":false";
    const std::string warm = "\"reused_resident\":true";
    size_t pos;
    while ((pos = left.find(warm)) != std::string::npos) {
      left.replace(pos, warm.size(), cold);
    }
    while ((pos = right.find(warm)) != std::string::npos) {
      right.replace(pos, warm.size(), cold);
    }
    // wall_seconds and stats vary per call; compare the schedule slice.
    const size_t ls = left.find("\"schedule\"");
    const size_t rs = right.find("\"schedule\"");
    ASSERT_NE(ls, std::string::npos);
    ASSERT_NE(rs, std::string::npos);
    const size_t le = left.find("]", ls);
    const size_t re = right.find("]", rs);
    EXPECT_EQ(left.substr(ls, le - ls), right.substr(rs, re - rs));
  }

  // The request counter saw every exchange (seeder connect + ingest,
  // then kClients * kRequestsPerClient ops).
  const MetricsSnapshot snapshot = service.registry()->Snapshot();
  EXPECT_GE(snapshot.CounterValue("server.requests"),
            int64_t{kClients} * kRequestsPerClient + 1);
  EXPECT_EQ(snapshot.CounterValue("server.request_errors"), 0);

  server.Shutdown();
  server.Wait();
}

TEST(AdvisorServerTest, RequestIdsRoundTripIntoSlowLogAndTraces) {
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  AdvisorClient client =
      AdvisorClient::Connect("127.0.0.1", server.port()).value();

  // Default: every call carries a generated id the server echoes.
  ASSERT_TRUE(client.Ingest(TestTrace()).ok());
  EXPECT_FALSE(client.last_request_id().empty());

  // A caller-supplied id resolves server-side with the span tree.
  client.set_next_request_id("trace-me-1");
  ASSERT_TRUE(client.Recommend("k=2\nmethod=optimal").ok());
  EXPECT_EQ(client.last_request_id(), "trace-me-1");
  // Metrics and the slow-log entry are recorded after the response
  // write; a follow-up request on the same connection serializes past
  // that (the per-connection loop is strictly sequential).
  ASSERT_TRUE(client.Ping().ok());
  const auto entry = service.slow_log()->Find("trace-me-1");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->op, "recommend");
  EXPECT_EQ(entry->wire_status, 0);
  EXPECT_GT(entry->duration_us, 0);
  bool saw_parse = false, saw_solve = false, saw_respond = false;
  for (const Tracer::Event& span : entry->spans) {
    const std::string_view name = span.name;
    saw_parse |= name == "request.parse";
    saw_solve |= name == "request.solve";
    saw_respond |= name == "request.respond";
  }
  EXPECT_TRUE(saw_parse);
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_respond);

  // The override is one-shot: the next call generates again.
  ASSERT_TRUE(client.WhatIf("a").ok());
  EXPECT_NE(client.last_request_id(), "trace-me-1");
  const std::string whatif_id = client.last_request_id();
  ASSERT_TRUE(client.Ping().ok());  // Serialize past the record.
  EXPECT_TRUE(service.slow_log()->Find(whatif_id).has_value());

  // Error replies echo the id too, and land in the slow log with the
  // wire status.
  client.set_next_request_id("trace-err-1");
  EXPECT_FALSE(client.Recommend("k=two").ok());
  EXPECT_EQ(client.last_request_id(), "trace-err-1");
  ASSERT_TRUE(client.Ping().ok());  // Serialize past the record.
  const auto err_entry = service.slow_log()->Find("trace-err-1");
  ASSERT_TRUE(err_entry.has_value());
  EXPECT_NE(err_entry->wire_status, 0);

  // An invalid caller id fails client-side before hitting the wire.
  client.set_next_request_id("bad id with spaces");
  EXPECT_FALSE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());  // Connection still healthy.

  // The histograms carry the latest *traced* id as their exemplar —
  // the pings that interleaved above must not overwrite it with an id
  // /trace?id= would 404 on. The last traced request was trace-err-1.
  const MetricsSnapshot snapshot = service.registry()->Snapshot();
  const auto it = snapshot.histograms.find("server.request_us");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_EQ(it->second.exemplar_id, "trace-err-1");
  EXPECT_GT(snapshot.histograms.at("server.op_us.recommend").count, 0);

  server.Shutdown();
  server.Wait();
}

TEST(AdvisorServerTest, UntracedOpsLeaveNoExemplar) {
  // Pings and stats polls never enter the slow log, so they must not
  // advertise their ids as exemplars either — every exemplar the
  // exposition shows has to resolve via /trace?id=.
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  AdvisorClient client =
      AdvisorClient::Connect("127.0.0.1", server.port()).value();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Stats().ok());
  ASSERT_TRUE(client.Ping().ok());  // Serialize past the stats record.

  // The last ping's own record may still be in flight (it commits
  // after the response write); the first two ops are guaranteed in.
  const MetricsSnapshot snapshot = service.registry()->Snapshot();
  const auto latency = snapshot.histograms.find("server.request_us");
  ASSERT_NE(latency, snapshot.histograms.end());
  EXPECT_GE(latency->second.count, 2);
  EXPECT_TRUE(latency->second.exemplar_id.empty());
  const auto ping = snapshot.histograms.find("server.op_us.ping");
  ASSERT_NE(ping, snapshot.histograms.end());
  EXPECT_TRUE(ping->second.exemplar_id.empty());

  server.Shutdown();
  server.Wait();
}

TEST(AdvisorServerTest, UnflaggedFramesRoundTripBitIdentically) {
  // A pre-request-id client: hand-built frames, no flag bit. The
  // response bytes must be exactly what the old protocol produced —
  // same tag byte, no id header in the payload.
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  AdvisorClient raw =
      AdvisorClient::Connect("127.0.0.1", server.port()).value();
  raw.set_request_ids_enabled(false);

  // PING: empty payload both ways, tag byte exactly 0.
  ASSERT_TRUE(raw.Ping().ok());
  EXPECT_TRUE(raw.last_request_id().empty());

  // Cross-check at the frame level on a second connection.
  {
    AdvisorClient probe =
        AdvisorClient::Connect("127.0.0.1", server.port()).value();
    probe.set_request_ids_enabled(false);
    ASSERT_TRUE(probe.Ingest(TestTrace()).ok());
    const Result<std::string> ack = probe.Ingest(TestTrace());
    ASSERT_TRUE(ack.ok());
    // JSON body starts immediately — no "id\n" prefix.
    EXPECT_EQ(ack->front(), '{');
  }

  // Mixed traffic on one server: flagged and unflagged clients
  // interleave without confusing each other.
  AdvisorClient flagged =
      AdvisorClient::Connect("127.0.0.1", server.port()).value();
  ASSERT_TRUE(flagged.WhatIf("a").ok());
  EXPECT_FALSE(flagged.last_request_id().empty());
  ASSERT_TRUE(raw.WhatIf("a").ok());
  EXPECT_TRUE(raw.last_request_id().empty());

  // The same logical answer comes back on both paths.
  const std::string with_id = flagged.WhatIf("c,d").value();
  const std::string without_id = raw.WhatIf("c,d").value();
  EXPECT_EQ(with_id, without_id);

  server.Shutdown();
  server.Wait();
}

TEST(AdvisorServerTest, ShutdownIsIdempotentAndWaitReturns) {
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
  server.Shutdown();  // second call is a no-op
  server.Wait();      // returns immediately once stopped
}

TEST(AdvisorServerTest, FinishedConnectionThreadsAreReapedDuringOperation) {
  // The frame-plane twin of the HTTP reaping test: a server that sees
  // many short client sessions must not keep one unjoined thread per
  // past connection.
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  size_t max_tracked = 0;
  for (int i = 0; i < 200; ++i) {
    AdvisorClient client =
        AdvisorClient::Connect("127.0.0.1", server.port()).value();
    ASSERT_TRUE(client.Ping().ok());
    max_tracked = std::max(max_tracked, server.TrackedConnectionsForTest());
  }
  EXPECT_LE(max_tracked, 16u);
  server.Shutdown();
  EXPECT_EQ(server.TrackedConnectionsForTest(), 0u);
}

}  // namespace
}  // namespace cdpd

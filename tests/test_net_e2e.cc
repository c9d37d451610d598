// End-to-end tests for the TCP serving stack: a real loopback server
// in front of a QueryService, exercised by real client connections.
// The core assertion is transport transparency — results over the
// wire are bit-identical to in-process QueryService::Execute — plus
// the failure modes a network layer must survive: abrupt disconnects
// mid-query, malformed frames from live sockets, connection-limit
// refusals, and graceful drain with statements in flight.
#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/synchronization.h"
#include "net/client.h"
#include "net/protocol.h"
#include "service/query_service.h"

namespace mosaic {
namespace service {

/// Reaches the catalog lock, so a test can play a writer holding it.
class QueryServiceTestPeer {
 public:
  static SharedMutex& CatalogMutex(QueryService* service) {
    return service->catalog_mu_;
  }
};

}  // namespace service

namespace net {
namespace {

/// Cheap training budget so OPEN queries stay fast in tests.
void UseTinyOpenOptions(core::Database* db) {
  auto* open = db->mutable_open_options();
  open->mswg.epochs = 2;
  open->mswg.steps_per_epoch = 4;
  open->mswg.batch_size = 32;
  open->mswg.num_projections = 16;
  open->mswg.projections_per_step = 4;
  open->mswg.hidden_layers = 1;
  open->mswg.hidden_nodes = 8;
  open->generated_rows = 64;
  open->num_generated_samples = 3;
}

void SetUpTinyWorld(core::Database* db) {
  auto ok = [db](const std::string& sql) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  ok("CREATE GLOBAL POPULATION Things (color VARCHAR, size VARCHAR)");
  ok("CREATE TABLE ColorReport (color VARCHAR, cnt INT)");
  ok("INSERT INTO ColorReport VALUES ('red', 60), ('blue', 40)");
  ok("CREATE TABLE SizeReport (size VARCHAR, cnt INT)");
  ok("INSERT INTO SizeReport VALUES ('S', 50), ('L', 50)");
  ok("CREATE METADATA Things_M1 AS (SELECT color, cnt FROM ColorReport)");
  ok("CREATE METADATA Things_M2 AS (SELECT size, cnt FROM SizeReport)");
  ok("CREATE SAMPLE RedSample AS (SELECT * FROM Things WHERE color = "
     "'red')");
  ok("INSERT INTO RedSample VALUES ('red','S'), ('red','S'), ('red','S'), "
     "('red','S'), ('red','S'), ('red','S'), ('red','L'), ('red','L')");
  UseTinyOpenOptions(db);
}

::testing::AssertionResult TablesEqual(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return ::testing::AssertionFailure() << "schemas differ";
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.num_rows() << " vs "
           << b.num_rows();
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      if (!(a.GetValue(r, c) == b.GetValue(r, c))) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c
               << ") differs: " << a.GetValue(r, c).ToString() << " vs "
               << b.GetValue(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The mixed CLOSED / SEMI-OPEN / OPEN workload from the service
/// tests, now crossing a socket.
const std::vector<std::string>& MixedWorkload() {
  static const std::vector<std::string> queries = {
      "SELECT CLOSED color, COUNT(*) AS c FROM Things GROUP BY color",
      "SELECT CLOSED COUNT(*) AS c FROM Things",
      "SELECT SEMI-OPEN COUNT(*) AS c FROM Things",
      "SELECT SEMI-OPEN size, COUNT(*) AS c FROM Things GROUP BY size "
      "ORDER BY size",
      "SELECT OPEN color, COUNT(*) AS c FROM Things GROUP BY color "
      "ORDER BY color",
      "SHOW SAMPLES",
  };
  return queries;
}

class NetE2ETest : public ::testing::Test {
 protected:
  // Service and server counts are per process; each case starts from
  // zero.
  void SetUp() override { metrics::Registry::Global().ResetForTesting(); }

  void StartServer(ServerOptions server_opts = ServerOptions()) {
    service::ServiceOptions opts;
    opts.num_request_threads = 4;
    opts.num_generation_threads = 2;
    service_ = std::make_unique<service::QueryService>(opts);
    SetUpTinyWorld(service_->database());
    server_opts.port = 0;
    server_ = std::make_unique<Server>(service_.get(), server_opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    Client client;
    ClientOptions copts;
    copts.port = server_->port();
    EXPECT_TRUE(client.Connect(copts).ok());
    return client;
  }

  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------------------------------------------
// Bit-identical results across the wire, concurrently
// ---------------------------------------------------------------------------

TEST_F(NetE2ETest, ConcurrentClientsMatchInProcessExecuteBitForBit) {
  StartServer();
  // Ground truth from a single-threaded engine with identical options.
  core::Database reference;
  SetUpTinyWorld(&reference);
  std::map<std::string, Table> truth;
  for (const auto& q : MixedWorkload()) {
    auto r = reference.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status().ToString();
    truth.emplace(q, std::move(r).value());
  }

  constexpr int kClients = 5;
  constexpr int kPerClient = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  const uint16_t port = server_->port();
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([t, port, &truth, &mismatches, &failures] {
      Client client;
      ClientOptions copts;
      copts.port = port;
      if (!client.Connect(copts).ok()) {
        failures += kPerClient;
        return;
      }
      const auto& queries = MixedWorkload();
      for (int i = 0; i < kPerClient; ++i) {
        const std::string& q = queries[(t + i) % queries.size()];
        auto r = client.Query(q);
        if (!r.ok()) {
          ++failures;
        } else if (!TablesEqual(*r, truth.at(q))) {
          ++mismatches;
        }
      }
      (void)client.Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Verify content equality from a fresh connection (after the
  // concurrent phase, results must still be the deterministic truth).
  Client client = Connect();
  for (const auto& q : MixedWorkload()) {
    auto viaWire = client.Query(q);
    ASSERT_TRUE(viaWire.ok()) << q << " -> " << viaWire.status().ToString();
    auto inProcess = service_->Execute(q);
    ASSERT_TRUE(inProcess.ok());
    EXPECT_TRUE(TablesEqual(*viaWire, *inProcess)) << q;
    EXPECT_TRUE(TablesEqual(*viaWire, truth.at(q))) << q;
  }
  ASSERT_TRUE(client.Close().ok());
}

TEST_F(NetE2ETest, BatchFansOutAndPreservesOrderAndErrors) {
  StartServer();
  Client client = Connect();
  std::vector<std::string> sqls = MixedWorkload();
  sqls.insert(sqls.begin() + 2, "SELECT FROM nowhere");  // parse error
  auto outcomes = client.Batch(sqls);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE((*outcomes)[i].ok());
      continue;
    }
    ASSERT_TRUE((*outcomes)[i].ok()) << sqls[i];
    auto expected = service_->Execute(sqls[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(TablesEqual((*outcomes)[i].table, *expected)) << sqls[i];
  }
  ASSERT_TRUE(client.Close().ok());
}

TEST_F(NetE2ETest, StatsReflectSessionsAndStatementErrors) {
  StartServer();
  Client client = Connect();
  EXPECT_GT(client.session_id(), 0u);
  // A statement error is an in-band failed result, not a dead socket.
  auto bad = client.Query("SELECT FROM nowhere");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(client.connected());
  auto good = client.Query("SELECT CLOSED COUNT(*) AS c FROM Things");
  ASSERT_TRUE(good.ok()) << good.status().ToString();

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->queries_total, 2u);
  EXPECT_GE(stats->queries_failed, 1u);
  EXPECT_GE(stats->sessions_opened, 1u);
  EXPECT_EQ(stats->connections_active, 1u);
  ASSERT_TRUE(client.Close().ok());

  // Session closure is reflected after the connection goes away.
  for (int i = 0; i < 50; ++i) {
    if (service_->Stats().sessions_closed >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(service_->Stats().sessions_closed, 1u);
}

/// The value on the `name` sample line of a Prometheus page, and the
/// type its `# TYPE` line declares; nullopt when either is missing.
std::optional<std::pair<std::string, std::string>> PrometheusSample(
    const std::string& page, const std::string& name) {
  const std::string type_prefix = "# TYPE " + name + " ";
  std::string type, value;
  std::istringstream lines(page);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(type_prefix, 0) == 0) {
      type = line.substr(type_prefix.size());
    } else if (line.rfind(name + " ", 0) == 0) {
      value = line.substr(name.size() + 1);
    }
  }
  if (type.empty() || value.empty()) return std::nullopt;
  return std::make_pair(type, value);
}

TEST_F(NetE2ETest, EveryStatsFieldAgreesAcrossAllRenderers) {
  StartServer();
  {
    Client first = Connect();
    ASSERT_TRUE(first.Query("SELECT CLOSED COUNT(*) AS c FROM Things").ok());
    EXPECT_FALSE(first.Query("SELECT FROM nowhere").ok());
    ASSERT_TRUE(
        first.Query("SELECT SEMI-OPEN COUNT(*) AS c FROM Things").ok());
    ASSERT_TRUE(first.Close().ok());
  }
  for (int i = 0; i < 100 && service_->Stats().sessions_closed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Client client = Connect();
  auto wire = client.Stats();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  // Read everything else without moving a service counter: the
  // database's own Execute bypasses the service.
  auto& registry = metrics::Registry::Global();
  const auto counters = registry.CounterValues();
  const auto gauges = registry.GaugeValues();
  const std::string page = registry.RenderPrometheus();
  auto listed = service_->database()->Execute("SELECT * FROM system.metrics");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  std::map<std::string, double> rows;
  for (size_t r = 0; r < listed->num_rows(); ++r) {
    rows[listed->GetValue(r, 0).AsString()] =
        listed->GetValue(r, 1).AsDouble();
  }

  for (const StatsField& f : kStatsFields) {
    SCOPED_TRACE(f.name);
    const std::string name = "mosaic_" + std::string(f.name);
    const bool is_counter = f.kind == StatsField::kCounter;
    ASSERT_EQ(counters.count(name), is_counter ? 1u : 0u);
    ASSERT_EQ(gauges.count(name), is_counter ? 0u : 1u);
    const uint64_t in_registry =
        is_counter ? counters.at(name)
                   : static_cast<uint64_t>(gauges.at(name));
    // The STATS reply went out after its snapshot was taken.
    const uint64_t own_frames = std::string(f.name) == "frames_sent" ? 1 : 0;
    EXPECT_EQ(in_registry, (*wire).*f.member + own_frames);

    auto sample = PrometheusSample(page, name);
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(sample->first, is_counter ? "counter" : "gauge");
    EXPECT_EQ(sample->second, std::to_string(in_registry));
    EXPECT_NE(page.find("# HELP " + name + " "), std::string::npos);

    ASSERT_EQ(rows.count(name), 1u);
    EXPECT_EQ(rows.at(name), static_cast<double>(in_registry));
  }

  // The workload moved what it should have.
  EXPECT_EQ(wire->queries_total, 3u);
  EXPECT_EQ(wire->queries_failed, 1u);
  EXPECT_EQ(wire->sessions_opened, 2u);
  EXPECT_EQ(wire->sessions_closed, 1u);
  EXPECT_EQ(wire->connections_opened, 2u);
  EXPECT_EQ(wire->connections_closed, 1u);
  EXPECT_EQ(wire->connections_active, 1u);
  EXPECT_GE(wire->weight_refits_total, 1u);
  EXPECT_GE(wire->weight_epochs_published, 1u);
  ASSERT_TRUE(client.Close().ok());
}

// ---------------------------------------------------------------------------
// Hostile / unlucky clients
// ---------------------------------------------------------------------------

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void RawSend(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

/// Read frames until one arrives, EOF, or a short timeout.
Result<Frame> RawReadFrame(int fd) {
  FrameReader reader;
  char buf[4096];
  while (true) {
    Frame frame;
    auto got = reader.Next(&frame);
    if (!got.ok()) return got.status();
    if (*got) return frame;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return Status::IOError("eof");
    reader.Feed(buf, static_cast<size_t>(n));
  }
}

TEST_F(NetE2ETest, ServerSurvivesAbruptDisconnectMidQuery) {
  StartServer();
  for (int round = 0; round < 3; ++round) {
    const int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    RawSend(fd, EncodeFrame(MessageType::kHello,
                            EncodeHelloRequest({kProtocolVersion, "rude"})));
    auto hello = RawReadFrame(fd);
    ASSERT_TRUE(hello.ok());
    ASSERT_EQ(hello->type, MessageType::kHelloOk);
    // Fire an OPEN query (slow: trains a generator) and hang up
    // without reading the reply.
    RawSend(fd, EncodeFrame(
                    MessageType::kQuery,
                    EncodeQueryRequest(
                        "SELECT OPEN COUNT(*) AS c FROM Things")));
    ::close(fd);
  }
  // The server must still serve new clients correctly.
  Client client = Connect();
  auto r = client.Query("SELECT CLOSED COUNT(*) AS c FROM Things");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 8);
  ASSERT_TRUE(client.Close().ok());
}

TEST_F(NetE2ETest, MalformedFramesGetErrorReplyAndClose) {
  StartServer();
  {
    // Oversized length prefix.
    const int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    std::string evil(8, '\0');
    const uint32_t huge = kMaxFrameBytes + 7;
    std::memcpy(evil.data(), &huge, 4);
    RawSend(fd, evil);
    auto reply = RawReadFrame(fd);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MessageType::kError);
    // Connection is closed afterwards.
    auto next = RawReadFrame(fd);
    EXPECT_FALSE(next.ok());
    ::close(fd);
  }
  {
    // QUERY before HELLO.
    const int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    RawSend(fd, EncodeFrame(MessageType::kQuery,
                            EncodeQueryRequest("SELECT 1")));
    auto reply = RawReadFrame(fd);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MessageType::kError);
    ::close(fd);
  }
  {
    // Unknown message tag.
    const int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    RawSend(fd, EncodeFrame(MessageType::kHello,
                            EncodeHelloRequest({kProtocolVersion, "x"})));
    auto hello = RawReadFrame(fd);
    ASSERT_TRUE(hello.ok());
    RawSend(fd, EncodeFrame(static_cast<MessageType>(0x42), "junk"));
    auto reply = RawReadFrame(fd);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MessageType::kError);
    ::close(fd);
  }
  EXPECT_GE(server_->stats().protocol_errors, 3u);
  // And the server still works.
  Client client = Connect();
  EXPECT_TRUE(client.Query("SELECT CLOSED COUNT(*) AS c FROM Things").ok());
  ASSERT_TRUE(client.Close().ok());
}

TEST_F(NetE2ETest, VersionMismatchIsRefused) {
  StartServer();
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  RawSend(fd, EncodeFrame(MessageType::kHello,
                          EncodeHelloRequest({kProtocolVersion + 1, "old"})));
  auto reply = RawReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MessageType::kError);
  ::close(fd);
}

TEST_F(NetE2ETest, ConnectionLimitRefusesExtraClients) {
  ServerOptions opts;
  opts.max_connections = 2;
  StartServer(opts);
  Client a = Connect();
  Client b = Connect();
  Client c;
  ClientOptions copts;
  copts.port = server_->port();
  Status refused = c.Connect(copts);
  EXPECT_FALSE(refused.ok());
  EXPECT_GE(server_->stats().connections_rejected, 1u);
  ASSERT_TRUE(a.Close().ok());
  ASSERT_TRUE(b.Close().ok());
  // Capacity freed: a new client fits again.
  for (int i = 0; i < 100; ++i) {
    if (server_->stats().connections_active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Client d;
  EXPECT_TRUE(d.Connect(copts).ok());
  (void)d.Close();
}

// ---------------------------------------------------------------------------
// Trace propagation across the wire (protocol minor 2)
// ---------------------------------------------------------------------------

TEST_F(NetE2ETest, RemoteExplainAnalyzeCarriesClientTraceId) {
  StartServer();
  Client client = Connect();
  EXPECT_GE(client.server_minor_version(), 2u);

  TraceContext ctx;
  ctx.trace_id = 0x4242deadbeef4242ull;
  ctx.sampled = true;
  auto r = client.Query(
      "EXPLAIN ANALYZE SELECT CLOSED color, COUNT(*) AS c FROM Things "
      "GROUP BY color",
      ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The reply is the server-side span tree: (span, start_us,
  // duration_us, detail) with the client's trace id stamped on the
  // statement span's detail.
  ASSERT_GE(r->num_columns(), 4u);
  EXPECT_EQ(r->schema().columns()[0].name, "span");
  ASSERT_GT(r->num_rows(), 1u) << "expected more than a root span";
  bool found = false;
  for (size_t row = 0; row < r->num_rows(); ++row) {
    if (r->GetValue(row, 3).AsString().find("trace_id=4242deadbeef4242") !=
        std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "client trace_id missing from server span tree";
  ASSERT_TRUE(client.Close().ok());
}

TEST_F(NetE2ETest, SampledQueriesLandInSystemQueriesWithTheirTraceId) {
  StartServer();
  Client client = Connect();
  TraceContext ctx;
  ctx.trace_id = 0x0123456789abcdefull;
  ctx.sampled = true;
  auto r = client.Query("SELECT CLOSED COUNT(*) AS c FROM Things", ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The query log is queryable over the same wire: find our statement
  // by trace id and check its accounting columns.
  auto log = client.Query(
      "SELECT sql, status, wall_us FROM system.queries "
      "WHERE span = 'statement' AND trace_id = '0123456789abcdef'");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->num_rows(), 1u);
  EXPECT_EQ(log->GetValue(0, 0).AsString(),
            "SELECT CLOSED COUNT(*) AS c FROM Things");
  EXPECT_EQ(log->GetValue(0, 1).AsString(), "OK");
  EXPECT_GT(log->GetValue(0, 2).AsInt64(), 0);

  // system.connections sees this live connection and its session.
  auto conns = client.Query(
      "SELECT conn_id, session_id FROM system.connections");
  ASSERT_TRUE(conns.ok()) << conns.status().ToString();
  EXPECT_GE(conns->num_rows(), 1u);
  ASSERT_TRUE(client.Close().ok());
}

TEST_F(NetE2ETest, LegacyClientWithoutTraceTailStillServed) {
  StartServer();
  // A minor-<2 client: raw socket, legacy QUERY payload (no trace
  // context tail). The server must treat it as untraced and reply
  // normally.
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  RawSend(fd, EncodeFrame(MessageType::kHello,
                          EncodeHelloRequest({kProtocolVersion, "legacy"})));
  auto hello = RawReadFrame(fd);
  ASSERT_TRUE(hello.ok());
  ASSERT_EQ(hello->type, MessageType::kHelloOk);
  RawSend(fd, EncodeFrame(MessageType::kQuery,
                          EncodeQueryRequest(std::string(
                              "SELECT CLOSED COUNT(*) AS c FROM Things"))));
  auto reply = RawReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MessageType::kResult);
  auto outcome = DecodeResultReply(reply->payload);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->ok()) << outcome->status.ToString();
  EXPECT_EQ(outcome->table.GetValue(0, 0).AsInt64(), 8);

  // A torn trace tail (legacy payload + garbage shorter than a full
  // context) is a protocol error, answered in-band.
  RawSend(fd,
          EncodeFrame(MessageType::kQuery,
                      EncodeQueryRequest(std::string("SELECT 1")) +
                          std::string(5, '\x01')));
  auto err = RawReadFrame(fd);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->type == MessageType::kError ||
              err->type == MessageType::kResult);
  if (err->type == MessageType::kResult) {
    auto torn = DecodeResultReply(err->payload);
    ASSERT_TRUE(torn.ok());
    EXPECT_FALSE(torn->ok());
  }
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Pipelining: inline cache hits, pooled misses, one reply order
// ---------------------------------------------------------------------------

/// A raw connection past the HELLO handshake, reading with one frame
/// reader so pipelined replies are never dropped between calls.
class RawSession {
 public:
  explicit RawSession(uint16_t port) : fd_(RawConnect(port)) {
    RawSend(fd_, EncodeFrame(MessageType::kHello,
                             EncodeHelloRequest({kProtocolVersion, "raw"})));
    auto hello = Next();
    ok_ = hello.ok() && hello->type == MessageType::kHelloOk;
  }
  ~RawSession() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0 && ok_; }

  /// Every statement as its own QUERY frame, all in one send.
  void SendQueries(const std::vector<std::string>& sqls) {
    std::string bytes;
    for (const std::string& sql : sqls) {
      bytes += EncodeFrame(MessageType::kQuery, EncodeQueryRequest(sql));
    }
    RawSend(fd_, bytes);
  }

  Result<Frame> Next() {
    char buf[4096];
    while (true) {
      Frame frame;
      auto got = reader_.Next(&frame);
      if (!got.ok()) return got.status();
      if (*got) return frame;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return Status::IOError("eof");
      reader_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// Whether any reply byte is waiting right now.
  bool ReplyWaiting() {
    pollfd p{fd_, POLLIN, 0};
    return reader_.buffered() > 0 || ::poll(&p, 1, 0) > 0;
  }

 private:
  int fd_;
  bool ok_ = false;
  FrameReader reader_;
};

/// The RESULT payload a server sends for `result`.
std::string ResultPayload(const Result<Table>& result) {
  QueryOutcome outcome;
  if (result.ok()) {
    outcome.table = *result;
  } else {
    outcome.status = result.status();
  }
  return EncodeResultReply(outcome);
}

TEST_F(NetE2ETest, PipelineDepthIsBoundedPerFrameNotPerWakeup) {
  ServerOptions opts;
  opts.max_inflight_per_connection = 4;
  StartServer(opts);
  RawSession raw(server_->port());
  ASSERT_TRUE(raw.ok());
  // 64 distinct statements, so every one misses the result cache and
  // waits on the request pool.
  constexpr int kFrames = 64;
  std::vector<std::string> sqls;
  for (int i = 0; i < kFrames; ++i) {
    sqls.push_back("SELECT CLOSED COUNT(*) AS c" + std::to_string(i) +
                   " FROM Things");
  }
  raw.SendQueries(sqls);
  for (int i = 0; i < kFrames; ++i) {
    auto frame = raw.Next();
    ASSERT_TRUE(frame.ok()) << i << ": " << frame.status().ToString();
    ASSERT_EQ(frame->type, MessageType::kResult);
    auto outcome = DecodeResultReply(frame->payload);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->ok()) << outcome->status.ToString();
    EXPECT_EQ(outcome->table.schema().columns()[0].name,
              "c" + std::to_string(i));
  }
  EXPECT_LE(server_->stats().inflight_highwater, 4u);
  EXPECT_GE(server_->stats().inflight_highwater, 1u);
}

TEST_F(NetE2ETest, PipelinedHitsAndMissesKeepOrderAndAccounting) {
  const std::string hit =
      "SELECT CLOSED color, COUNT(*) AS c FROM Things GROUP BY color";
  const std::string semi_open = "SELECT SEMI-OPEN COUNT(*) AS c FROM Things";
  const std::string closed = "SELECT CLOSED COUNT(*) AS c FROM Things";
  // The warm-up, then [cold SEMI-OPEN miss, hit, hit, CLOSED miss, hit].
  const std::vector<std::string> stream = {hit,  semi_open, hit,
                                           hit, closed,    hit};
  const std::vector<std::string> pipelined(stream.begin() + 1, stream.end());

  // The same stream through Session::Execute on an identical service:
  // the reference bytes and the reference counts.
  std::vector<std::string> expected;
  service::ServiceStats ref_delta;
  uint64_t ref_submitted = 0;
  {
    service::ServiceOptions opts;
    opts.num_request_threads = 4;
    opts.num_generation_threads = 2;
    service::QueryService reference(opts);
    SetUpTinyWorld(reference.database());
    const service::ServiceStats before = reference.Stats();
    service::Session session = reference.OpenSession();
    for (const std::string& sql : stream) {
      expected.push_back(ResultPayload(session.Execute(sql)));
    }
    const service::ServiceStats after = reference.Stats();
    ref_delta.queries_total = after.queries_total - before.queries_total;
    ref_delta.reads = after.reads - before.reads;
    ref_delta.result_cache.hits =
        after.result_cache.hits - before.result_cache.hits;
    ref_delta.result_cache.misses =
        after.result_cache.misses - before.result_cache.misses;
    ref_submitted = session.queries_submitted();
  }

  // Session ids restart with every service; the query log is global.
  qlog::QueryLog::Global().ResetForTesting();
  StartServer();
  const service::ServiceStats before = service_->Stats();
  RawSession raw(server_->port());
  ASSERT_TRUE(raw.ok());
  raw.SendQueries({hit});
  auto warm = raw.Next();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->payload, expected[0]);
  raw.SendQueries(pipelined);
  for (size_t i = 0; i < pipelined.size(); ++i) {
    auto frame = raw.Next();
    ASSERT_TRUE(frame.ok()) << i << ": " << frame.status().ToString();
    ASSERT_EQ(frame->type, MessageType::kResult);
    EXPECT_EQ(frame->payload, expected[i + 1]) << pipelined[i];
  }
  const service::ServiceStats after = service_->Stats();

  // Every cacheable statement is exactly one hit or one miss: a miss
  // probed off the pool is not looked up again there.
  EXPECT_EQ(after.result_cache.hits - before.result_cache.hits, 3u);
  EXPECT_EQ(after.result_cache.misses - before.result_cache.misses, 3u);
  EXPECT_EQ(after.result_cache.hits - before.result_cache.hits,
            ref_delta.result_cache.hits);
  EXPECT_EQ(after.result_cache.misses - before.result_cache.misses,
            ref_delta.result_cache.misses);
  EXPECT_EQ(after.queries_total - before.queries_total,
            ref_delta.queries_total);
  EXPECT_EQ(after.reads - before.reads, ref_delta.reads);
  EXPECT_EQ(ref_delta.queries_total, stream.size());

  // One system.queries record per statement, each with its cache
  // outcome; read through the engine so the reads move no counter.
  auto sessions = service_->database()->Execute(
      "SELECT session_id, queries_submitted FROM system.sessions");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  ASSERT_EQ(sessions->num_rows(), 1u);
  const int64_t session_id = sessions->GetValue(0, 0).AsInt64();
  EXPECT_EQ(static_cast<uint64_t>(sessions->GetValue(0, 1).AsInt64()),
            ref_submitted);
  auto log = service_->database()->Execute(
      "SELECT sql, cache_hit FROM system.queries WHERE span = 'statement' "
      "AND session_id = " +
      std::to_string(session_id));
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  std::map<std::string, std::multiset<int64_t>> outcomes;
  for (size_t r = 0; r < log->num_rows(); ++r) {
    outcomes[log->GetValue(r, 0).AsString()].insert(
        log->GetValue(r, 1).AsInt64());
  }
  const std::map<std::string, std::multiset<int64_t>> want = {
      {hit, {0, 1, 1, 1}}, {semi_open, {0}}, {closed, {0}}};
  EXPECT_EQ(outcomes, want);
}

TEST_F(NetE2ETest, RejectedTwinOfACachedStatementFailsOnThePollThreadPath) {
  StartServer();
  const std::string cached =
      "SELECT CLOSED COUNT(*) AS c FROM Things WHERE color = 'red'";
  const std::string twin =
      "SELECT CLOSED COUNT(*) AS c FROM Things; WHERE color = 'red'";
  Client client = Connect();
  ASSERT_TRUE(client.Query(cached).ok());
  auto again = client.Query(cached);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->GetValue(0, 0).AsInt64(), 8);
  ASSERT_EQ(service_->Stats().result_cache.hits, 1u);
  // The poll thread answers hits without a parse; the twin's inner
  // ';' keeps it off the cached answer, and the pool rejects it.
  auto rejected = client.Query(twin);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kParseError)
      << rejected.status().ToString();
  EXPECT_EQ(service_->Stats().result_cache.hits, 1u);
  ASSERT_TRUE(client.Close().ok());
}

TEST_F(NetE2ETest, WriterHoldingTheCatalogLockDoesNotStallThePollThread) {
  StartServer();
  const std::string sql = "SELECT CLOSED COUNT(*) AS c FROM Things";
  // Warm the result cache in process, leaving the server's pipeline
  // high-water mark at zero.
  auto before_write = service_->Execute(sql);
  ASSERT_TRUE(before_write.ok());
  ASSERT_EQ(before_write->GetValue(0, 0).AsInt64(), 8);
  ASSERT_EQ(server_->stats().inflight_highwater, 0u);

  RawSession reader(server_->port());
  ASSERT_TRUE(reader.ok());
  Client observer = Connect();
  {
    WriterLock writer(
        service::QueryServiceTestPeer::CatalogMutex(service_.get()));
    // A cache hit while a writer holds the lock: the poll thread may
    // not wait for it, so the statement goes to the pool and waits
    // there. STATS round trips keep completing meanwhile.
    reader.SendQueries({sql});
    bool pooled = false;
    for (int i = 0; i < 100000 && !pooled; ++i) {
      auto stats = observer.Stats();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      pooled = stats->inflight_highwater >= 1;
    }
    ASSERT_TRUE(pooled);
    EXPECT_FALSE(reader.ReplyWaiting());
    // The write this lock holder exists for: one more sample row.
    ASSERT_TRUE(service_->database()
                    ->Execute("INSERT INTO RedSample VALUES ('red','L')")
                    .ok());
  }
  auto frame = reader.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MessageType::kResult);
  auto after_write = service_->Execute(sql);
  ASSERT_TRUE(after_write.ok());
  EXPECT_EQ(after_write->GetValue(0, 0).AsInt64(), 9);
  EXPECT_EQ(frame->payload, ResultPayload(after_write));
  ASSERT_TRUE(observer.Close().ok());
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST_F(NetE2ETest, ShutdownDrainsInFlightQueries) {
  StartServer();
  core::Database reference;
  SetUpTinyWorld(&reference);
  std::map<std::string, Table> truth;
  for (const auto& q : MixedWorkload()) {
    auto r = reference.Execute(q);
    ASSERT_TRUE(r.ok());
    truth.emplace(q, std::move(r).value());
  }

  constexpr int kClients = 4;
  std::atomic<int> bad_results{0};
  std::atomic<int> ok_results{0};
  const uint16_t port = server_->port();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([t, port, &bad_results, &ok_results, &truth] {
      Client client;
      ClientOptions copts;
      copts.port = port;
      if (!client.Connect(copts).ok()) return;
      const auto& queries = MixedWorkload();
      for (int i = 0;; ++i) {
        const std::string& q = queries[(t + i) % queries.size()];
        auto r = client.Query(q);
        if (!r.ok()) {
          // Transport gone: acceptable once the drain begins. A
          // statement-level error would be a bug.
          if (client.connected()) ++bad_results;
          break;
        }
        // Every reply that does arrive must be complete and correct.
        if (!TablesEqual(*r, truth.at(q))) ++bad_results;
        ++ok_results;
      }
    });
  }
  // Let the clients get statements in flight, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server_->Shutdown();
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_results.load(), 0);
  EXPECT_GT(ok_results.load(), 0);
  // Drain closed every connection and session.
  EXPECT_EQ(server_->stats().connections_active, 0u);
  const auto svc = service_->Stats();
  EXPECT_EQ(svc.sessions_opened - svc.sessions_closed, 0u);
}

}  // namespace
}  // namespace net
}  // namespace mosaic

// TCP front end for the query service: a poll(2)-based accept loop
// that speaks the Mosaic wire protocol (net/protocol.h) and maps each
// connection onto one service::Session.
//
// Threading model
//   - One poll thread owns every socket: it accepts connections,
//     reassembles frames, and writes replies. It runs no statement
//     that could block: it only answers result-cache hits, through
//     Session::TryServeCached, which parses, stamps and looks up an
//     untraced SELECT/SHOW under a try-lock of the catalog lock and
//     never waits on it. A hit's reply is encoded straight from the
//     cached table and parked like any other.
//   - Everything else — misses, writes, EXPLAIN ANALYZE, traced or
//     sampled statements, and reads that meet a writer holding the
//     catalog lock — goes to the request pool via
//     Session::SubmitAsync, carrying whatever the probe prepared. The
//     sockets feed the same pool in-process callers share. Completion
//     callbacks encode the reply, park it in the connection's outbox,
//     and nudge the poll thread through a self-pipe.
//   - Requests may be pipelined: each gets a sequence number and
//     replies flush strictly in request order, whatever order they
//     are answered in. Frames are decoded one at a time while fewer
//     than max_inflight_per_connection replies are pending; the rest
//     wait in the frame reader, and the socket is not read, until
//     replies drain (backpressure instead of unbounded buffering).
//
// Lifecycle
//   - Abrupt client disconnects mid-query are safe: the connection
//     object is kept alive (a "zombie") until its last in-flight
//     callback has fired, and callbacks drop replies for closed
//     connections.
//   - Shutdown() drains gracefully: stop accepting, stop reading,
//     finish in-flight statements, flush outboxes, then close — with
//     a deadline (drain_timeout_ms) after which remaining
//     connections are cut. The destructor calls Shutdown().
#ifndef MOSAIC_NET_SERVER_H_
#define MOSAIC_NET_SERVER_H_

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/protocol.h"
#include "service/query_service.h"

namespace mosaic {
namespace net {

struct WakePipe;

struct ServerOptions {
  /// Interface to bind; loopback by default (the reproduction serves
  /// local benches/tests, not the open internet).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Hard cap on concurrent connections; newcomers beyond it get an
  /// ERROR frame and an immediate close.
  size_t max_connections = 64;
  /// Pending replies per connection (answered or not, not yet sent)
  /// before backpressure stops decoding frames and reading the socket.
  size_t max_inflight_per_connection = 32;
  /// Grace period for Shutdown() to finish in-flight statements and
  /// flush replies before force-closing.
  int drain_timeout_ms = 10000;
  /// Name reported in the HELLO_OK handshake.
  std::string server_name = "mosaic";
};

/// The network counters are STATS fields, so the server's typed view
/// of them is the STATS snapshot itself (per process, see Snapshot).
using NetServerStats = StatsSnapshot;

class Server {
 public:
  /// The service must outlive the server.
  Server(service::QueryService* service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start the poll thread. Fails (without leaking
  /// sockets) when the address is unavailable.
  [[nodiscard]] Status Start();

  /// Port actually bound (resolves port 0); valid after Start().
  uint16_t port() const { return port_; }

  /// True between a successful Start() and Shutdown().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful drain, then stop. Idempotent; called by the destructor.
  void Shutdown();

  /// Snapshot for the STATS message: every kStatsFields metric and
  /// every histogram in the process-wide registry.
  StatsSnapshot Snapshot() const;
  /// Same as Snapshot().
  NetServerStats stats() const { return Snapshot(); }

 public:
  struct Connection;
  /// Thread-safe view of live connections backing `system.connections`
  /// (the provider runs on request-pool threads and must survive the
  /// Server object, so it holds this registry by shared_ptr).
  struct ConnRegistry;

 private:
  void PollLoop();
  void AcceptPending();
  /// Receive whatever the socket holds into the frame reader.
  [[nodiscard]] Status ReadFromConnection(Connection* conn);
  /// Handle buffered frames while under the pipelining limit; returns
  /// how many it handled.
  size_t DecodeFrames(const std::shared_ptr<Connection>& conn);
  [[nodiscard]] Status HandleFrame(const std::shared_ptr<Connection>& conn,
                                   Frame frame);
  /// QUERY (one statement, `reply` RESULT) and BATCH (BATCH_RESULT):
  /// answer result-cache hits here, send the rest to the request
  /// pool, and reply once every statement is answered.
  void Dispatch(const std::shared_ptr<Connection>& conn, uint64_t seq,
                MessageType reply, std::vector<std::string> sqls,
                service::RequestContext ctx);
  void FlushReady(Connection* conn);
  [[nodiscard]] Status WriteToConnection(Connection* conn);
  void SendProtocolError(Connection* conn, const Status& error);
  void CloseConnection(size_t index, bool abort_inflight);

  service::QueryService* service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  std::shared_ptr<WakePipe> wake_;
  uint16_t port_ = 0;
  std::thread poll_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> started_{false};

  /// Live connections, owned by the poll thread; callbacks hold weak
  /// shared_ptr copies. Zombies (closed but with callbacks in flight)
  /// are retired by the poll loop once their in-flight count is zero.
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::shared_ptr<Connection>> zombies_;
  std::shared_ptr<ConnRegistry> conn_registry_;
  /// PollLoop's poll set and the connection index of each entry,
  /// reused across wake-ups.
  std::vector<pollfd> poll_fds_;
  std::vector<size_t> poll_conn_of_fd_;

  /// Poll-thread-only; ids are per server, starting at 1.
  uint64_t next_conn_id_ = 1;

  /// Counts in the process-wide registry (see kStatsFields).
  metrics::Counter* connections_opened_;
  metrics::Counter* connections_rejected_;
  metrics::Counter* connections_closed_;
  metrics::Counter* frames_received_;
  metrics::Counter* frames_sent_;
  metrics::Counter* protocol_errors_;
  metrics::Counter* malformed_frames_;
  /// Kept with Add/Sub, so several servers in one process sum.
  metrics::Gauge* connections_active_;
  metrics::Gauge* inflight_highwater_;
};

}  // namespace net
}  // namespace mosaic

#endif  // MOSAIC_NET_SERVER_H_

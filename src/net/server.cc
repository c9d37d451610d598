#include "net/server.h"

#include "common/synchronization.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "common/event_log.h"
#include "common/logging.h"
#include "core/system_tables.h"

namespace mosaic {
namespace net {

namespace {

[[nodiscard]] Status Errno(const char* what) {
  // lint:allow errno-no-syscall: called on the failure path right
  // after the syscall; errno still holds that call's error.
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

[[nodiscard]] Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// One statement's answer, shared with the result cache.
using Answer = Result<std::shared_ptr<const Table>>;

/// A RESULT (one answer) or BATCH_RESULT frame. Replies that cannot
/// fit one frame are downgraded to in-band errors so the connection
/// survives (the client sees a failed statement, not a dead socket).
std::string EncodeReply(MessageType type, const std::vector<Answer>& answers) {
  static const Table kNoTable;
  const bool batch = type == MessageType::kBatchResult;
  auto encode = [&](const Status* override_status) {
    WireWriter w;
    if (batch) w.PutU32(static_cast<uint32_t>(answers.size()));
    for (const Answer& a : answers) {
      const Status& status =
          override_status != nullptr ? *override_status : a.status();
      EncodeQueryOutcome(status, status.ok() ? **a : kNoTable, &w);
    }
    return w.Take();
  };
  std::string payload = encode(nullptr);
  if (payload.size() + 1 > kMaxFrameBytes) {
    const Status too_big = Status::ExecutionError(
        batch ? "batch result exceeds the wire protocol's frame limit"
              : "result table exceeds the wire protocol's frame limit");
    payload = encode(&too_big);
  }
  return EncodeFrame(type, payload);
}

service::RequestContext ContextOf(const TraceContext& trace) {
  service::RequestContext ctx;
  ctx.trace_id = trace.trace_id;
  ctx.parent_span_id = trace.parent_span_id;
  ctx.sampled = trace.sampled;
  return ctx;
}

}  // namespace

/// Handle shared between the poll thread and request-pool completion
/// callbacks: lets a callback nudge the poll loop without touching the
/// Server object (which may already be destroyed when a straggling
/// callback fires after Shutdown).
struct WakePipe {
  Mutex mu;
  int write_fd GUARDED_BY(mu) = -1;  ///< -1 once the server is gone

  void Wake() {
    MutexLock lock(mu);
    if (write_fd < 0) return;
    const char byte = 1;
    // Best effort: a full pipe already guarantees a pending wake-up.
    [[maybe_unused]] ssize_t n = ::write(write_fd, &byte, 1);
  }
};

struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;  ///< stable id for `system.connections`
  std::optional<service::Session> session;
  FrameReader reader;

  // Poll-thread-only state.
  std::string outbuf;
  size_t outpos = 0;
  bool hello_done = false;
  bool reads_stopped = false;       ///< no further frames accepted
  bool close_after_flush = false;   ///< close once outbuf drains
  uint64_t next_seq = 0;            ///< next request sequence number
  uint64_t next_to_send = 0;        ///< earliest un-flushed reply
  uint64_t close_seq = UINT64_MAX;  ///< seq of the GOODBYE reply

  // Shared with completion callbacks.
  Mutex mu;
  bool closed GUARDED_BY(mu) = false;
  size_t inflight GUARDED_BY(mu) = 0;
  /// Encoded reply frames, keyed by request sequence number.
  std::map<uint64_t, std::string> ready GUARDED_BY(mu);

  size_t PendingLocked() const REQUIRES(mu) {
    return inflight + ready.size();
  }

  size_t Pending() {
    MutexLock lock(mu);
    return PendingLocked();
  }
};

struct Server::ConnRegistry {
  Mutex mu;
  /// Live connections by conn id.
  std::map<uint64_t, std::shared_ptr<Connection>> conns GUARDED_BY(mu);
};

namespace {

/// Deposit one completed pooled reply and wake the poll loop. Free
/// function on purpose: callbacks must not dereference the Server.
void DeliverReply(const std::shared_ptr<Server::Connection>& conn,
                  const std::shared_ptr<WakePipe>& wake, uint64_t seq,
                  std::string frame) {
  {
    MutexLock lock(conn->mu);
    conn->inflight--;
    if (!conn->closed) conn->ready.emplace(seq, std::move(frame));
  }
  wake->Wake();
}

/// Deposit a reply produced on the poll thread itself.
void Park(Server::Connection* conn, uint64_t seq, std::string frame) {
  MutexLock lock(conn->mu);
  conn->ready.emplace(seq, std::move(frame));
}

}  // namespace

Server::Server(service::QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  auto& registry = metrics::Registry::Global();
  connections_opened_ = registry.GetCounter("mosaic_connections_opened",
                                            "Client connections accepted");
  connections_rejected_ = registry.GetCounter(
      "mosaic_connections_rejected", "Connections refused at the limit");
  connections_closed_ = registry.GetCounter("mosaic_connections_closed",
                                            "Client connections closed");
  frames_received_ = registry.GetCounter("mosaic_frames_received",
                                         "Frames received");
  frames_sent_ = registry.GetCounter("mosaic_frames_sent", "Frames sent");
  protocol_errors_ = registry.GetCounter(
      "mosaic_protocol_errors",
      "Protocol violations answered with an ERROR frame");
  malformed_frames_ = registry.GetCounter("mosaic_malformed_frames",
                                          "Payloads that failed to decode");
  connections_active_ = registry.GetGauge("mosaic_connections_active",
                                          "Client connections open now");
  inflight_highwater_ = registry.GetGauge(
      "mosaic_inflight_highwater",
      "Deepest per-connection pipeline of frames waiting on the request "
      "pool (result-cache hits answered on the poll thread never wait)");
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse bind address '" +
                                   options_.host + "'");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  auto fail = [this](Status status) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail(Errno("bind"));
  }
  if (::listen(listen_fd_, 64) != 0) return fail(Errno("listen"));
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return fail(Errno("getsockname"));
  }
  port_ = ntohs(addr.sin_port);
  if (Status nb = SetNonBlocking(listen_fd_); !nb.ok()) return fail(nb);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return fail(Errno("pipe"));
  wake_read_fd_ = pipe_fds[0];
  (void)SetNonBlocking(wake_read_fd_);
  (void)SetNonBlocking(pipe_fds[1]);
  wake_ = std::make_shared<WakePipe>();
  {
    // Not shared yet, but the analysis (rightly) has no way to know.
    MutexLock lock(wake_->mu);
    wake_->write_fd = pipe_fds[1];
  }

  // Back `system.connections` with a registry the provider can hold
  // past this Server's lifetime (queries run on request-pool threads).
  conn_registry_ = std::make_shared<ConnRegistry>();
  {
    auto registry = conn_registry_;
    service_->database()->RegisterSystemTable(
        "connections", [registry]() -> Result<Table> {
          MOSAIC_ASSIGN_OR_RETURN(Table out, core::EmptyConnectionsTable());
          MutexLock lock(registry->mu);
          for (const auto& [id, conn] : registry->conns) {
            MOSAIC_RETURN_IF_ERROR(out.AppendRow(
                {Value(static_cast<int64_t>(id)),
                 Value(static_cast<int64_t>(
                     conn->session.has_value() ? conn->session->id() : 0)),
                 Value(static_cast<int64_t>(conn->Pending()))}));
          }
          return out;
        });
  }

  running_.store(true, std::memory_order_release);
  poll_thread_ = std::thread([this] { PollLoop(); });
  MOSAIC_LOG(Info) << "mosaic server listening on " << options_.host << ":"
                   << port_;
  elog::EventLog::Global().Emit(
      LogLevel::kInfo, "server_start",
      {{"host", options_.host}, {"port", std::to_string(port_)}});
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_.load() || !running_.exchange(false)) {
    // Never started, or a previous Shutdown already ran.
    if (poll_thread_.joinable()) poll_thread_.join();
    return;
  }
  stop_requested_.store(true, std::memory_order_release);
  if (wake_ != nullptr) wake_->Wake();
  if (poll_thread_.joinable()) poll_thread_.join();
  // Detach the wake pipe so straggling callbacks become no-ops, then
  // release the fds.
  if (wake_ != nullptr) {
    MutexLock lock(wake_->mu);
    ::close(wake_->write_fd);
    wake_->write_fd = -1;
  }
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (conn_registry_ != nullptr) {
    MutexLock lock(conn_registry_->mu);
    conn_registry_->conns.clear();
  }
  elog::EventLog::Global().Emit(LogLevel::kInfo, "server_stop",
                                StatsFieldStrings(Snapshot()));
}

StatsSnapshot Server::Snapshot() const {
  auto& registry = metrics::Registry::Global();
  const auto counters = registry.CounterValues();
  const auto gauges = registry.GaugeValues();
  StatsSnapshot snap;
  for (const StatsField& f : kStatsFields) {
    // A metric nobody registered reads as 0 (and is not created).
    const std::string name = "mosaic_" + std::string(f.name);
    auto read = [&name](const auto& values) {
      auto it = values.find(name);
      return it == values.end() ? 0 : static_cast<uint64_t>(it->second);
    };
    snap.*f.member =
        f.kind == StatsField::kCounter ? read(counters) : read(gauges);
  }
  // Ship every registry histogram (the service's latency histograms
  // and whatever else the process registered) so remote clients see
  // the same distribution a local /metrics scrape would.
  for (auto& [name, h] : registry.HistogramSnapshots()) {
    snap.histograms.push_back({name, std::move(h)});
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Poll loop
// ---------------------------------------------------------------------------

void Server::PollLoop() {
  using Clock = std::chrono::steady_clock;
  bool draining = false;
  Clock::time_point drain_deadline{};

  while (true) {
    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      draining = true;
      drain_deadline = Clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
      // Stop accepting; in-flight statements keep running.
      ::close(listen_fd_);
      listen_fd_ = -1;
    }

    // Move completed replies into write buffers, retire drained
    // zombies, and (while draining) close fully quiesced connections.
    for (auto& conn : connections_) FlushReady(conn.get());
    zombies_.erase(std::remove_if(zombies_.begin(), zombies_.end(),
                                  [](const auto& z) {
                                    return z->Pending() == 0;
                                  }),
                   zombies_.end());
    if (draining) {
      for (size_t i = connections_.size(); i-- > 0;) {
        Connection* conn = connections_[i].get();
        if (conn->Pending() == 0 && conn->outpos == conn->outbuf.size()) {
          CloseConnection(i, /*abort_inflight=*/false);
        }
      }
      const bool expired = Clock::now() >= drain_deadline;
      if (expired) {
        for (size_t i = connections_.size(); i-- > 0;) {
          CloseConnection(i, /*abort_inflight=*/true);
        }
        zombies_.clear();
      }
      if (connections_.empty() && zombies_.empty()) break;
    }

    std::vector<pollfd>& fds = poll_fds_;
    std::vector<size_t>& conn_of_fd = poll_conn_of_fd_;  // SIZE_MAX: specials
    fds.clear();
    conn_of_fd.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    conn_of_fd.push_back(SIZE_MAX);
    if (!draining && listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      conn_of_fd.push_back(SIZE_MAX);
    }
    for (size_t i = 0; i < connections_.size(); ++i) {
      Connection* conn = connections_[i].get();
      short events = 0;
      const bool backpressured =
          conn->Pending() >= options_.max_inflight_per_connection;
      if (!draining && !conn->reads_stopped && !backpressured) {
        events |= POLLIN;
      }
      if (conn->outpos < conn->outbuf.size()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      conn_of_fd.push_back(i);
    }

    const int timeout_ms = draining ? 20 : 200;
    const int nready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (nready < 0 && errno != EINTR) {
      MOSAIC_LOG(Error) << "poll failed: " << std::strerror(errno);
      break;
    }

    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (!draining && listen_fd_ >= 0 && fds.size() > 1 &&
        conn_of_fd[1] == SIZE_MAX && (fds[1].revents & POLLIN)) {
      AcceptPending();
    }

    // Walk connection fds back to front so CloseConnection's
    // swap-remove cannot disturb indices not yet visited.
    for (size_t f = fds.size(); f-- > 0;) {
      const size_t idx = conn_of_fd[f];
      if (idx == SIZE_MAX || idx >= connections_.size()) continue;
      const std::shared_ptr<Connection> conn = connections_[idx];
      if (fds[f].fd != conn->fd) continue;  // replaced meanwhile
      const short revents = fds[f].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConnection(idx, /*abort_inflight=*/true);
        continue;
      }
      if (revents & POLLIN) {
        Status s = ReadFromConnection(conn.get());
        if (!s.ok()) {
          CloseConnection(idx, /*abort_inflight=*/true);
          continue;
        }
      }
      // Frames left buffered at the pipelining limit resume here once
      // replies drain, with or without new bytes on the socket.
      // Replies answered on this thread free their slots as soon as
      // they are flushed, so keep going until the reader runs dry or
      // pooled statements fill the window (their completions wake the
      // loop back to this point).
      do {
        FlushReady(conn.get());
      } while (!draining && DecodeFrames(conn) > 0);
      if (conn->outpos < conn->outbuf.size()) {
        Status s = WriteToConnection(conn.get());
        if (!s.ok()) {
          CloseConnection(idx, /*abort_inflight=*/true);
          continue;
        }
      }
      if (conn->close_after_flush && conn->outpos == conn->outbuf.size()) {
        CloseConnection(idx, /*abort_inflight=*/false);
      }
    }
  }

  // Loop exit (drain complete or poll failure): cut whatever is left.
  for (size_t i = connections_.size(); i-- > 0;) {
    CloseConnection(i, /*abort_inflight=*/true);
  }
  zombies_.clear();
}

void Server::AcceptPending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      MOSAIC_LOG(Warning) << "accept failed: " << std::strerror(errno);
      return;
    }
    if (connections_.size() >= options_.max_connections) {
      // Count before the refusal goes out: a client that reads the
      // refusal and then asks for stats must see it counted.
      connections_rejected_->Inc();
      // Best-effort refusal so the client sees why, then hang up.
      const std::string frame = EncodeFrame(
          MessageType::kError,
          EncodeErrorReply(Status::ExecutionError(
              "server connection limit reached (" +
              std::to_string(options_.max_connections) + ")")));
      [[maybe_unused]] ssize_t n =
          ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    connections_opened_->Inc();
    conn->session = service_->OpenSession();
    if (conn_registry_ != nullptr) {
      MutexLock lock(conn_registry_->mu);
      conn_registry_->conns.emplace(conn->id, conn);
    }
    connections_.push_back(std::move(conn));
    connections_active_->Add(1);
  }
}

Status Server::ReadFromConnection(Connection* conn) {
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->reader.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) return Status::IOError("peer closed connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  return Status::OK();
}

size_t Server::DecodeFrames(const std::shared_ptr<Connection>& conn) {
  // Checked per frame: one recv can carry a whole pipeline, and the
  // frames beyond the limit wait in the reader.
  size_t handled = 0;
  while (!conn->reads_stopped &&
         conn->Pending() < options_.max_inflight_per_connection) {
    Frame frame;
    auto got = conn->reader.Next(&frame);
    if (!got.ok()) {
      SendProtocolError(conn.get(), got.status());
      break;
    }
    if (!*got) break;
    ++handled;
    frames_received_->Inc();
    Status s = HandleFrame(conn, std::move(frame));
    if (!s.ok()) {
      malformed_frames_->Inc();
      SendProtocolError(conn.get(), s);
    }
  }
  return handled;
}

Status Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                           Frame frame) {
  if (!IsKnownMessageType(static_cast<uint8_t>(frame.type))) {
    return Status::InvalidArgument(
        "unknown message type tag " +
        std::to_string(static_cast<unsigned>(frame.type)));
  }
  if (!conn->hello_done) {
    if (frame.type != MessageType::kHello) {
      return Status::InvalidArgument(
          std::string("expected HELLO, got ") +
          MessageTypeName(frame.type));
    }
    MOSAIC_ASSIGN_OR_RETURN(HelloRequest hello,
                            DecodeHelloRequest(frame.payload));
    if (hello.version != kProtocolVersion) {
      return Status::InvalidArgument(
          "protocol version mismatch: client speaks v" +
          std::to_string(hello.version) + ", server speaks v" +
          std::to_string(kProtocolVersion));
    }
    conn->hello_done = true;
    HelloReply reply;
    reply.session_id = conn->session->id();
    reply.server_name = options_.server_name;
    // Nothing can be in flight before HELLO, so the reply bypasses
    // the sequence queue.
    conn->outbuf += EncodeFrame(MessageType::kHelloOk,
                                EncodeHelloReply(reply));
    frames_sent_->Inc();
    return Status::OK();
  }
  switch (frame.type) {
    case MessageType::kQuery: {
      MOSAIC_ASSIGN_OR_RETURN(QueryRequest req,
                              DecodeQueryRequest(frame.payload));
      std::vector<std::string> sqls;
      sqls.push_back(std::move(req.sql));
      Dispatch(conn, conn->next_seq++, MessageType::kResult, std::move(sqls),
               ContextOf(req.trace));
      return Status::OK();
    }
    case MessageType::kBatch: {
      MOSAIC_ASSIGN_OR_RETURN(BatchRequest req,
                              DecodeBatchRequest(frame.payload));
      Dispatch(conn, conn->next_seq++, MessageType::kBatchResult,
               std::move(req.sqls), ContextOf(req.trace));
      return Status::OK();
    }
    case MessageType::kStats:
      Park(conn.get(), conn->next_seq++,
           EncodeFrame(MessageType::kStatsResult,
                       EncodeStatsReply(Snapshot())));
      return Status::OK();
    case MessageType::kClose: {
      const uint64_t seq = conn->next_seq++;
      conn->close_seq = seq;
      conn->reads_stopped = true;
      Park(conn.get(), seq, EncodeFrame(MessageType::kGoodbye, ""));
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(
          std::string("unexpected client message ") +
          MessageTypeName(frame.type));
  }
}

void Server::Dispatch(const std::shared_ptr<Connection>& conn, uint64_t seq,
                      MessageType reply, std::vector<std::string> sqls,
                      service::RequestContext ctx) {
  struct BatchState {
    std::vector<Answer> answers;
    std::atomic<size_t> remaining{0};
  };
  auto batch = std::make_shared<BatchState>();
  batch->answers.assign(sqls.size(), Status::Internal("unanswered"));
  std::vector<std::pair<size_t, service::PendingStatement>> misses;
  for (size_t i = 0; i < sqls.size(); ++i) {
    service::PendingStatement st(std::move(sqls[i]), ctx);
    if (auto hit = conn->session->TryServeCached(&st)) {
      batch->answers[i] = std::move(hit);
    } else {
      misses.emplace_back(i, std::move(st));
    }
  }
  if (misses.empty()) {
    Park(conn.get(), seq, EncodeReply(reply, batch->answers));
    return;
  }
  size_t depth;
  {
    MutexLock lock(conn->mu);
    depth = ++conn->inflight;
  }
  inflight_highwater_->SetMax(static_cast<int64_t>(depth));
  batch->remaining.store(misses.size());
  auto wake = wake_;
  // Misses fan out across the request pool individually, so a BATCH
  // from one connection exercises inter-query parallelism even with a
  // single client attached. Each callback holds the connection, so an
  // abrupt disconnect cannot free it underneath.
  for (auto& [index, st] : misses) {
    conn->session->SubmitAsync(
        std::move(st),
        [conn, wake, seq, reply, batch, i = index](Answer answer) {
          batch->answers[i] = std::move(answer);
          if (batch->remaining.fetch_sub(1) == 1) {
            DeliverReply(conn, wake, seq, EncodeReply(reply, batch->answers));
          }
        });
  }
}

void Server::FlushReady(Connection* conn) {
  MutexLock lock(conn->mu);
  auto it = conn->ready.find(conn->next_to_send);
  while (it != conn->ready.end()) {
    conn->outbuf += it->second;
    conn->ready.erase(it);
    frames_sent_->Inc();
    if (conn->next_to_send == conn->close_seq) {
      conn->close_after_flush = true;
    }
    ++conn->next_to_send;
    it = conn->ready.find(conn->next_to_send);
  }
}

Status Server::WriteToConnection(Connection* conn) {
  while (conn->outpos < conn->outbuf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->outpos,
               conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outpos += static_cast<size_t>(n);
      continue;
    }
    // n == 0 sets no errno; don't let a stale one close the
    // connection. Treat it as a full buffer and retry on POLLOUT.
    if (n == 0) break;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return Errno("send");
  }
  if (conn->outpos == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->outpos = 0;
  }
  return Status::OK();
}

void Server::SendProtocolError(Connection* conn, const Status& error) {
  protocol_errors_->Inc();
  MOSAIC_LOG(Warning) << "protocol error on fd " << conn->fd << ": "
                      << error.ToString();
  // The ERROR frame jumps any unflushed replies — the conversation is
  // over — and the connection closes once it is on the wire.
  conn->outbuf += EncodeFrame(MessageType::kError, EncodeErrorReply(error));
  frames_sent_->Inc();
  conn->reads_stopped = true;
  conn->close_after_flush = true;
}

void Server::CloseConnection(size_t index, bool abort_inflight) {
  std::shared_ptr<Connection> conn = connections_[index];
  {
    MutexLock lock(conn->mu);
    conn->closed = true;
    conn->ready.clear();
  }
  ::close(conn->fd);
  conn->fd = -1;
  if (conn_registry_ != nullptr) {
    MutexLock lock(conn_registry_->mu);
    conn_registry_->conns.erase(conn->id);
  }
  service_->CloseSession(*conn->session);
  connections_closed_->Inc();
  connections_.erase(connections_.begin() +
                     static_cast<ptrdiff_t>(index));
  connections_active_->Sub(1);
  if (abort_inflight && conn->Pending() > 0) {
    // Completion callbacks still reference this connection; keep it
    // on the zombie list until they have all fired.
    zombies_.push_back(std::move(conn));
  }
}

}  // namespace net
}  // namespace mosaic

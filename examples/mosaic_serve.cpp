// Mosaic network server: binds a TCP port and serves the wire
// protocol (src/net/protocol.h) in front of a concurrent
// QueryService. Clients connect with examples/mosaic_client.cpp or
// the net::Client library.
//
//   ./mosaic_serve [flags]
//     --host=ADDR              bind address     (default 127.0.0.1)
//     --port=N                 TCP port; 0 = ephemeral (default 7878)
//     --port-file=PATH         write the bound port to PATH (for
//                              scripts; written after listen succeeds)
//     --request-threads=N      request pool size          (default 4)
//     --generation-threads=N   OPEN generation pool size  (default 4)
//     --max-connections=N      concurrent connection cap  (default 64)
//     --metrics-port=N         serve Prometheus text on
//                              http://HOST:N/metrics (default off;
//                              0 = ephemeral, port printed at startup)
//     --trace                  trace every statement (spans feed the
//                              slow-query log and EXPLAIN ANALYZE)
//     --slow-query-ms=N        log the span tree of statements taking
//                              >= N ms (implies tracing)
//     --data-dir=PATH          durable mode: recover catalog + samples
//                              + weights from PATH on startup and WAL
//                              every mutation (also settable via the
//                              MOSAIC_DATA_DIR environment variable;
//                              the flag wins)
//     --snapshot-interval-s=N  in durable mode, write a snapshot every
//                              N seconds (default 300; 0 = only the
//                              clean-shutdown snapshot)
//     --no-fsync               durable mode without per-statement WAL
//                              fsync (throughput over crash safety)
//     --demo-world             preload the flights-style demo catalog
//                              (skipped when a recovered data dir
//                              already holds a catalog)
//     --log-json=PATH          structured JSON-lines event log: server
//                              lifecycle, recovery, snapshots, and the
//                              slow-query log land in PATH (rotated to
//                              PATH.1 at the size cap)
//     --log-json-max-bytes=N   rotate the JSON event log at N bytes
//                              (default 8 MiB)
//     --verbose                info-level logging
//
// Runs until SIGINT/SIGTERM, then drains: in-flight statements
// finish, replies flush, connections close, and the process exits 0.
// In durable mode a final snapshot is written before exit, so the
// next start replays no WAL.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/event_log.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "net/metrics_http.h"
#include "net/server.h"
#include "service/query_service.h"

using namespace mosaic;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

bool NumericFlag(const char* arg, const char* name, uint64_t* out) {
  return mosaic::NumericFlag(arg, name, out, "mosaic_serve");
}

/// The flights-style demo world from the earlier in-process demo,
/// kept behind --demo-world so the server can also start empty.
void BuildWorld(core::Database* db) {
  auto exec = [db](const std::string& sql) {
    auto r = db->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "setup failed (%s): %s\n", sql.c_str(),
                   r.status().ToString().c_str());
      std::exit(1);
    }
  };
  exec("CREATE GLOBAL POPULATION People (email VARCHAR, device VARCHAR)");
  exec("CREATE TABLE EmailReport (email VARCHAR, cnt INT)");
  exec("INSERT INTO EmailReport VALUES ('gmail', 550), ('yahoo', 300), "
       "('aol', 150)");
  exec("CREATE TABLE DeviceReport (device VARCHAR, cnt INT)");
  exec("INSERT INTO DeviceReport VALUES ('phone', 600), ('laptop', 400)");
  exec("CREATE METADATA People_M1 AS (SELECT email, cnt FROM EmailReport)");
  exec("CREATE METADATA People_M2 AS "
       "(SELECT device, cnt FROM DeviceReport)");
  exec("CREATE SAMPLE Panel AS (SELECT * FROM People WHERE email = "
       "'gmail')");
  exec("INSERT INTO Panel VALUES ('gmail','phone'), ('gmail','phone'), "
       "('gmail','phone'), ('gmail','phone'), ('gmail','laptop'), "
       "('gmail','laptop')");

  auto* open = db->mutable_open_options();
  open->mswg.epochs = 5;
  open->mswg.steps_per_epoch = 10;
  open->mswg.batch_size = 64;
  open->mswg.num_projections = 64;
  open->mswg.projections_per_step = 8;
  open->generated_rows = 500;
  open->num_generated_samples = 10;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);

  net::ServerOptions server_opts;
  server_opts.port = 7878;
  service::ServiceOptions service_opts;
  std::string port_file;
  std::string log_json_path;
  uint64_t log_json_max_bytes = elog::EventLog::kDefaultMaxBytes;
  uint64_t snapshot_interval_s = 300;
  bool demo_world = false;
  bool metrics_enabled = false;
  uint64_t metrics_port = 0;
  if (const char* env = std::getenv("MOSAIC_DATA_DIR")) {
    service_opts.data_dir = env;
  }

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t n = 0;
    if (NumericFlag(arg, "port", &n)) {
      if (n > 65535) {
        std::fprintf(stderr, "mosaic_serve: --port=%llu out of range\n",
                     static_cast<unsigned long long>(n));
        return 2;
      }
      server_opts.port = static_cast<uint16_t>(n);
    } else if (NumericFlag(arg, "request-threads", &n)) {
      service_opts.num_request_threads = n;
    } else if (NumericFlag(arg, "generation-threads", &n)) {
      service_opts.num_generation_threads = n;
    } else if (NumericFlag(arg, "max-connections", &n)) {
      server_opts.max_connections = n;
    } else if (NumericFlag(arg, "metrics-port", &n)) {
      if (n > 65535) {
        std::fprintf(stderr,
                     "mosaic_serve: --metrics-port=%llu out of range\n",
                     static_cast<unsigned long long>(n));
        return 2;
      }
      metrics_enabled = true;
      metrics_port = n;
    } else if (NumericFlag(arg, "slow-query-ms", &n)) {
      service_opts.slow_query_ms = static_cast<int64_t>(n);
    } else if (NumericFlag(arg, "snapshot-interval-s", &n)) {
      snapshot_interval_s = n;
    } else if (std::strcmp(arg, "--trace") == 0) {
      service_opts.trace_queries = true;
    } else if (std::strcmp(arg, "--no-fsync") == 0) {
      service_opts.durable_fsync_dml = false;
    } else if (NumericFlag(arg, "log-json-max-bytes", &n)) {
      log_json_max_bytes = n;
    } else if (StringFlag(arg, "host", &server_opts.host) ||
               StringFlag(arg, "port-file", &port_file) ||
               StringFlag(arg, "log-json", &log_json_path) ||
               StringFlag(arg, "data-dir", &service_opts.data_dir)) {
    } else if (std::strcmp(arg, "--demo-world") == 0) {
      demo_world = true;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      SetLogLevel(LogLevel::kInfo);
    } else {
      std::fprintf(stderr, "mosaic_serve: unknown flag %s\n", arg);
      return 2;
    }
  }

  // Open the structured event sink before the service exists so
  // recovery events from the durable engine land in it too.
  if (!log_json_path.empty()) {
    Status opened = elog::EventLog::Global().Open(
        log_json_path, static_cast<size_t>(log_json_max_bytes));
    if (!opened.ok()) {
      std::fprintf(stderr, "mosaic_serve: --log-json: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
  }

  service::QueryService service(service_opts);
  if (!service.durability_status().ok()) {
    // A failed recovery must never serve: the in-memory catalog may
    // be partial and answers silently wrong.
    std::fprintf(stderr, "mosaic_serve: recovery failed: %s\n",
                 service.durability_status().ToString().c_str());
    return 1;
  }
  const bool recovered_catalog =
      service.storage_engine() != nullptr &&
      (service.storage_engine()->recovery_info().tables > 0 ||
       service.storage_engine()->recovery_info().populations > 0);
  if (service.storage_engine() != nullptr) {
    const durable::RecoveryInfo& rec =
        service.storage_engine()->recovery_info();
    std::printf("mosaic_serve: recovered %llu tables, %llu populations, "
                "%llu samples from %s (%s snapshot, %llu WAL records, "
                "%llu us)\n",
                (unsigned long long)rec.tables,
                (unsigned long long)rec.populations,
                (unsigned long long)rec.samples,
                service_opts.data_dir.c_str(),
                rec.snapshot_loaded ? "with" : "no",
                (unsigned long long)rec.wal_records_applied,
                (unsigned long long)rec.recovery_us);
  }
  // The demo world is only seeded into a fresh data dir — a recovered
  // catalog already holds it (re-running the DDL would fail anyway).
  if (demo_world && !recovered_catalog) BuildWorld(service.database());

  net::Server server(&service, server_opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "mosaic_serve: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("mosaic_serve: listening on %s:%u (%zu request + %zu "
              "generation threads%s)\n",
              server_opts.host.c_str(), server.port(),
              service_opts.num_request_threads,
              service_opts.num_generation_threads,
              demo_world ? ", demo world loaded" : "");

  // Optional Prometheus endpoint: the process-wide registry holds
  // every counter, gauge and histogram the server, service, database
  // and caches keep.
  std::unique_ptr<net::MetricsHttpServer> metrics_http;
  if (metrics_enabled) {
    net::MetricsHttpServer::Options mopts;
    mopts.host = server_opts.host;
    mopts.port = static_cast<uint16_t>(metrics_port);
    metrics_http = std::make_unique<net::MetricsHttpServer>(
        [] { return metrics::Registry::Global().RenderPrometheus(); },
        mopts);
    Status mstarted = metrics_http->Start();
    if (!mstarted.ok()) {
      std::fprintf(stderr, "mosaic_serve: %s\n",
                   mstarted.ToString().c_str());
      return 1;
    }
    std::printf("mosaic_serve: metrics on http://%s:%u/metrics\n",
                server_opts.host.c_str(), metrics_http->port());
  }
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Write-then-rename so a watching script can never read a torn or
    // empty port file, with every stdio result checked (a full disk
    // must not leave the script waiting on garbage).
    const std::string tmp = port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) {
      ok = std::fprintf(f, "%u\n", server.port()) > 0;
      ok = (std::fclose(f) == 0) && ok;
    }
    if (ok) ok = std::rename(tmp.c_str(), port_file.c_str()) == 0;
    if (!ok) {
      std::fprintf(stderr, "mosaic_serve: cannot write %s: %s\n",
                   port_file.c_str(), std::strerror(errno));
      std::remove(tmp.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const bool durable = service.storage_engine() != nullptr;
  const auto snapshot_interval =
      std::chrono::seconds(snapshot_interval_s);
  auto last_snapshot = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (durable && snapshot_interval_s > 0 &&
        std::chrono::steady_clock::now() - last_snapshot >=
            snapshot_interval) {
      Status snap = service.TriggerSnapshot();
      if (!snap.ok()) {
        std::fprintf(stderr, "mosaic_serve: snapshot failed: %s\n",
                     snap.ToString().c_str());
      }
      last_snapshot = std::chrono::steady_clock::now();
    }
  }

  std::printf("mosaic_serve: draining...\n");
  server.Shutdown();
  if (durable) {
    // Final snapshot: the next start replays no WAL. Failure is not
    // fatal — the WAL already holds everything.
    Status snap = service.TriggerSnapshot();
    if (!snap.ok()) {
      std::fprintf(stderr, "mosaic_serve: final snapshot failed: %s\n",
                   snap.ToString().c_str());
    }
  }
  const net::StatsSnapshot stats = server.Snapshot();
  std::printf("mosaic_serve: served %llu queries (%llu failed) over %llu "
              "connections; %llu frames in / %llu out, %llu protocol "
              "errors\n",
              (unsigned long long)stats.queries_total,
              (unsigned long long)stats.queries_failed,
              (unsigned long long)stats.connections_opened,
              (unsigned long long)stats.frames_received,
              (unsigned long long)stats.frames_sent,
              (unsigned long long)stats.protocol_errors);
  elog::EventLog::Global().Emit(LogLevel::kInfo, "serve_exit",
                                net::StatsFieldStrings(stats));
  elog::EventLog::Global().Close();
  return 0;
}

// Network-layer bench: loopback wire-protocol throughput vs the same
// workload through in-process QueryService sessions. Quantifies what
// one frame round-trip costs (serialize, syscalls, poll loop,
// deserialize) on top of query execution.
//
//   ./bench_net [clients] [queries_per_client]
//
// Emits BENCH_net.json. On a 1-core container the client threads,
// poll thread, and request pool all share one CPU, so loopback/
// in-process ratios here are an upper bound on the true transport
// overhead; absolute q/s needs real cores.
//
// Each bench also reports voluntary and involuntary context switches
// per statement, read from /proc: the server's threads (every task
// alive before and after the bench) plus each client thread's own
// count over its lifetime. Thread hand-offs show up there first.
#include <dirent.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"

using namespace mosaic;

namespace {

void BuildWorld(core::Database* db) {
  auto exec = [db](const std::string& sql) {
    bench::Check(db->Execute(sql).status(), sql.c_str());
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
}

/// Read-heavy CLOSED workload (result-cache-friendly): the execution
/// cost is small and stable, so the measured difference between the
/// two transports is dominated by the transport itself.
const std::vector<std::string>& Workload() {
  static const std::vector<std::string> queries = {
      "SELECT CLOSED email, COUNT(*) AS c FROM People GROUP BY email",
      "SELECT CLOSED COUNT(*) AS c FROM People WHERE device = 'phone'",
      "SELECT CLOSED device, COUNT(*) AS c FROM People GROUP BY device",
      "SHOW METADATA",
  };
  return queries;
}

struct CtxSwitches {
  uint64_t voluntary = 0;
  uint64_t involuntary = 0;

  CtxSwitches& operator+=(const CtxSwitches& o) {
    voluntary += o.voluntary;
    involuntary += o.involuntary;
    return *this;
  }
};

/// One task's switch counts from its /proc status file.
CtxSwitches ReadSwitches(const std::string& status_path) {
  CtxSwitches out;
  std::ifstream in(status_path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
      out.voluntary = std::strtoull(line.c_str() + 24, nullptr, 10);
    } else if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
      out.involuntary = std::strtoull(line.c_str() + 27, nullptr, 10);
    }
  }
  return out;
}

/// Summed over every live thread of this process.
CtxSwitches ProcessSwitches() {
  CtxSwitches out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (struct dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    out += ReadSwitches(std::string("/proc/self/task/") + entry->d_name +
                        "/status");
  }
  closedir(dir);
  return out;
}

struct BenchResult {
  std::string name;
  double seconds = 0;
  double qps = 0;
  size_t queries = 0;
  CtxSwitches switches;
};

template <typename PerClientFn>
BenchResult RunClients(const std::string& name, size_t clients,
                       size_t per_client, PerClientFn fn) {
  // Client threads start after the first sample and are gone before
  // the second, so each adds its own lifetime count.
  std::atomic<uint64_t> client_voluntary{0}, client_involuntary{0};
  const CtxSwitches before = ProcessSwitches();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const CtxSwitches mine = ReadSwitches("/proc/thread-self/status");
      fn(c, per_client);
      const CtxSwitches end = ReadSwitches("/proc/thread-self/status");
      client_voluntary += end.voluntary - mine.voluntary;
      client_involuntary += end.involuntary - mine.involuntary;
    });
  }
  for (auto& t : threads) t.join();
  BenchResult r;
  r.name = name;
  r.queries = clients * per_client;
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  r.qps = static_cast<double>(r.queries) / r.seconds;
  const CtxSwitches after = ProcessSwitches();
  r.switches.voluntary =
      after.voluntary - before.voluntary + client_voluntary.load();
  r.switches.involuntary =
      after.involuntary - before.involuntary + client_involuntary.load();
  return r;
}

/// CPUs this process may run on (a taskset pin shows here, not in
/// hardware_threads).
int CpusAllowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

double PerStatement(uint64_t count, const BenchResult& r) {
  return static_cast<double>(count) / static_cast<double>(r.queries);
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const size_t clients =
      argc > 1 ? bench::Unwrap(ParseUint64(argv[1]), "clients") : 4;
  const size_t per_client =
      argc > 2 ? bench::Unwrap(ParseUint64(argv[2]), "queries") : 500;

  service::ServiceOptions opts;
  opts.num_request_threads = 4;
  opts.num_generation_threads = 2;
  service::QueryService service(opts);
  BuildWorld(service.database());

  net::ServerOptions server_opts;
  server_opts.port = 0;
  net::Server server(&service, server_opts);
  bench::Check(server.Start(), "server start");
  const uint16_t port = server.port();

  std::vector<BenchResult> results;

  // --- in-process sessions (the PR-1..3 serving path) -------------------
  for (size_t c : {size_t(1), clients}) {
    results.push_back(RunClients(
        "inprocess_" + std::to_string(c) + "c", c, per_client,
        [&service](size_t tid, size_t n) {
          service::Session session = service.OpenSession();
          const auto& queries = Workload();
          for (size_t i = 0; i < n; ++i) {
            auto r = session.Execute(queries[(tid + i) % queries.size()]);
            bench::Check(r.status(), "inprocess query");
          }
        }));
  }

  // --- loopback TCP, one QUERY frame per statement ----------------------
  for (size_t c : {size_t(1), clients}) {
    results.push_back(RunClients(
        "loopback_" + std::to_string(c) + "c", c, per_client,
        [port](size_t tid, size_t n) {
          net::Client client;
          net::ClientOptions copts;
          copts.port = port;
          bench::Check(client.Connect(copts), "connect");
          const auto& queries = Workload();
          for (size_t i = 0; i < n; ++i) {
            auto r = client.Query(queries[(tid + i) % queries.size()]);
            bench::Check(r.status(), "loopback query");
          }
          bench::Check(client.Close(), "close");
        }));
  }

  // --- loopback TCP, BATCH frames (amortized round-trips) ---------------
  constexpr size_t kBatchSize = 16;
  results.push_back(RunClients(
      "loopback_batch16_1c", 1, per_client, [port](size_t, size_t n) {
        net::Client client;
        net::ClientOptions copts;
        copts.port = port;
        bench::Check(client.Connect(copts), "connect");
        const auto& queries = Workload();
        size_t done = 0;
        while (done < n) {
          std::vector<std::string> batch;
          for (size_t i = 0; i < kBatchSize && done + i < n; ++i) {
            batch.push_back(queries[(done + i) % queries.size()]);
          }
          auto outcomes = client.Batch(batch);
          bench::Check(outcomes.status(), "loopback batch");
          for (const auto& o : *outcomes) {
            bench::Check(o.status, "loopback batch item");
          }
          done += batch.size();
        }
        bench::Check(client.Close(), "close");
      }));

  server.Shutdown();

  std::printf("%-22s %10s %12s %12s %12s\n", "bench", "seconds",
              "queries/s", "vol_cs/stmt", "invol_cs/stmt");
  for (const auto& r : results) {
    std::printf("%-22s %10.3f %12.0f %12.2f %12.2f\n", r.name.c_str(),
                r.seconds, r.qps, PerStatement(r.switches.voluntary, r),
                PerStatement(r.switches.involuntary, r));
  }
  const double in1 = results[0].qps;
  const double net1 = results[2].qps;
  std::printf("\nloopback/in-process (1 client): %.2fx\n",
              net1 / in1);

  std::FILE* json = std::fopen("BENCH_net.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_net.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  bench::PrintHostJson(json, 0);
  std::fprintf(json,
               "  \"cpus_allowed\": %d,\n  \"clients\": %zu,\n"
               "  \"queries_per_client\": %zu,\n  \"benches\": [\n",
               CpusAllowed(), clients, per_client);
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"seconds\": %.6f, "
                 "\"queries\": %zu, \"qps\": %.1f, "
                 "\"voluntary_cs_per_stmt\": %.3f, "
                 "\"involuntary_cs_per_stmt\": %.3f}%s\n",
                 results[i].name.c_str(), results[i].seconds,
                 results[i].queries, results[i].qps,
                 PerStatement(results[i].switches.voluntary, results[i]),
                 PerStatement(results[i].switches.involuntary, results[i]),
                 i + 1 < results.size() ? "," : "");
  }
  // The statements above all flowed through the QueryService, so its
  // registry histogram holds the per-statement latency distribution
  // across every transport exercised.
  const metrics::HistogramSnapshot lat =
      metrics::Registry::Global()
          .GetHistogram("mosaic_query_latency_us")
          ->Snapshot();
  std::fprintf(json,
               "  ],\n  \"latency_us\": {\"count\": %llu, "
               "\"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, "
               "\"p99\": %.1f}\n}\n",
               (unsigned long long)lat.count, lat.Mean(),
               lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99));
  std::fclose(json);
  std::printf("wrote BENCH_net.json\n");
  return 0;
}

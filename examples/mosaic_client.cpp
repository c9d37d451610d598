// Command-line client for a running mosaic_serve: connects over TCP,
// runs statements, prints result tables.
//
//   ./mosaic_client --port=N [--host=ADDR] "SELECT ..." ["SQL" ...]
//   ./mosaic_client --port=N --stats      print server counters
//   ./mosaic_client --port=N --smoke      demo-world smoke check
//                                         (pairs with mosaic_serve
//                                         --demo-world; used by
//                                         scripts/check.sh)
//   ./mosaic_client --port=N --trace SQL  tag each statement with a
//                                         fresh trace context (wire
//                                         minor 2) and print its
//                                         trace_id; an EXPLAIN
//                                         ANALYZE statement then
//                                         returns the server-side
//                                         span tree carrying that id
//
// Exit code 0 iff every requested statement succeeded.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "net/client.h"

using namespace mosaic;

namespace {

bool NumericFlag(const char* arg, const char* name, uint64_t* out) {
  return mosaic::NumericFlag(arg, name, out, "mosaic_client");
}

int RunSmoke(net::Client* client) {
  // Mixed visibility levels against the --demo-world catalog; every
  // statement must succeed and the CLOSED count must be exact.
  const std::vector<std::string> queries = {
      "SELECT CLOSED email, COUNT(*) AS c FROM People GROUP BY email",
      "SELECT CLOSED COUNT(*) AS c FROM People WHERE device = 'phone'",
      "SELECT SEMI-OPEN COUNT(*) AS c FROM People",
      "SELECT OPEN email, COUNT(*) AS c FROM People GROUP BY email "
      "ORDER BY email",
      "SHOW METADATA",
  };
  for (const auto& sql : queries) {
    auto result = client->Query(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "smoke FAILED (%s): %s\n", sql.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
  }
  // And once more as a single BATCH frame, exercising the fan-out.
  auto batch = client->Batch(queries);
  if (!batch.ok()) {
    std::fprintf(stderr, "smoke FAILED (batch): %s\n",
                 batch.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < batch->size(); ++i) {
    if (!(*batch)[i].ok()) {
      std::fprintf(stderr, "smoke FAILED (batch[%zu]): %s\n", i,
                   (*batch)[i].status.ToString().c_str());
      return 1;
    }
  }
  auto stats = client->Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "smoke FAILED (stats): %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("smoke OK: %llu queries served, %llu protocol errors\n",
              (unsigned long long)stats->queries_total,
              (unsigned long long)stats->protocol_errors);
  return 0;
}

/// --stats output: one `name=value` per line, sorted by name, so the
/// format is stable under diff and grep whatever order fields were
/// added to the protocol in. Histograms print derived summary rows.
void PrintStats(const net::StatsSnapshot& s) {
  std::vector<std::pair<std::string, std::string>> rows =
      net::StatsFieldStrings(s);
  char buf[64];
  for (const auto& h : s.histograms) {
    rows.emplace_back(h.name + ".count",
                      std::to_string(h.histogram.count));
    std::snprintf(buf, sizeof(buf), "%.1f", h.histogram.Mean());
    rows.emplace_back(h.name + ".mean", buf);
    std::snprintf(buf, sizeof(buf), "%.1f", h.histogram.Quantile(0.50));
    rows.emplace_back(h.name + ".p50", buf);
    std::snprintf(buf, sizeof(buf), "%.1f", h.histogram.Quantile(0.95));
    rows.emplace_back(h.name + ".p95", buf);
    std::snprintf(buf, sizeof(buf), "%.1f", h.histogram.Quantile(0.99));
    rows.emplace_back(h.name + ".p99", buf);
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [name, value] : rows) {
    std::printf("%s=%s\n", name.c_str(), value.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);

  net::ClientOptions opts;
  bool want_stats = false;
  bool want_smoke = false;
  bool want_trace = false;
  std::vector<std::string> statements;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t n = 0;
    if (NumericFlag(arg, "port", &n)) {
      if (n == 0 || n > 65535) {
        std::fprintf(stderr, "mosaic_client: --port=%llu out of range\n",
                     static_cast<unsigned long long>(n));
        return 2;
      }
      opts.port = static_cast<uint16_t>(n);
    } else if (StringFlag(arg, "host", &opts.host)) {
    } else if (std::strcmp(arg, "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      want_smoke = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      want_trace = true;
    } else if (StartsWith(arg, "--")) {
      std::fprintf(stderr, "mosaic_client: unknown flag %s\n", arg);
      return 2;
    } else {
      statements.emplace_back(arg);
    }
  }
  if (opts.port == 0) {
    std::fprintf(stderr,
                 "usage: mosaic_client --port=N [--host=ADDR] "
                 "[--stats|--smoke] [SQL ...]\n");
    return 2;
  }

  net::Client client;
  Status connected = client.Connect(opts);
  if (!connected.ok()) {
    std::fprintf(stderr, "mosaic_client: %s\n",
                 connected.ToString().c_str());
    return 1;
  }

  if (want_trace && client.server_minor_version() < 2) {
    std::fprintf(stderr,
                 "mosaic_client: server speaks wire minor %u; --trace "
                 "needs minor 2 — statements will run untraced\n",
                 client.server_minor_version());
  }

  int rc = 0;
  if (want_smoke) rc = RunSmoke(&client);
  std::mt19937_64 trace_rng(std::random_device{}());
  for (const auto& sql : statements) {
    net::TraceContext ctx;
    if (want_trace) {
      do {
        ctx.trace_id = trace_rng();
      } while (ctx.trace_id == 0);  // 0 means "no trace" on the wire
      ctx.sampled = true;
      std::printf("trace_id=%016llx %s\n",
                  static_cast<unsigned long long>(ctx.trace_id),
                  sql.c_str());
    }
    auto result = want_trace ? client.Query(sql, ctx) : client.Query(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "error (%s): %s\n", sql.c_str(),
                   result.status().ToString().c_str());
      rc = 1;
      if (!client.connected()) break;  // transport gone; stop here
      continue;
    }
    std::printf("%s\n", result->ToString(50).c_str());
  }
  if (want_stats && client.connected()) {
    auto stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   stats.status().ToString().c_str());
      rc = 1;
    } else {
      PrintStats(*stats);
    }
  }
  if (client.connected()) (void)client.Close();
  return rc;
}

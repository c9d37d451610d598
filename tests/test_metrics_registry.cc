// Metrics registry and query-trace tests: lock-free counter and
// histogram behaviour under concurrency (the TSan leg of
// scripts/check.sh runs these), quantile estimation accuracy, the
// Prometheus rendering, and QueryTrace span bookkeeping.
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"

namespace mosaic {
namespace metrics {
namespace {

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(Gauge, SetMaxIsAHighWatermarkUnderConcurrency) {
  Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, t] {
      for (int i = 0; i < 10000; ++i) g.SetMax(t * 10000 + i);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(g.Value(), (kThreads - 1) * 10000 + 9999);
}

TEST(Histogram, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX),
            Histogram::kNumBuckets - 1);
  // Bucket k covers [2^(k-1), 2^k): its upper bound is below the next
  // bucket's first value.
  for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i)), i);
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i) + 1),
              i + 1);
  }
}

TEST(Histogram, ConcurrentRecordsAllLand) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  for (auto& w : workers) w.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(Histogram, QuantileAccuracyIsBoundedByBucketWidth) {
  // A uniform ramp 1..100000: the log-bucketed estimate must land
  // within the covering bucket, i.e. within a factor of 2 of truth.
  Histogram h;
  constexpr uint64_t kMax = 100000;
  for (uint64_t v = 1; v <= kMax; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kMax);
  for (double q : {0.50, 0.90, 0.95, 0.99}) {
    const double truth = q * kMax;
    const double est = snap.Quantile(q);
    EXPECT_GE(est, truth / 2) << "q=" << q;
    EXPECT_LE(est, truth * 2) << "q=" << q;
  }
  // The mean is exact (sum and count are tracked directly).
  EXPECT_NEAR(snap.Mean(), (kMax + 1) / 2.0, 0.5);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.Snapshot().Quantile(0.5), 0.0);  // empty
  h.Record(0);
  EXPECT_EQ(h.Snapshot().Quantile(0.5), 0.0);  // all-zero samples
  Histogram one;
  one.Record(42);
  const double est = one.Snapshot().Quantile(0.5);
  EXPECT_GE(est, 32.0);
  EXPECT_LE(est, 64.0);
}

TEST(Registry, FindOrCreateReturnsStablePointers) {
  Registry r;
  Counter* a = r.GetCounter("x");
  Counter* b = r.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(r.GetCounter("y"), a);
  a->Inc(3);
  auto values = r.CounterValues();
  EXPECT_EQ(values.at("x"), 3u);
  EXPECT_EQ(values.at("y"), 0u);
}

TEST(Registry, ConcurrentRegistrationAndUpdate) {
  Registry r;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&r] {
      for (int i = 0; i < 1000; ++i) {
        r.GetCounter("shared")->Inc();
        r.GetHistogram("lat")->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(r.CounterValues().at("shared"), uint64_t(kThreads) * 1000);
  EXPECT_EQ(r.HistogramSnapshots().at("lat").count,
            uint64_t(kThreads) * 1000);
}

TEST(Registry, RenderPrometheusShape) {
  Registry r;
  r.GetCounter("mosaic_events_total")->Inc(5);
  r.GetGauge("mosaic_inflight")->Set(2);
  r.GetHistogram("mosaic_latency_us")->Record(100);
  const std::string text = r.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE mosaic_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mosaic_events_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mosaic_inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("mosaic_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mosaic_latency_us_sum 100"), std::string::npos);
  EXPECT_NE(text.find("mosaic_latency_us_count 1"), std::string::npos);
  // Every line is either a comment or "name{...} value".
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated last line";
    const std::string line = text.substr(pos, eol - pos);
    EXPECT_FALSE(line.empty());
    if (line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    pos = eol + 1;
  }
}

TEST(Registry, ResetForTestingZeroesButKeepsRegistration) {
  Registry r;
  Counter* c = r.GetCounter("c");
  c->Inc(9);
  r.GetHistogram("h")->Record(7);
  r.ResetForTesting();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(r.HistogramSnapshots().at("h").count, 0u);
  EXPECT_EQ(r.GetCounter("c"), c);  // same object survives
}

TEST(Registry, RenderPrometheusGoldenOutput) {
  // Exact byte-for-byte exposition for a registry with a HELP'd
  // counter, a bare counter, and a gauge. Counters render before
  // gauges, each group name-sorted, so the output is deterministic.
  Registry r;
  r.GetCounter("mosaic_queries_total", "Total statements executed.")->Inc(7);
  r.GetCounter("mosaic_cache_hits_total")->Inc(2);
  r.GetGauge("mosaic_connections_open", "Open client connections.")->Set(3);
  const std::string expected =
      "# TYPE mosaic_cache_hits_total counter\n"
      "mosaic_cache_hits_total 2\n"
      "# HELP mosaic_queries_total Total statements executed.\n"
      "# TYPE mosaic_queries_total counter\n"
      "mosaic_queries_total 7\n"
      "# HELP mosaic_connections_open Open client connections.\n"
      "# TYPE mosaic_connections_open gauge\n"
      "mosaic_connections_open 3\n";
  EXPECT_EQ(r.RenderPrometheus(), expected);
}

TEST(Registry, PrometheusNameSanitizesTheCharset) {
  EXPECT_EQ(PrometheusName("mosaic_queries_total"), "mosaic_queries_total");
  EXPECT_EQ(PrometheusName("exec.batch.rows"), "exec_batch_rows");
  EXPECT_EQ(PrometheusName("latency-us (p99)"), "latency_us__p99_");
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");  // legal first char forced
  EXPECT_EQ(PrometheusName(""), "_");
  EXPECT_EQ(PrometheusName("ok:colons_are:legal"), "ok:colons_are:legal");
  // Non-ASCII bytes are out of charset regardless of locale.
  EXPECT_EQ(PrometheusName("caf\xc3\xa9"), "caf__");
}

TEST(Registry, PrometheusHelpEscapesBackslashAndNewline) {
  EXPECT_EQ(PrometheusHelpEscape("plain help"), "plain help");
  EXPECT_EQ(PrometheusHelpEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(PrometheusHelpEscape("a\\b"), "a\\\\b");
  // A hostile name and help still produce a parseable exposition.
  Registry r;
  r.GetCounter("bad name\n", "multi\nline \\ help")->Inc(1);
  const std::string text = r.RenderPrometheus();
  EXPECT_NE(text.find("# HELP bad_name_ multi\\nline \\\\ help\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bad_name_ 1\n"), std::string::npos);
  // No raw newline sneaks into the middle of a line: every line is a
  // comment or exactly "name value".
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' ', space + 1), std::string::npos) << line;
  }
}

TEST(Registry, FirstNonEmptyHelpWins) {
  Registry r;
  r.GetCounter("c");  // hot-path lookup without help
  r.GetCounter("c", "the real help");
  r.GetCounter("c", "a different help");  // ignored: first non-empty wins
  EXPECT_NE(r.RenderPrometheus().find("# HELP c the real help\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// QueryTrace
// ---------------------------------------------------------------------------

TEST(QueryTrace, SpanTreeAndVisitOrder) {
  trace::QueryTrace t;
  const uint32_t root = t.Begin(trace::kNoParent, "root");
  const uint32_t child_a = t.Begin(root, "a");
  t.End(child_a);
  const uint32_t child_b = t.Begin(root, "b");
  const uint32_t grandchild = t.Begin(child_b, "b1");
  t.End(grandchild);
  t.End(child_b);
  t.End(root);

  std::vector<std::string> order;
  std::vector<size_t> depths;
  t.Visit([&](const trace::Span& s, size_t depth) {
    order.push_back(s.name);
    depths.push_back(depth);
  });
  EXPECT_EQ(order, (std::vector<std::string>{"root", "a", "b", "b1"}));
  EXPECT_EQ(depths, (std::vector<size_t>{0, 1, 1, 2}));
}

TEST(QueryTrace, ScopedSpanIsNullSafeAndRecordsNotes) {
  {
    trace::ScopedSpan noop(nullptr, trace::kNoParent, "ignored");
    noop.Note("also ignored");
    EXPECT_EQ(noop.id(), trace::kNoParent);
  }
  trace::QueryTrace t;
  {
    trace::ScopedSpan span(&t, trace::kNoParent, "work");
    span.Note("rows=5");
  }
  ASSERT_EQ(t.Spans().size(), 1u);
  EXPECT_EQ(t.Spans()[0].name, "work");
  EXPECT_EQ(t.Spans()[0].note, "rows=5");
  EXPECT_GE(t.Spans()[0].end_us, t.Spans()[0].start_us);
  EXPECT_NE(t.ToString().find("work"), std::string::npos);
}

TEST(QueryTrace, ConcurrentSpansFromWorkerThreads) {
  // Generation-pool threads record spans against an explicit parent
  // concurrently; the trace must stay consistent.
  trace::QueryTrace t;
  const uint32_t root = t.Begin(trace::kNoParent, "root");
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&t, root] {
      for (int k = 0; k < 200; ++k) {
        trace::ScopedSpan span(&t, root, "generate");
      }
    });
  }
  for (auto& w : workers) w.join();
  t.End(root);
  EXPECT_EQ(t.Spans().size(), 1u + kThreads * 200);
  size_t visited = 0;
  t.Visit([&](const trace::Span&, size_t) { ++visited; });
  EXPECT_EQ(visited, t.Spans().size());
}

}  // namespace
}  // namespace metrics
}  // namespace mosaic

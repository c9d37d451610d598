#!/usr/bin/env bash
# CI entry point: configure, build, and run the test suite in Release
# mode, again under AddressSanitizer (MOSAIC_SANITIZE=address), and a
# ThreadSanitizer pass over the concurrency-sensitive tests (the query
# service runs concurrent statements through the shared-lock batch
# executor on its request pool, so the TSan leg is not optional). A static
# leg (lint gate + Clang thread-safety analysis + clang-tidy) runs
# first when the tooling is present. Pass "fast" as $1 to skip the
# static and TSan legs for quick local iterations.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

run_suite() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== ${name}: configure ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${name}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

# Network serving E2E: boot a real mosaic_serve on an ephemeral
# loopback port, run the client smoke workload (mixed visibility
# levels, one BATCH frame, STATS), then SIGTERM and require a clean
# drain (exit 0). Exercises the full socket path the unit tests mock
# at most one layer of. Startup races a busy host for its port: when
# the server fails to come up (or the port it grabbed is stolen
# before the client connects), retry the whole leg with a fresh
# ephemeral port instead of failing outright.
run_server_e2e() {
  local name="$1" build_dir="$2"
  echo "=== ${name}: server E2E ==="
  local port_file="${build_dir}/server_e2e.port"
  local attempts=3
  for attempt in $(seq 1 "${attempts}"); do
    rm -f "${port_file}"
    "${build_dir}/mosaic_serve" --demo-world --port=0 \
      --port-file="${port_file}" &
    local server_pid=$!
    for _ in $(seq 1 100); do
      [[ -s "${port_file}" ]] && break
      sleep 0.1
    done
    if [[ ! -s "${port_file}" ]]; then
      echo "WARN: mosaic_serve did not come up (attempt ${attempt}/${attempts})" >&2
      kill -9 "${server_pid}" 2>/dev/null || true
      wait "${server_pid}" 2>/dev/null || true
      continue
    fi
    if ! "${build_dir}/mosaic_client" --port="$(cat "${port_file}")" --smoke
    then
      echo "WARN: client smoke failed (attempt ${attempt}/${attempts})" >&2
      kill -TERM "${server_pid}" 2>/dev/null || true
      wait "${server_pid}" || true
      continue
    fi
    kill -TERM "${server_pid}"
    wait "${server_pid}"   # non-zero (unclean drain) fails the script
    return 0
  done
  echo "ERROR: server E2E failed after ${attempts} attempts" >&2
  exit 1
}

# Crash-recovery E2E: boot mosaic_serve on a fresh data dir, ingest a
# small world, record query answers, SIGKILL the server mid-flight,
# restart it from the same dir, and require (a) bit-identical answers,
# (b) zero IPF refits on the recovered process (the replayed weight
# epochs carry their fit signatures, so SEMI-OPEN is a signature-match
# no-op), then SIGTERM (which writes a final snapshot) and verify a
# third boot from the snapshot too. The recovered server also serves
# /metrics, and every counter `mosaic_client --stats` prints must be
# scraped there as mosaic_<name> with its # TYPE line.
run_crash_recovery() {
  local name="$1" build_dir="$2"
  echo "=== ${name}: crash-recovery E2E ==="
  local data_dir port_file server_log
  data_dir="$(mktemp -d)"
  port_file="${build_dir}/crash_recovery.port"
  server_log="${build_dir}/crash_server.log"
  local q_closed="SELECT COUNT(*) AS c FROM Panel"
  local q_open="SELECT SEMI-OPEN COUNT(*) AS c FROM People WHERE device = 'phone'"

  # Extra arguments go to mosaic_serve; its stdout lands in server_log.
  start_server() {
    rm -f "${port_file}"
    "${build_dir}/mosaic_serve" --port=0 --port-file="${port_file}" \
      --data-dir="${data_dir}" "$@" > "${server_log}" &
    server_pid=$!
    for _ in $(seq 1 100); do
      [[ -s "${port_file}" ]] && break
      sleep 0.1
    done
    [[ -s "${port_file}" ]] || { echo "ERROR: server did not come up" >&2; return 1; }
    port="$(cat "${port_file}")"
  }

  # Phase 1: ingest, query, then die without any shutdown protocol.
  start_server
  "${build_dir}/mosaic_client" --port="${port}" \
    "CREATE GLOBAL POPULATION People (email VARCHAR, device VARCHAR)" \
    "CREATE TABLE EmailReport (email VARCHAR, cnt INT)" \
    "INSERT INTO EmailReport VALUES ('gmail', 550), ('yahoo', 300), ('aol', 150)" \
    "CREATE METADATA People_M1 AS (SELECT email, cnt FROM EmailReport)" \
    "CREATE SAMPLE Panel AS (SELECT * FROM People)" \
    "INSERT INTO Panel VALUES ('gmail','phone'), ('gmail','phone'), ('gmail','laptop'), ('yahoo','phone'), ('yahoo','laptop'), ('aol','laptop')" \
    > /dev/null
  "${build_dir}/mosaic_client" --port="${port}" \
    "${q_closed}" "${q_open}" > "${build_dir}/crash_answers_live.txt"
  kill -9 "${server_pid}"
  wait "${server_pid}" 2>/dev/null || true

  # Phase 2: recover from snapshot-less WAL, answers must match and
  # the recovered process must not have retrained.
  start_server --metrics-port=0
  "${build_dir}/mosaic_client" --port="${port}" \
    "${q_closed}" "${q_open}" > "${build_dir}/crash_answers_rec1.txt"
  diff "${build_dir}/crash_answers_live.txt" \
       "${build_dir}/crash_answers_rec1.txt"
  "${build_dir}/mosaic_client" --port="${port}" --stats \
    > "${build_dir}/crash_stats_rec1.txt"
  grep -q '^weight_refits_total=0$' "${build_dir}/crash_stats_rec1.txt" || {
    echo "ERROR: recovery retrained (weight_refits_total != 0):" >&2
    grep '^weight_refits' "${build_dir}/crash_stats_rec1.txt" >&2 || true
    exit 1
  }
  local metrics_url stat_name
  metrics_url="$(grep -o 'http://[^ ]*/metrics' "${server_log}")"
  curl -sf "${metrics_url}" > "${build_dir}/crash_metrics_rec1.txt"
  # Histogram rows of --stats carry a '.' (name.p50, ...); the rest are
  # the STATS fields.
  for stat_name in $(grep -v '^[^=]*\.' "${build_dir}/crash_stats_rec1.txt" \
                     | cut -d= -f1); do
    grep -q "^# TYPE mosaic_${stat_name} " \
      "${build_dir}/crash_metrics_rec1.txt" || {
      echo "ERROR: /metrics has no '# TYPE mosaic_${stat_name}' line" >&2
      exit 1
    }
  done
  grep -q '^mosaic_weight_refits_total 0$' \
    "${build_dir}/crash_metrics_rec1.txt" || {
    echo "ERROR: /metrics lacks 'mosaic_weight_refits_total 0'" >&2
    exit 1
  }
  kill -TERM "${server_pid}"
  wait "${server_pid}"   # clean drain writes a final snapshot

  # Phase 3: boot again — now from the snapshot — and re-verify.
  start_server
  "${build_dir}/mosaic_client" --port="${port}" \
    "${q_closed}" "${q_open}" > "${build_dir}/crash_answers_rec2.txt"
  diff "${build_dir}/crash_answers_live.txt" \
       "${build_dir}/crash_answers_rec2.txt"
  "${build_dir}/mosaic_client" --port="${port}" --stats \
    | grep -q '^weight_refits_total=0$' || {
    echo "ERROR: snapshot recovery retrained" >&2; exit 1;
  }
  kill -TERM "${server_pid}"
  wait "${server_pid}"
  rm -rf "${data_dir}"
  echo "${name}: crash-recovery OK"
}

# Static-analysis leg: the repo-invariant lint gate, its self-tests,
# and (when a Clang toolchain is present) the thread-safety analysis
# build plus clang-tidy over changed files. Runs by default; `fast`
# skips it like the TSan leg. Every failure names the violated rule:
# lint.py prints `path:line: [rule] ...`, the analysis build fails on
# -Werror=thread-safety, and tidy findings carry their check name.
run_static() {
  echo "=== static: lint gate (scripts/lint.py) ==="
  python3 scripts/lint.py src
  echo "=== static: lint self-tests ==="
  python3 scripts/test_lint.py

  # The annotations must stay a no-op outside Clang: the deliberate
  # thread-safety violation below is well-formed C++ and has to pass a
  # plain GCC syntax check.
  echo "=== static: GCC no-op check on the compile-fail fixture ==="
  g++ -std=c++17 -fsyntax-only -Isrc tests/compile_fail/unguarded_access.cc

  if ! command -v clang++ >/dev/null 2>&1; then
    echo "static: clang++ not found; skipping thread-safety analysis" \
         "and clang-tidy (annotations compile as no-ops here)" >&2
    return 0
  fi

  echo "=== static: Clang thread-safety analysis build ==="
  cmake -B build-analyze -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER=clang++ -DMOSAIC_ANALYZE=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build-analyze -j "${JOBS}"

  # The negative control: a deliberately unguarded access must FAIL
  # under the analysis, or the whole leg is a rubber stamp.
  echo "=== static: compile-fail check (unguarded access must not build) ==="
  if clang++ -std=c++17 -fsyntax-only -Isrc \
       -Wthread-safety -Werror=thread-safety \
       tests/compile_fail/unguarded_access.cc 2>/dev/null; then
    echo "ERROR: rule thread-safety-analysis did not fire on" \
         "tests/compile_fail/unguarded_access.cc" >&2
    exit 1
  fi
  echo "compile-fail fixture rejected as expected"

  if command -v clang-tidy >/dev/null 2>&1; then
    # Tidy only what this branch touched: the full tree takes minutes
    # and legacy findings would drown new ones. Fall back to the last
    # commit's files when there is no merge base (shallow CI clones).
    echo "=== static: clang-tidy over changed files ==="
    local changed
    changed="$( (git diff --name-only --diff-filter=d origin/main... 2>/dev/null \
                 || git diff --name-only --diff-filter=d HEAD~1 2>/dev/null \
                 || true) | grep -E '^src/.*\.cc$' || true)"
    if [[ -z "${changed}" ]]; then
      echo "static: no changed src/*.cc files; skipping clang-tidy"
    else
      # shellcheck disable=SC2086
      clang-tidy -p build-analyze --quiet ${changed}
    fi
  else
    echo "static: clang-tidy not found; skipping" >&2
  fi
}

if [[ "${1:-}" != "fast" ]]; then
  run_static
fi

# Warnings are errors in the Release build, where GCC's -O3 inlining
# surfaces the most diagnostics.
run_suite "Release" build-release -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror
run_server_e2e "Release" build-release
run_crash_recovery "Release" build-release

# The end-to-end benchmark is its own CMake project over the engine's
# headers (IpfReport, QueryService, ...): build it here, so an engine
# change that breaks it fails CI instead of the next benchmark run, and
# run its statistics self-test.
echo "=== Release: perfbench build + self-test ==="
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j "${JOBS}" --target perfbench \
  perfbench_selftest
./build-perfbench/perfbench_selftest

# Tracing must never change results: run the cross-path SQL parity
# fuzzer and the service suite with per-query tracing forced on, so
# every parity assertion doubles as a traced-vs-untraced check. The
# system-tables suite rides along: its concurrent-introspection test
# hammers system.queries/system.metrics readers against traced
# writers asserting traced == untraced bit-identity, and MOSAIC_TRACE
# makes every other statement in the suite leave a full span tree in
# the ring those readers scan.
echo "=== Release + MOSAIC_TRACE=1: traced parity ==="
MOSAIC_TRACE=1 ctest --test-dir build-release --output-on-failure \
  -R 'test_(sql_fuzz|service|net_e2e|system_tables)'

# Scalar-parity leg: the SIMD kernels must be bit-identical to the
# scalar reference end to end, not just per kernel. MOSAIC_SIMD=0
# forces the scalar table; the SQL fuzzer and the exec parity suite
# then run batch vs the test-only row oracle (tests/oracle/), proving
# scalar-batch == oracle, which together with the default run
# (SIMD-batch == oracle) pins SIMD == scalar on whole query plans.
# test_executor's golden answers (BindAggregate.*) run here too.
echo "=== Release + MOSAIC_SIMD=0: scalar kernel parity ==="
MOSAIC_SIMD=0 ctest --test-dir build-release --output-on-failure \
  -R 'test_(sql_fuzz|exec_parity|simd_kernels|database|executor)'

# UBSan leg over the executor tests, the binary codec and durable
# storage suites and the reweighting kernels: the SIMD layer leans on
# casts, bit tricks, and alignment assumptions, the codec and storage
# engine add raw column-array copies and byte-level (de)serialization on
# top, and IPF and Marginal::CellIds index arrays with raw dictionary
# codes and cell ids; undefined-behavior findings there must fail CI
# even when the answers happen to come out right. The database and
# selection-type suites ride along because an all-rows selection is
# built there and read by the kernels as a null row list. (`codec` in
# the filter also selects test_codec_golden.)
echo "=== UBSan: executor + kernel + storage + reweight tests ==="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMOSAIC_SANITIZE=undefined
cmake --build build-ubsan -j "${JOBS}" --target \
  test_simd_kernels test_exec_parity test_executor test_sql_fuzz \
  test_codec test_codec_golden test_durable test_durable_recovery \
  test_ipf test_marginal test_reweight test_database test_table_view
UBSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-ubsan \
  --output-on-failure \
  -R 'test_(simd_kernels|exec_parity|executor|sql_fuzz|codec|durable|durable_recovery|ipf|marginal|reweight|database|table_view)'

# Bench JSON smoke: the bench binaries must emit parseable JSON with
# the latency histogram fields (BENCH_*.json feeds dashboards; a
# malformed file fails silently downstream otherwise). The durable
# bench reports throughputs and wall times, not latency histograms.
echo "=== Release: bench JSON smoke ==="
(
  cd build-release
  MOSAIC_BENCH_ROWS=20000 ./bench_executor >/dev/null
  ./bench_net 2 50 >/dev/null
  ./bench_durable >/dev/null
  python3 - <<'EOF'
import json, sys
for name, want_latency in [("BENCH_executor.json", True),
                           ("BENCH_net.json", True),
                           ("BENCH_durable.json", False)]:
    with open(name) as f:
        doc = json.load(f)
    hists = []
    if "latency_us" in doc:
        hists.append(doc["latency_us"])
    for section in doc.values():
        if isinstance(section, list):
            hists.extend(e["latency_us"] for e in section
                         if isinstance(e, dict) and "latency_us" in e)
    if want_latency and not hists:
        sys.exit(f"{name}: no latency_us histogram fields found")
    for h in hists:
        for field in ("count", "p50", "p95", "p99"):
            if field not in h:
                sys.exit(f"{name}: latency_us missing '{field}': {h}")
    print(f"{name}: OK ({len(hists)} latency summaries)")
EOF
)

run_suite "ASan" build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMOSAIC_SANITIZE=address
run_server_e2e "ASan" build-asan
run_crash_recovery "ASan" build-asan

if [[ "${1:-}" != "fast" ]]; then
  # TSan pass over the threaded subsystem tests (the full suite under
  # TSan is slow; these are the tests that exercise concurrency —
  # the thread pool, concurrent reads through the batch executor on
  # the shared request pool, readers racing writers, and parallel
  # OPEN generation).
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMOSAIC_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" --target \
    test_thread_pool test_lru_cache test_service test_sql_fuzz \
    test_net_e2e test_weight_epochs test_metrics_registry \
    test_system_tables test_event_log
  ctest --test-dir build-tsan --output-on-failure \
    -R 'test_(thread_pool|lru_cache|service|sql_fuzz|net_e2e|weight_epochs|metrics_registry|system_tables|event_log)'
  # And once more with tracing forced on, racing the query-log ring
  # and the system-table readers against traced execution.
  MOSAIC_TRACE=1 ctest --test-dir build-tsan \
    --output-on-failure \
    -R 'test_(thread_pool|lru_cache|service|sql_fuzz|net_e2e|weight_epochs|metrics_registry|system_tables|event_log)'
fi

# Latency regression gate: diff this run's BENCH_*.json against the
# saved baseline set and fail on >20% p50 regressions. The first run
# on a machine seeds the baseline (nothing to compare against yet);
# refresh it by deleting bench-baseline/ after an intentional perf
# change. A self-comparison runs either way so the comparator itself
# is exercised on every CI pass. The gate runs last, after the
# sanitizer legs: a failing gate still fails the script, but no longer
# stops those legs from running.
echo "=== Release: bench latency regression gate ==="
python3 scripts/bench_compare.py build-release build-release
if [[ -d bench-baseline ]]; then
  python3 scripts/bench_compare.py bench-baseline build-release
else
  mkdir -p bench-baseline
  cp build-release/BENCH_*.json bench-baseline/
  echo "bench-baseline/ seeded from this run; gate active on the next run"
fi

echo "All checks passed."

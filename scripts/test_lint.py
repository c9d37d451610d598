#!/usr/bin/env python3
"""Self-tests for scripts/lint.py against tests/lint_fixtures/.

Each bad/ fixture documents its expected findings in its header
comment; this driver asserts the exact (file, rule, count) shape so a
lint regression (rule stops firing, or starts over-firing) fails the
suite. The clean/ tree must produce zero findings. Registered in CMake
as the `lint_selftest` test; run directly with:

    python3 scripts/test_lint.py
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "scripts" / "lint.py"
FIXTURES = ROOT / "tests" / "lint_fixtures"


def run_lint(*paths):
    proc = subprocess.run(
        [sys.executable, str(LINT), *map(str, paths)],
        capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        # path:line: [rule] message
        if "] " not in line or ": [" not in line:
            continue
        path_part, rest = line.split(": [", 1)
        rule = rest.split("]", 1)[0]
        findings.append((Path(path_part.rsplit(":", 1)[0]).name, rule))
    return proc.returncode, findings


def expect(cond, message):
    if not cond:
        print("FAIL: %s" % message)
        return 1
    return 0


def main():
    failures = 0

    # --- bad/ tree: every rule fires, suppressions hold -------------
    rc, findings = run_lint(FIXTURES / "bad")
    counts = Counter(findings)
    failures += expect(rc == 1, "bad/ tree must exit 1 (got %d)" % rc)
    expected = {
        ("dropped_status.h", "nodiscard-status"): 3,
        ("naked_new.cc", "naked-new"): 3,
        ("protocol.cc", "wire-pointer-arith"): 2,
        ("codec.cc", "wire-pointer-arith"): 2,
        ("errno_read.cc", "errno-no-syscall"): 1,
        ("errno_read.cc", "bare-nolint"): 2,
    }
    for key, want in expected.items():
        got = counts.pop(key, 0)
        failures += expect(
            got == want,
            "%s [%s]: expected %d finding(s), got %d" % (*key, want, got))
    failures += expect(
        not counts, "unexpected findings in bad/: %s" % dict(counts))

    # --- clean/ tree: zero findings ---------------------------------
    rc, findings = run_lint(FIXTURES / "clean")
    failures += expect(rc == 0, "clean/ tree must exit 0 (got %d)" % rc)
    failures += expect(
        not findings, "clean/ tree produced findings: %s" % findings)

    # --- empty lint:allow justification is itself reported ----------
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        bad = Path(td) / "empty_allow.cc"
        bad.write_text(
            "int StaleRead() {\n"
            "  return errno;  // lint:allow errno-no-syscall:\n"
            "}\n")
        rc, findings = run_lint(bad)
        failures += expect(rc == 1, "empty allow must exit 1")
        failures += expect(
            ("empty_allow.cc", "errno-no-syscall") in findings,
            "empty lint:allow justification must be reported")

    # --- src/ may not reach the test-only row oracle ----------------
    with tempfile.TemporaryDirectory() as td:
        leak = Path(td) / "src" / "exec" / "leak.cc"
        leak.parent.mkdir(parents=True)
        leak.write_text(
            '#include "oracle/row_oracle.h"\n'
            "void Route(Options* opts) { opts->use_row_path = true; }\n")
        rc, findings = run_lint(leak)
        failures += expect(rc == 1, "oracle leak into src/ must exit 1")
        failures += expect(
            Counter(findings) == Counter({("leak.cc", "oracle-in-src"): 2}),
            "oracle include + use_row_path in src/ must give 2 "
            "oracle-in-src findings (got %s)" % findings)

    # --- the real tree is clean (the repo invariant itself) ---------
    rc, findings = run_lint(ROOT / "src")
    failures += expect(
        rc == 0, "src/ must be lint-clean (findings: %s)" % findings[:5])

    if failures:
        print("%d assertion(s) failed" % failures)
        return 1
    print("lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

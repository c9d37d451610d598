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

    # --- src/ may not reach the research library -------------------
    with tempfile.TemporaryDirectory() as td:
        leak = Path(td) / "src" / "core" / "leak.cc"
        leak.parent.mkdir(parents=True)
        leak.write_text(
            '#include "research/generator.h"\n'
            "#include <research/kde.h>\n")
        rc, findings = run_lint(leak)
        failures += expect(rc == 1, "research leak into src/ must exit 1")
        failures += expect(
            Counter(findings) == Counter({("leak.cc", "research-in-src"): 2}),
            "two research includes in src/ must give 2 research-in-src "
            "findings (got %s)" % findings)

    # --- each answer path keeps its engine behind its module --------
    with tempfile.TemporaryDirectory() as td:
        src = Path(td) / "src"
        files = {
            # Leaks: two engine includes outside their modules.
            "core/leak.cc": '#include "core/mswg.h"\n'
                            '#include "stats/ipf.h"\n',
            # The modules themselves, M-SWG's own source and stats/
            # may include them.
            "core/open_world.h": '#include "core/mswg.h"\n',
            "core/mswg.cc": '#include "core/mswg.h"\n',
            "core/semi_open.cc": '#include "stats/ipf.h"\n',
            "stats/marginal.cc": '#include "stats/ipf.h"\n',
        }
        for rel, text in files.items():
            (src / rel).parent.mkdir(parents=True, exist_ok=True)
            (src / rel).write_text(text)
        rc, findings = run_lint(src)
        failures += expect(rc == 1, "answer-path leak must exit 1")
        failures += expect(
            Counter(findings) ==
            Counter({("leak.cc", "answer-path-boundary"): 2}),
            "engine includes outside their modules must give exactly 2 "
            "answer-path-boundary findings (got %s)" % findings)

    # --- the serving path lexes each statement once -----------------
    with tempfile.TemporaryDirectory() as td:
        src = Path(td) / "src"
        files = {
            # Leaks: three re-lexing calls on the service path, one on
            # the net path.
            "service/leak.cc":
                "auto stmt = sql::ParseStatement(st->sql_);\n"
                "auto script = sql::ParseScript(text);\n"
                "if (auto key = CanonicalizeSql(sql); key.ok()) {}\n",
            "net/leak.cc": "auto key = service::CanonicalizeSql(sql);\n",
            # The wrapper's own declaration and definition, a comment,
            # and callers outside service/ and net/ are fine.
            "service/sql_canonical.h":
                "[[nodiscard]] Result<std::string> "
                "CanonicalizeSql(const std::string& sql);\n"
                "// CanonicalizeSql(sql) lexes; prefer the tokens.\n",
            "core/database.cc": "auto stmt = sql::ParseStatement(sql);\n",
        }
        for rel, text in files.items():
            (src / rel).parent.mkdir(parents=True, exist_ok=True)
            (src / rel).write_text(text)
        rc, findings = run_lint(src)
        failures += expect(rc == 1, "a re-lexing call must exit 1")
        failures += expect(
            Counter(findings) == Counter({("leak.cc", "lex-once"): 4}),
            "re-lexing calls in src/service and src/net must give exactly "
            "4 lex-once findings (got %s)" % findings)

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

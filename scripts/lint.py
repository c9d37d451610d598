#!/usr/bin/env python3
"""Repo-invariant lint gate for Mosaic C++ sources.

Enforces conventions the compilers cannot (portably) check:

  nodiscard-status    Declarations returning Status or Result<T> by
                      value must carry [[nodiscard]] so a dropped error
                      is a build warning everywhere, not just on
                      compilers that honour the class-level attribute.
  naked-new           No naked `new` / `delete` outside smart-pointer
                      wrapping: ownership must be visible in the type.
  wire-pointer-arith  The payload decoders (the shared codec
                      src/storage/codec.cc and the files decoding
                      through it: net/protocol.cc and the durable
                      serde, WAL, snapshot and engine files) must not
                      do raw pointer arithmetic on payload bytes;
                      reads go through the bounds-checked ByteReader.
  errno-no-syscall    `errno` may only be read in a statement block
                      that also issues a syscall: errno is only
                      meaningful immediately after a failing call.
  bare-nolint         clang-tidy suppressions must name a check and a
                      reason: `// NOLINT(check-name): why`. A bare
                      NOLINT silences everything and explains nothing.
  oracle-in-src       Production code under src/ must not include the
                      test-only row oracle (`oracle/...`) or mention
                      `use_row_path`, the switch that would route
                      queries to it.
  research-in-src     Production code under src/ must not include the
                      test- and bench-only research library
                      (`research/...`: the alternative OPEN engines and
                      distribution metrics).
  answer-path-boundary
                      Each answer path keeps its engine behind its own
                      module: within src/, only core/open_world.* and
                      core/mswg.cc include core/mswg.h (OPEN), and only
                      core/semi_open.* and stats/ include stats/ipf.h
                      (SEMI-OPEN).
  lex-once            Within src/service/ and src/net/, no call to
                      sql::ParseStatement, sql::ParseScript or
                      CanonicalizeSql: each lexes its text again. The
                      serving path lexes once (sql::Lex) and hands the
                      tokens to sql::ParseTokens and
                      CanonicalizeTokens.

Suppression: append `// lint:allow <rule>: <justification>` to the
offending line (or place it alone on the line above). The justification
is mandatory; an empty one is itself an error.

Usage:
    scripts/lint.py [paths...]     # default: src/

Exit status 0 when clean; 1 when any finding is reported. Each finding
is printed as `path:line: [rule] message`.
"""

import re
import sys
from pathlib import Path

RULES = (
    "nodiscard-status",
    "naked-new",
    "wire-pointer-arith",
    "errno-no-syscall",
    "bare-nolint",
    "oracle-in-src",
    "research-in-src",
    "answer-path-boundary",
    "lex-once",
)

# Files whose payload decoding is subject to wire-pointer-arith. Paths
# are matched by suffix so the rule follows the files if the tree is
# scanned from elsewhere (fixture tests pass their own roots).
WIRE_FILES = (
    "storage/codec.cc",
    "net/protocol.cc",
    "storage/durable/serde.cc",
    "storage/durable/wal.cc",
    "storage/durable/snapshot.cc",
    "storage/durable/engine.cc",
)

# Tokens that set errno: the syscalls and libc wrappers this codebase
# actually issues. Reading errno with none of these in the same brace
# block means the value observed belongs to some earlier, unrelated
# call.
SYSCALL_TOKENS = re.compile(
    r"\b(open|openat|close|read|write|pread|pwrite|lseek|fsync|"
    r"fdatasync|ftruncate|rename|unlink|mkdir|stat|fstat|mmap|munmap|"
    r"fopen|fclose|fread|fwrite|fflush|fseek|ftell|remove|"
    r"socket|bind|listen|accept|accept4|connect|send|recv|sendto|"
    r"recvfrom|setsockopt|getsockopt|shutdown|poll|pipe|pipe2|fcntl|"
    r"getaddrinfo|dup|dup2|ioctl|nanosleep|readdir|opendir)\s*\("
)

ALLOW_RE = re.compile(r"//\s*lint:allow\s+([a-z-]+)\s*:\s*(.*)")

MOD = r"(?:static\s+|virtual\s+|inline\s+|explicit\s+|constexpr\s+)*"
DECL_HEAD = re.compile(r"^(\s*)(" + MOD + r")(Status|Result<)")


def balanced_angle_end(s, i):
    """s[i] == '<'; index just past the matching '>' or -1."""
    depth = 0
    while i < len(s):
        if s[i] == "<":
            depth += 1
        elif s[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def is_comment(line):
    stripped = line.lstrip()
    return stripped.startswith(("//", "*", "/*"))


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, lineno, rule, message):
        self.items.append((str(path), lineno, rule, message))


def allowed(lines, idx, rule, findings, path):
    """True when line idx (0-based) carries/precedes a lint:allow for
    `rule`. An allow with an empty justification is reported and does
    NOT suppress."""
    # The allow may sit on the line itself or atop a comment-only block
    # immediately above (justifications are encouraged to wrap).
    probes = [idx]
    j = idx - 1
    while j >= 0 and not lines[j].split("//")[0].strip() \
            and lines[j].strip().startswith("//"):
        probes.append(j)
        j -= 1
    for probe in probes:
        m = ALLOW_RE.search(lines[probe])
        if m and m.group(1) == rule:
            if not m.group(2).strip():
                findings.add(
                    path, probe + 1, rule,
                    "lint:allow without a justification "
                    "(write `// lint:allow %s: <why>`)" % rule)
                return True  # suppress the original, report the empty allow
            return True
    return False


def check_nodiscard(path, lines, findings):
    for i, line in enumerate(lines):
        if is_comment(line) or "[[nodiscard]]" in line:
            continue
        m = DECL_HEAD.match(line)
        if not m:
            continue
        pos = m.end()
        if m.group(3) == "Result<":
            pos = balanced_angle_end(line, m.end() - 1)
            if pos < 0:
                continue  # template spans lines; cursor helpers don't
        # Require `<name>(` immediately after the return type; a
        # qualified name (`Type::Name`) is an out-of-line definition
        # whose declaration already carries the attribute.
        if not re.match(r"\s+\w+\s*\(", line[pos:]):
            continue
        if allowed(lines, i, "nodiscard-status", findings, path):
            continue
        findings.add(
            path, i + 1, "nodiscard-status",
            "declaration returning %s must be [[nodiscard]]"
            % ("Status" if m.group(3) == "Status" else "Result<T>"))


NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"(?<![=\w])\s*\bdelete\b(?!\s*;?\s*//)")


def check_naked_new(path, lines, findings):
    for i, line in enumerate(lines):
        if is_comment(line) or line.lstrip().startswith("#"):
            continue  # headers like <new> and #define are not new-exprs
        code = line.split("//")[0]
        if re.search(r"operator\s+(new|delete)", code):
            continue  # allocator machinery: calls, not new-expressions
        if NEW_RE.search(code):
            # A `new` handed straight to a smart pointer keeps
            # ownership in the type; placement of the wrap must be on
            # the same statement line for the exemption to apply.
            # The smart-pointer wrap may sit on the previous line of
            # the same statement (`return std::unique_ptr<Base>(\n
            # new Derived(...))`).
            ctx = (lines[i - 1].split("//")[0] if i > 0 else "") + code
            if any(t in ctx for t in ("unique_ptr", "shared_ptr",
                                      "make_unique", "make_shared",
                                      ".reset(")):
                pass
            elif allowed(lines, i, "naked-new", findings, path):
                pass
            else:
                findings.add(path, i + 1, "naked-new",
                             "naked `new` outside a smart-pointer wrap")
        if re.search(r"\bdelete\b", code) and \
                not re.search(r"=\s*delete\b", code):
            if not allowed(lines, i, "naked-new", findings, path):
                findings.add(path, i + 1, "naked-new",
                             "naked `delete` (use an owning type)")


WIRE_RE = re.compile(
    r"(\.data\(\)\s*[+\-]|\bdata_\s*[+\-]|\bbuf\s*\+\+|\bptr\s*[+\-][+=]?)"
)


def check_wire_arith(path, lines, findings):
    if not any(str(path).endswith(w) for w in WIRE_FILES):
        return
    for i, line in enumerate(lines):
        if is_comment(line):
            continue
        code = line.split("//")[0]
        if WIRE_RE.search(code):
            if allowed(lines, i, "wire-pointer-arith", findings, path):
                continue
            findings.add(
                path, i + 1, "wire-pointer-arith",
                "raw pointer arithmetic on wire bytes; use the "
                "bounds-checked cursor helpers")


ERRNO_RE = re.compile(r"\berrno\b")


def check_errno(path, lines, findings):
    if not str(path).endswith(".cc"):
        return
    for i, line in enumerate(lines):
        if is_comment(line):
            continue
        code = line.split("//")[0]
        if not ERRNO_RE.search(code):
            continue
        if SYSCALL_TOKENS.search(code):
            continue
        # Scan backwards through the enclosing statement block: a
        # syscall in the same or an enclosing block (up to the function
        # head) legitimises the read. Stop at a line that *closes* more
        # blocks than it opens at depth 0 relative to us, i.e. when the
        # cumulative depth delta drops below our starting point twice
        # (function boundary heuristic).
        depth = 0
        found = False
        for j in range(i - 1, max(-1, i - 40), -1):
            prev = lines[j].split("//")[0]
            depth += prev.count("}") - prev.count("{")
            if SYSCALL_TOKENS.search(prev):
                found = True
                break
            if depth < -1:
                break  # left the enclosing function scope
        if found:
            continue
        if allowed(lines, i, "errno-no-syscall", findings, path):
            continue
        findings.add(
            path, i + 1, "errno-no-syscall",
            "errno read with no syscall in the enclosing statement "
            "block; errno is only meaningful right after a failing call")


NOLINT_RE = re.compile(r"NOLINT(NEXTLINE)?(\(([^)]*)\))?(.*)")


def check_bare_nolint(path, lines, findings):
    for i, line in enumerate(lines):
        if "NOLINT" not in line:
            continue
        m = NOLINT_RE.search(line)
        checks = m.group(3)
        trailer = (m.group(4) or "").strip(" :-")
        if not checks or not checks.strip():
            findings.add(
                path, i + 1, "bare-nolint",
                "NOLINT must name the suppressed check: "
                "`NOLINT(check-name): reason`")
        elif not trailer:
            findings.add(
                path, i + 1, "bare-nolint",
                "NOLINT(%s) needs a justification after it" % checks)


ORACLE_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*["<]oracle/')


def check_oracle_in_src(path, lines, findings):
    if "src" not in Path(path).parts:
        return
    for i, line in enumerate(lines):
        if ORACLE_INCLUDE_RE.match(line):
            message = "src/ must not include the test-only row oracle"
        elif "use_row_path" in line:
            message = "src/ must not mention use_row_path"
        else:
            continue
        if not allowed(lines, i, "oracle-in-src", findings, path):
            findings.add(path, i + 1, "oracle-in-src", message)


RESEARCH_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*["<]research/')


def check_research_in_src(path, lines, findings):
    if "src" not in Path(path).parts:
        return
    for i, line in enumerate(lines):
        if not RESEARCH_INCLUDE_RE.match(line):
            continue
        if not allowed(lines, i, "research-in-src", findings, path):
            findings.add(path, i + 1, "research-in-src",
                         "src/ must not include the research library")


# Engine header -> (the src/-relative files, or directory prefixes
# ending in "/", allowed to include it; the module it belongs to).
ANSWER_PATH_HEADERS = {
    "core/mswg.h": (("core/open_world.h", "core/open_world.cc",
                     "core/mswg.cc"), "OPEN (core/open_world)"),
    "stats/ipf.h": (("core/semi_open.h", "core/semi_open.cc", "stats/"),
                    "SEMI-OPEN (core/semi_open)"),
}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*["<]([^">]+)[">]')


def check_answer_path_boundary(path, lines, findings):
    parts = Path(path).parts
    if "src" not in parts:
        return
    # Relative to the innermost src/ (fixture trees nest their own).
    src_at = len(parts) - 1 - parts[::-1].index("src")
    rel = "/".join(parts[src_at + 1:])
    for i, line in enumerate(lines):
        m = INCLUDE_RE.match(line)
        if m is None or m.group(1) not in ANSWER_PATH_HEADERS:
            continue
        allowed_in, module = ANSWER_PATH_HEADERS[m.group(1)]
        if any(rel == a or (a.endswith("/") and rel.startswith(a))
               for a in allowed_in):
            continue
        if not allowed(lines, i, "answer-path-boundary", findings, path):
            findings.add(path, i + 1, "answer-path-boundary",
                         "%s belongs to the %s module; go through it"
                         % (m.group(1), module))


# Entry points that lex their text: calls only, so the declaration
# and definition of CanonicalizeSql (after its `Result<...>` return
# type) do not count.
RELEX_RE = re.compile(
    r"\bsql::(ParseStatement|ParseScript)\s*\(|"
    r"(?<!>)(?<!>\s)\bCanonicalizeSql\s*\(")
LEX_ONCE_DIRS = ("service", "net")


def check_lex_once(path, lines, findings):
    parts = Path(path).parts
    if "src" not in parts:
        return
    src_at = len(parts) - 1 - parts[::-1].index("src")
    if len(parts) < src_at + 3 or parts[src_at + 1] not in LEX_ONCE_DIRS:
        return
    for i, line in enumerate(lines):
        if is_comment(line):
            continue
        m = RELEX_RE.search(line.split("//")[0])
        if m is None or allowed(lines, i, "lex-once", findings, path):
            continue
        findings.add(path, i + 1, "lex-once",
                     "%s lexes the text again; lex once and use "
                     "sql::ParseTokens / CanonicalizeTokens"
                     % m.group(0).rstrip("( "))


def lint_file(path, findings):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        findings.add(path, 0, "io", "unreadable: %s" % e)
        return
    lines = text.split("\n")
    check_nodiscard(path, lines, findings)
    check_naked_new(path, lines, findings)
    check_wire_arith(path, lines, findings)
    check_errno(path, lines, findings)
    check_bare_nolint(path, lines, findings)
    check_oracle_in_src(path, lines, findings)
    check_research_in_src(path, lines, findings)
    check_answer_path_boundary(path, lines, findings)
    check_lex_once(path, lines, findings)


def collect(paths):
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(q for q in p.rglob("*")
                              if q.suffix in (".h", ".cc")))
        else:
            out.append(p)
    return out


def main(argv):
    roots = argv[1:] or ["src"]
    findings = Findings()
    files = collect(roots)
    if not files:
        print("lint.py: no .h/.cc files under %s" % ", ".join(roots),
              file=sys.stderr)
        return 1
    for f in files:
        lint_file(f, findings)
    for path, lineno, rule, message in findings.items:
        print("%s:%d: [%s] %s" % (path, lineno, rule, message))
    if findings.items:
        print("lint.py: %d finding(s) across %d file(s); rules: %s"
              % (len(findings.items),
                 len({f[0] for f in findings.items}),
                 ", ".join(sorted({f[2] for f in findings.items}))),
              file=sys.stderr)
        return 1
    print("lint.py: %d files clean" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

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

#!/usr/bin/env python3
"""Repo-local lint: concurrency, determinism, and API-surface rules.

Dependency-free (stdlib only). Run from anywhere; lints the repository that
contains this script. Rules (each with a stable id, shown in findings):

  raw-sync        std::mutex / std::condition_variable / std::lock_guard /
                  std::unique_lock / std::scoped_lock / std::shared_mutex and
                  std::thread construction are banned outside src/util/ — use
                  the annotated wrappers in src/util/sync.h (Clang thread-safety
                  analysis only sees annotated types) and the shared ThreadPool.
  determinism     rand()/srand()/strtok()/wall-clock time (system_clock,
                  time(), gettimeofday, std::random_device) are banned in
                  src/learn, src/check, src/datagen, and src/fuzz:
                  bit-identical incremental relearn (DESIGN.md §6) depends on
                  learn/check being deterministic, and every fuzz failure must
                  reproduce from (seed, knobs) alone (DESIGN.md §13), so
                  generators and the fuzzer may draw entropy only from the
                  seeded SplitMix64 they are handed. Seeded RNG
                  (src/util/rng.h) and steady_clock deadlines are the
                  sanctioned alternatives.
  include-guard   every header uses an #ifndef/#define guard derived from its
                  repo-relative path (SRC_UTIL_SYNC_H_), no #pragma once, so
                  guards never collide and style stays uniform.
  include-path    quoted #includes are repo-root-relative (src/..., concord/...,
                  tests/...), never parent-relative (..), and must exist.
  error-code      every ErrorCode::kName reference names an enumerator of the
                  closed enum in src/util/error_code.h, and every enumerator
                  has a wire string in ErrorCodeName (the serve protocol's
                  error vocabulary is closed; DESIGN.md §7).
  no-tsa-escape   CONCORD_NO_THREAD_SAFETY_ANALYSIS appears nowhere outside
                  src/util/sync.h: escapes defeat the clang -Werror=thread-safety
                  CI gate.
  store-io        raw byte-level file I/O (fopen, fstream and friends, ::open)
                  is banned in src/store/ outside record_io.{h,cc}: every store
                  file is a framed, checksummed record written via the atomic
                  temp+fsync+rename path (DESIGN.md §10), and side-channel I/O
                  would bypass the corruption detection and crash-safety those
                  frames provide.
  hot-map         std::unordered_map/set (and the <unordered_map>/<unordered_set>
                  includes) are banned in src/check/, src/learn/ and
                  src/relations/ — the checker's scan and the learner's mine
                  and aggregate stages use the open-addressing FlatMap
                  (src/util/flat_map.h) or flat vectors; node-based hashing
                  costs a heap node per entry and a pointer chase per probe.
                  Annotate a line with `// lint: allow hot-map` only with a
                  measured justification.
  closed-enum-switch
                  switches over the closed enums ContractKind, RelationKind,
                  and ErrorCode in src/ must not have a `default:` label: a
                  defaulted switch silently swallows a newly added enumerator,
                  while an exhaustive one turns the addition into a compiler
                  diagnostic (-Wswitch) at every dispatch site.
  raw-socket      Berkeley socket calls (socket/bind/listen/accept/connect) and
                  epoll_* are banned in src/ outside the event-driven frontend
                  (src/service/socket_server.{h,cc} + event_loop.{h,cc}): all
                  connection lifecycle, admission, backpressure, and drain
                  handling lives there (DESIGN.md §11), and a private socket
                  would bypass those controls. Tests and benches may open
                  sockets freely — they are the clients.

`--self-test` lints the fixture tree in tools/lint_fixtures/ (each fixture
plants violations and declares them in `// LINT-EXPECT: <rule-id>` comments)
and exits nonzero unless every planted violation is caught and no unexpected
rule fires.
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SOURCE_DIRS = ("src", "include", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".cc"}

# --- rule: raw-sync ---------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::j?thread\b(?!::)"  # construction; std::thread::id etc. stay legal
)


def check_raw_sync(rel, lines, report):
    if rel.startswith("src/util/") or not rel.startswith("src/"):
        return
    for lineno, line in lines:
        m = RAW_SYNC_RE.search(line)
        if m:
            report("raw-sync", rel, lineno,
                   f"{m.group(0)} outside src/util/ — use src/util/sync.h "
                   "(concord::Mutex/MutexLock/CondVar) or the ThreadPool")


# --- rule: determinism ------------------------------------------------------

DETERMINISM_RE = re.compile(
    r"\b(?:s?rand\s*\(|strtok(?:_r)?\s*\(|gettimeofday\s*\(|"
    r"std::chrono::system_clock|std::random_device|"
    r"(?<![\w.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\))"
)


DETERMINISM_DIRS = ("src/learn/", "src/check/", "src/datagen/", "src/fuzz/")


def check_determinism(rel, lines, report):
    if not rel.startswith(DETERMINISM_DIRS):
        return
    for lineno, line in lines:
        m = DETERMINISM_RE.search(line)
        if m:
            report("determinism", rel, lineno,
                   f"{m.group(0).strip()} in {rel.split('/')[1]} stage — "
                   "relearn identity and (seed, knobs) fuzz repros require "
                   "determinism; use src/util/rng.h or steady_clock deadlines")


# --- rule: include-guard ----------------------------------------------------

def expected_guard(rel):
    return re.sub(r"[/.]", "_", rel).upper() + "_"


def check_include_guard(rel, lines, report):
    if not rel.endswith(".h"):
        return
    guard = expected_guard(rel)
    ifndef = None
    for lineno, line in lines:
        if "#pragma once" in line:
            report("include-guard", rel, lineno,
                   f"#pragma once — this tree uses #ifndef {guard} guards")
            return
        m = re.match(r"\s*#ifndef\s+(\S+)", line)
        if m:
            ifndef = (lineno, m.group(1))
            break
    if ifndef is None:
        report("include-guard", rel, 1, f"missing include guard #ifndef {guard}")
        return
    lineno, actual = ifndef
    if actual != guard:
        report("include-guard", rel, lineno,
               f"include guard {actual} does not match path (expected {guard})")


# --- rule: include-path -----------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')
INCLUDE_PREFIXES = ("src/", "include/", "concord/", "tests/", "bench/", "examples/")


def check_include_path(rel, lines, report, root):
    for lineno, line in lines:
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1)
        if ".." in target.split("/"):
            report("include-path", rel, lineno,
                   f'parent-relative include "{target}" — include repo-root-relative')
            continue
        if not target.startswith(INCLUDE_PREFIXES):
            report("include-path", rel, lineno,
                   f'include "{target}" is not repo-root-relative '
                   f"(expected one of {', '.join(INCLUDE_PREFIXES)})")
            continue
        # concord/ facades live under include/ on the include path.
        candidates = [root / target, root / "include" / target]
        if not any(c.is_file() for c in candidates):
            report("include-path", rel, lineno, f'include "{target}" does not exist')


# --- rule: error-code -------------------------------------------------------

ENUMERATOR_RE = re.compile(r"^\s*(k[A-Z]\w*),")
CASE_RE = re.compile(r"case\s+ErrorCode::(k\w+)\s*:")
USE_RE = re.compile(r"\bErrorCode::(k\w+)\b")


def load_error_codes(root, report):
    path = root / "src/util/error_code.h"
    if not path.is_file():
        return None  # Fixture trees have no enum; the rule still checks uses.
    enumerators, named = [], set()
    in_enum = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if "enum class ErrorCode" in line:
            in_enum = True
        elif in_enum and line.strip().startswith("}"):
            in_enum = False
        elif in_enum:
            m = ENUMERATOR_RE.match(line)
            if m:
                enumerators.append((lineno, m.group(1)))
        named.update(CASE_RE.findall(line))
    for lineno, name in enumerators:
        if name not in named:
            report("error-code", "src/util/error_code.h", lineno,
                   f"enumerator {name} has no wire string in ErrorCodeName()")
    return {name for _, name in enumerators}


def check_error_code(rel, lines, report, known):
    if known is None or rel == "src/util/error_code.h":
        return
    for lineno, line in lines:
        for name in USE_RE.findall(line):
            if name not in known:
                report("error-code", rel, lineno,
                       f"ErrorCode::{name} is not in the closed enum "
                       "(src/util/error_code.h) — the serve error vocabulary "
                       "is closed; add it there (an API change) or reuse one")


# --- rule: no-tsa-escape ----------------------------------------------------

def check_tsa_escape(rel, lines, report):
    if rel == "src/util/sync.h":
        return
    for lineno, line in lines:
        if "CONCORD_NO_THREAD_SAFETY_ANALYSIS" in line:
            report("no-tsa-escape", rel, lineno,
                   "NO_THREAD_SAFETY_ANALYSIS escape outside src/util/sync.h "
                   "defeats the clang -Werror=thread-safety gate; restructure "
                   "the locking instead")


# --- rule: store-io ---------------------------------------------------------

STORE_IO_RE = re.compile(
    r"\b(?:fopen|freopen|creat)\s*\("
    r"|\bstd::(?:basic_)?(?:i|o)?fstream\b|\bstd::filebuf\b"
    r"|::open\s*\("
)
STORE_IO_EXEMPT = {"src/store/record_io.h", "src/store/record_io.cc"}


def check_store_io(rel, lines, report):
    if not rel.startswith("src/store/") or rel in STORE_IO_EXEMPT:
        return
    for lineno, line in lines:
        m = STORE_IO_RE.search(line)
        if m:
            report("store-io", rel, lineno,
                   f"{m.group(0).strip()} in src/store/ — all store bytes go "
                   "through the framed-record module (src/store/record_io.h): "
                   "raw I/O bypasses checksums and the atomic rename path")


# --- rule: hot-map ----------------------------------------------------------

HOT_MAP_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\b"
    r"|#include\s*<unordered_(?:map|set)>"
)
HOT_MAP_DIRS = ("src/check/", "src/learn/", "src/relations/")
HOT_MAP_ALLOW = "lint: allow hot-map"


def check_hot_map(rel, lines, raw_by_line, report):
    """Matches on comment-stripped lines but consults the raw line for the
    allowlist marker, since the driver strips `//` comments before rules run."""
    if not rel.startswith(HOT_MAP_DIRS):
        return
    for lineno, line in lines:
        m = HOT_MAP_RE.search(line)
        if m and HOT_MAP_ALLOW not in raw_by_line.get(lineno, ""):
            report("hot-map", rel, lineno,
                   f"{m.group(0).strip()} on a hot path — use FlatMap "
                   "(src/util/flat_map.h) or a flat vector; node-based hashing "
                   "is a pointer chase per probe. '// lint: allow hot-map' "
                   "overrides with a measured justification")


# --- rule: closed-enum-switch -----------------------------------------------

CLOSED_ENUMS = {"ContractKind", "RelationKind", "ErrorCode"}
SWITCH_TOKEN_RE = re.compile(
    r"\bswitch\b|\{|\}|\bcase\s+((?:\w+::)*\w+)::k\w+\s*:|\bdefault\s*:"
)


def check_closed_enum_switch(rel, lines, report):
    """Brace-depth scan, not a parser: a `switch` arms the next `{` as a switch
    body; `case <Enum>::kX:` labels inside mark which enum it dispatches on."""
    if not rel.startswith("src/"):
        return
    depth = 0
    pending = 0   # `switch` seen, body brace not yet opened
    stack = []    # open switch bodies: [entry_depth, enum_name, default_lineno]
    for lineno, line in lines:
        for m in SWITCH_TOKEN_RE.finditer(line):
            token = m.group(0)
            if token == "{":
                depth += 1
                if pending:
                    pending -= 1
                    stack.append([depth, None, None])
            elif token == "}":
                if stack and stack[-1][0] == depth:
                    _, enum, default_lineno = stack.pop()
                    if enum in CLOSED_ENUMS and default_lineno is not None:
                        report("closed-enum-switch", rel, default_lineno,
                               f"default: in a switch over closed enum {enum} — "
                               "enumerate every case so adding an enumerator is "
                               "a -Wswitch diagnostic at this dispatch site, "
                               "not a silent fall-through")
                depth = max(0, depth - 1)
            elif token.startswith("switch"):
                pending += 1
            elif token.startswith("default") and stack:
                stack[-1][2] = lineno
            else:  # case <path>::kX:
                if stack:
                    stack[-1][1] = m.group(1).split("::")[-1]


# --- rule: raw-socket -------------------------------------------------------

# The lookahead skips manpage references like "listen(2)" in help strings and
# comments-in-strings: a real call's first argument is an fd expression, never
# a bare section number.
RAW_SOCKET_RE = re.compile(
    r"\b(?:socket|accept4?|bind|listen|connect|"
    r"epoll_(?:create1?|ctl|p?wait))\s*\((?!\s*\d+\s*\))"
)
SOCKET_EXEMPT = {
    "src/service/socket_server.h", "src/service/socket_server.cc",
    "src/service/event_loop.h", "src/service/event_loop.cc",
}


def check_raw_socket(rel, lines, report):
    if not rel.startswith("src/") or rel in SOCKET_EXEMPT:
        return
    for lineno, line in lines:
        for m in RAW_SOCKET_RE.finditer(line):
            before = line[:m.start()]
            # Member calls (router.connect(...)) and qualified names from other
            # namespaces (std::bind) are not the Berkeley syscalls this hunts;
            # a bare or ::-prefixed call is.
            if before.endswith((".", "->")) or re.search(r"\w::$", before):
                continue
            report("raw-socket", rel, lineno,
                   f"{m.group(0).strip()} outside the socket frontend — all "
                   "socket/epoll handling lives in src/service/socket_server.* "
                   "and event_loop.* so admission, backpressure, and drain "
                   "cover every connection (DESIGN.md §11)")


# --- driver -----------------------------------------------------------------

def strip_comments(line):
    """Drop // comments (and LINT-EXPECT markers) so prose never trips rules.

    Not a full lexer: block comments and string literals are not tracked, which
    is fine for the tokens these rules hunt (none appear in this tree's string
    literals; /* */ is not house style).
    """
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def iter_source_files(root):
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def lint_tree(root):
    findings = []

    def report(rule, rel, lineno, message):
        findings.append((rule, rel, lineno, message))

    known_codes = load_error_codes(root, report)
    for path in iter_source_files(root):
        rel = path.relative_to(root).as_posix()
        raw = path.read_text(errors="replace").splitlines()
        raw_by_line = dict(enumerate(raw, 1))
        lines = [(n, strip_comments(t)) for n, t in enumerate(raw, 1)]
        check_raw_sync(rel, lines, report)
        check_determinism(rel, lines, report)
        check_include_guard(rel, lines, report)
        check_include_path(rel, lines, report, root)
        check_error_code(rel, lines, report, known_codes)
        check_tsa_escape(rel, lines, report)
        check_store_io(rel, lines, report)
        check_hot_map(rel, lines, raw_by_line, report)
        check_closed_enum_switch(rel, lines, report)
        check_raw_socket(rel, lines, report)
    return findings


def self_test(fixtures_root):
    """Every fixture declares its planted violations; verify exact detection."""
    ok = True
    findings = lint_tree(fixtures_root)
    by_file = {}
    for rule, rel, lineno, _ in findings:
        by_file.setdefault(rel, []).append(rule)

    fixture_files = [p.relative_to(fixtures_root).as_posix()
                     for p in iter_source_files(fixtures_root)]
    if not fixture_files:
        print(f"self-test: no fixtures under {fixtures_root}", file=sys.stderr)
        return 1
    for rel in fixture_files:
        raw = (fixtures_root / rel).read_text()
        expected = sorted(re.findall(r"LINT-EXPECT:\s*([\w-]+)", raw))
        actual = sorted(by_file.get(rel, []))
        if expected != actual:
            ok = False
            print(f"self-test FAIL {rel}: expected {expected or 'clean'}, "
                  f"got {actual or 'clean'}", file=sys.stderr)
    if ok:
        print(f"self-test OK: {len(fixture_files)} fixtures, "
              f"{len(findings)} planted violations all caught")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree to lint (default: this repository)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint tools/lint_fixtures/ and verify every "
                             "planted violation is detected")
    args = parser.parse_args()

    if args.self_test:
        return self_test(REPO_ROOT / "tools" / "lint_fixtures")

    findings = lint_tree(args.root.resolve())
    for rule, rel, lineno, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Project-invariant linter: AST-light checks for the repo-specific
concurrency contracts no generic tool knows about.

Rules (catalog with rationale in docs/STATIC_ANALYSIS.md):

  cancellation-poll   Every function in the kernel layers (src/core, src/join,
                      src/engine .cc files) that receives a CancellationToken
                      or ExecContext must poll stop_requested() or forward the
                      token onward; designated kernel files must additionally
                      contain at least one amortized-stride poll, and every
                      stride mask used with a poll must be a power of two
                      minus one (a non-mask stride silently polls never or
                      always). A file that opens a "delta-probe" tracing span
                      (the continuous-join re-probe after a mutation batch)
                      must poll stop_requested() in its DeltaProbe*
                      implementation, so Cancel() lands mid-burst instead of
                      after a whole delta sweep.

  emit-under-lock     In src/core, src/engine and src/obs, ResultSink::Emit
                      (any .Emit()/->Emit() call) must not run while a
                      MutexLock is held — user code called under a library
                      lock is a deadlock factory. The one exception is a
                      lock over a mutex named *sink_mutex*, which exists
                      precisely to serialize Emit across producers (shard
                      pairs, PartitionedJoin's slabs).

  naked-lock          No .lock()/.unlock()/.try_lock() calls and no raw
                      std::mutex/lock_guard/unique_lock/condition_variable
                      outside util/thread_annotations.h: all locking goes
                      through the annotated Mutex/MutexLock/CondVar shims so
                      clang -Wthread-safety sees every acquisition.

  iwyu                src/engine and src/obs headers (plus the util headers
                      in that graph) must directly include what they use,
                      for a curated map of std symbols -> headers. Keeps the
                      include graph honest so refactors don't break builds
                      at a distance.

Usage:
    python3 tools/lint_invariants.py               # lint the tree
    python3 tools/lint_invariants.py --self-test   # run fixture suite
    python3 tools/lint_invariants.py FILE...       # lint specific files

Exit code 0 = clean, 1 = violations (or a failed self-test expectation).
"""

import argparse
import fnmatch
import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "lint_fixtures")

# Files that implement join kernels: each must keep at least one
# amortized-stride cancellation poll (`(i & 1023u) == 0 && ...`).
# engine.cc left this list when its last inline kernel loop (the INL probe)
# moved into the batched overlap kernel; overlap_kernel.cc left it when the
# kernel bodies (and the poll with them) moved into overlap_kernel_impl.h,
# the header the per-ISA dispatch TUs compile.
STRIDE_POLL_REQUIRED = (
    "src/core/overlap_kernel_impl.h",
    "src/core/touch.cc",
    "src/join/pbsm.cc",
)

# The only file allowed to touch raw std locking primitives.
LOCK_SHIM = "src/util/thread_annotations.h"

# Curated symbol -> required direct include. Deliberately small: every entry
# is a symbol this codebase actually uses and has been burned by (or would
# be) when an include arrived transitively.
IWYU_MAP = (
    (r"\bstd::mutex\b|\bstd::unique_lock\b|\bstd::lock_guard\b", "<mutex>"),
    (r"\bstd::condition_variable\b", "<condition_variable>"),
    (r"\b(?:u?int(?:8|16|32|64)_t)\b", "<cstdint>"),
    (r"\bsize_t\b", "<cstddef>"),
    (r"\bstd::function\b", "<functional>"),
    (r"\bstd::string\b", "<string>"),
    (r"\bstd::vector\b", "<vector>"),
    (r"\bstd::map\b|\bstd::multimap\b", "<map>"),
    (r"\bstd::deque\b", "<deque>"),
    (r"\bstd::list\b", "<list>"),
    (r"\bstd::array\b", "<array>"),
    (r"\bstd::atomic\b|\bstd::memory_order\w*\b", "<atomic>"),
    (r"\bstd::(?:shared_ptr|unique_ptr|weak_ptr|make_unique|make_shared|"
     r"enable_shared_from_this)\b", "<memory>"),
    (r"\bstd::optional\b|\bstd::nullopt\b", "<optional>"),
    (r"\bstd::span\b", "<span>"),
    (r"\bstd::(?:future|promise|shared_future|async)\b", "<future>"),
    (r"\bstd::thread\b", "<thread>"),
    (r"\bstd::ostream\b", "<ostream>"),
    (r"\bstd::pair\b|\bstd::move\b(?=\s*\()", "<utility>"),
    (r"\bstd::(?:tuple|tie)\b", "<tuple>"),
    (r"\bstd::chrono\b", "<chrono>"),
)

# Headers held to the iwyu rule: the engine+obs graph and the util headers
# it is built on.
IWYU_HEADER_GLOBS = (
    "src/engine/*.h",
    "src/obs/*.h",
    "src/util/cancellation.h",
    "src/util/thread_annotations.h",
)


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving offsets and
    newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def body_span(text, open_brace):
    """Span of a balanced {...} starting at open_brace (index of '{')."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace, i + 1
    return open_brace, len(text)


# --- Rule: cancellation-poll -------------------------------------------------

TOKEN_PARAM_RE = re.compile(
    r"(?:const\s+)?(?:CancellationToken|ExecContext)\s*&?\s*(\w+)\s*[,)]")
STRIDE_POLL_RE = re.compile(
    r"&\s*(?:0[xX][0-9a-fA-F]+|\d+)[uU]?[lL]*\s*\)\s*==\s*0")
MASK_VALUE_RE = re.compile(r"&\s*(0[xX][0-9a-fA-F]+|\d+)[uU]?[lL]*\s*\)\s*==")
# A DeltaProbe* function *definition* (params then '{', no ';' between).
DELTA_PROBE_FN_RE = re.compile(r"\bDeltaProbe\w*\s*\([^;{]*\)[^;{]*\{")


def check_cancellation(path, rel, raw, stripped, violations):
    # Functions taking a token must poll it or pass it on.
    for match in TOKEN_PARAM_RE.finditer(stripped):
        name = match.group(1)
        # Find the body: the next '{' at this nesting that follows the
        # parameter list's closing paren. Heuristic: first '{' after the
        # match that is preceded (ignoring whitespace) by ')' or 'const'
        # or a noexcept/annotation token — good enough for this codebase's
        # function-definition style.
        brace = stripped.find("{", match.end())
        if brace == -1:
            continue
        between = stripped[match.end():brace]
        if ";" in between:
            continue  # declaration, not a definition
        start, end = body_span(stripped, brace)
        body = stripped[start:end]
        polls = re.search(r"\bstop_requested\s*\(", body)
        forwards = re.search(r"[(,{&\s]" + re.escape(name) + r"\s*[,)]", body)
        member_use = re.search(re.escape(name) + r"\s*[.-]", body)
        if not (polls or forwards or member_use):
            violations.append(Violation(
                "cancellation-poll", path, line_of(stripped, match.start()),
                f"function takes cancellation state '{name}' but neither "
                f"polls stop_requested() nor forwards it"))

    # Stride masks near a poll must be power-of-two minus one.
    for match in MASK_VALUE_RE.finditer(stripped):
        window_start = stripped.rfind("\n", 0, max(0, match.start() - 160))
        window_end = stripped.find("\n", min(len(stripped), match.end() + 160))
        window = stripped[window_start:window_end if window_end != -1 else
                          len(stripped)]
        if "stop_requested" not in window:
            continue
        value = int(match.group(1), 0)
        if value == 0 or (value & (value + 1)) != 0:
            violations.append(Violation(
                "cancellation-poll", path, line_of(stripped, match.start()),
                f"cancellation poll stride mask {match.group(1)} is not a "
                f"power of two minus one; `(i & {value}) == 0` fires on an "
                f"irregular (or empty) subsequence"))

    # Designated kernel files must keep at least one amortized-stride poll.
    if rel in STRIDE_POLL_REQUIRED:
        found = False
        for match in STRIDE_POLL_RE.finditer(stripped):
            tail = stripped[match.end():match.end() + 120]
            if "stop_requested" in tail:
                found = True
                break
        if not found:
            violations.append(Violation(
                "cancellation-poll", path, 1,
                "kernel file lost its amortized-stride cancellation poll "
                "(`(i & MASKu) == 0 && ...stop_requested()`)"))

    # A file opening the "delta-probe" span (the standing-query re-probe run
    # after every mutation batch) must poll stop_requested() inside its
    # DeltaProbe* implementation: a cancelled subscription has to stop
    # mid-burst, not after the whole delta sweep has been emitted. The span
    # name is a string literal, so it is searched in the raw text.
    literal_pos = raw.find('"delta-probe"')
    if literal_pos != -1:
        probe_polls = False
        probe_bodies = 0
        for match in DELTA_PROBE_FN_RE.finditer(stripped):
            brace = stripped.find("{", match.start())
            start, end = body_span(stripped, brace)
            probe_bodies += 1
            if re.search(r"\bstop_requested\s*\(", stripped[start:end]):
                probe_polls = True
        if probe_bodies == 0:
            # No named helper: require the poll near the span itself.
            window = stripped[literal_pos:literal_pos + 2500]
            probe_polls = bool(re.search(r"\bstop_requested\s*\(", window))
        if not probe_polls:
            violations.append(Violation(
                "cancellation-poll", path, line_of(raw, literal_pos),
                'opens a "delta-probe" span but the delta-probe loop never '
                "polls stop_requested(); Cancel() would only take effect "
                "after a full post-mutation delta sweep"))


# --- Rule: emit-under-lock ---------------------------------------------------

# src/core joined when the TOUCH morsel loops made it call Emit beside
# helper threads: only the calling thread emits there, never under a lock.
EMIT_UNDER_LOCK_DIRS = ("src/core/", "src/engine/", "src/obs/")

MUTEXLOCK_DECL_RE = re.compile(
    r"\b(?:const\s+)?MutexLock\s+\w+\s*[({]([^;]*?)[)}]\s*;")
EMIT_CALL_RE = re.compile(r"(?:\.|->)\s*Emit\s*\(")


def check_emit_under_lock(path, raw, stripped, violations):
    events = []
    for match in MUTEXLOCK_DECL_RE.finditer(stripped):
        events.append((match.start(), "lock", match.group(1)))
    for match in EMIT_CALL_RE.finditer(stripped):
        events.append((match.start(), "emit", None))
    for pos, char in ((m.start(), m.group()) for m in
                      re.finditer(r"[{}]", stripped)):
        events.append((pos, char, None))
    events.sort(key=lambda e: e[0])

    depth = 0
    held = []  # (decl_depth, mutex_expr, pos)
    for pos, kind, payload in events:
        if kind == "{":
            depth += 1
        elif kind == "}":
            depth -= 1
            held = [h for h in held if h[0] <= depth]
        elif kind == "lock":
            held.append((depth, payload, pos))
        elif kind == "emit" and held:
            blocking = [h for h in held if "sink_mutex" not in h[1]]
            if blocking:
                violations.append(Violation(
                    "emit-under-lock", path, line_of(stripped, pos),
                    f"Emit() called while holding MutexLock over "
                    f"'{blocking[-1][1].strip()}' (acquired line "
                    f"{line_of(stripped, blocking[-1][2])}); emitting into "
                    f"user code under an engine lock risks deadlock"))


# --- Rule: naked-lock --------------------------------------------------------

NAKED_CALL_RE = re.compile(r"(?:\.|->)\s*(?:lock|unlock|try_lock)\s*\(\s*\)")
RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|condition_variable(?:_any)?)\b")


def check_naked_lock(path, rel, stripped, violations):
    if rel == LOCK_SHIM:
        return
    for match in NAKED_CALL_RE.finditer(stripped):
        violations.append(Violation(
            "naked-lock", path, line_of(stripped, match.start()),
            f"naked '{match.group().strip()}' call; lock through the "
            f"Mutex/MutexLock shims in {LOCK_SHIM} so the thread-safety "
            f"analysis sees the acquisition"))
    for match in RAW_PRIMITIVE_RE.finditer(stripped):
        violations.append(Violation(
            "naked-lock", path, line_of(stripped, match.start()),
            f"raw {match.group()} outside {LOCK_SHIM}; use the annotated "
            f"Mutex/MutexLock/CondVar shims"))


# --- Rule: iwyu --------------------------------------------------------------

def check_iwyu(path, raw, stripped, violations):
    includes = set(re.findall(r'^\s*#\s*include\s*([<"][^>"]+[>"])', raw,
                              re.MULTILINE))
    angle_includes = {inc for inc in includes if inc.startswith("<")}
    for symbol_re, header in IWYU_MAP:
        match = re.search(symbol_re, stripped)
        if match and header not in angle_includes:
            violations.append(Violation(
                "iwyu", path, line_of(stripped, match.start()),
                f"uses '{match.group()}' but does not directly include "
                f"{header}"))


# --- Driver ------------------------------------------------------------------

def repo_files(patterns):
    files = []
    for pattern in patterns:
        files.extend(sorted(glob.glob(os.path.join(REPO_ROOT, pattern))))
    return files


def lint_file(path, rules=None):
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    stripped = strip_comments_and_strings(raw)
    rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
    violations = []

    def want(rule):
        return rules is None or rule in rules

    in_kernel_layer = rel.startswith(("src/core/", "src/join/", "src/engine/"))
    if want("cancellation-poll") and (
            (rel.endswith(".cc") and in_kernel_layer)
            or rel in STRIDE_POLL_REQUIRED):
        check_cancellation(path, rel, raw, stripped, violations)
    if want("emit-under-lock") and rel.endswith(".cc") and rel.startswith(
            EMIT_UNDER_LOCK_DIRS):
        check_emit_under_lock(path, raw, stripped, violations)
    if want("naked-lock") and rel.startswith("src/"):
        check_naked_lock(path, rel, stripped, violations)
    if want("iwyu") and any(
            fnmatch.fnmatch(rel, pattern)
            for pattern in IWYU_HEADER_GLOBS):
        check_iwyu(path, raw, stripped, violations)
    return violations


def lint_tree():
    files = repo_files(("src/**/*.cc", "src/**/*.h"))
    violations = []
    for path in files:
        violations.extend(lint_file(path))
    return violations


# --- Self-test ---------------------------------------------------------------

EXPECT_RE = re.compile(r"//\s*EXPECT-(VIOLATION|CLEAN)(?::\s*(\S+))?")


def run_self_test():
    """Fixtures declare expectations in their first line:
       // EXPECT-VIOLATION: <rule>   -> that rule (and only rules of that
                                        name) must flag the file
       // EXPECT-CLEAN               -> no rule may flag the file
    Fixture paths mirror the real tree under tools/lint_fixtures/ so the
    path-scoped rules apply to them."""
    fixtures = sorted(
        glob.glob(os.path.join(FIXTURE_DIR, "**", "*.cc"), recursive=True) +
        glob.glob(os.path.join(FIXTURE_DIR, "**", "*.h"), recursive=True))
    if not fixtures:
        print(f"lint_invariants --self-test: no fixtures in {FIXTURE_DIR}")
        return 1
    failures = 0
    for path in fixtures:
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
        match = EXPECT_RE.search(first)
        if not match:
            print(f"SELF-TEST FAIL {path}: first line lacks an "
                  f"EXPECT-VIOLATION/EXPECT-CLEAN marker")
            failures += 1
            continue
        expectation, rule = match.group(1), match.group(2)
        violations = lint_fixture(path)
        names = {v.rule for v in violations}
        fixture_ok = True
        if expectation == "CLEAN" and violations:
            print(f"SELF-TEST FAIL {path}: expected clean, got:")
            for violation in violations:
                print(f"  {violation}")
            fixture_ok = False
        elif expectation == "VIOLATION":
            if not violations:
                print(f"SELF-TEST FAIL {path}: expected a '{rule}' "
                      f"violation, got none")
                fixture_ok = False
            elif rule and names != {rule}:
                print(f"SELF-TEST FAIL {path}: expected only '{rule}', "
                      f"got {sorted(names)}:")
                for violation in violations:
                    print(f"  {violation}")
                fixture_ok = False
        if not fixture_ok:
            failures += 1
        print(f"self-test {os.path.relpath(path, FIXTURE_DIR)}: "
              f"{'ok' if fixture_ok else 'FAIL'}")
    if failures:
        print(f"lint_invariants --self-test: {failures} failure(s)")
        return 1
    print(f"lint_invariants --self-test: {len(fixtures)} fixtures ok")
    return 0


def lint_fixture(path):
    """Lints a fixture as if it lived at its mirrored path under src/."""
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    stripped = strip_comments_and_strings(raw)
    rel = os.path.relpath(path, FIXTURE_DIR).replace(os.sep, "/")
    violations = []
    if (rel.endswith(".cc") and rel.startswith(
            ("src/core/", "src/join/", "src/engine/"))) or (
            rel in STRIDE_POLL_REQUIRED):
        check_cancellation(path, rel, raw, stripped, violations)
    if rel.endswith(".cc") and rel.startswith(EMIT_UNDER_LOCK_DIRS):
        check_emit_under_lock(path, raw, stripped, violations)
    if rel.startswith("src/"):
        check_naked_lock(path, rel, stripped, violations)
    if any(fnmatch.fnmatch(rel, pattern)
           for pattern in IWYU_HEADER_GLOBS):
        check_iwyu(path, raw, stripped, violations)
    return violations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*",
                        help="specific files to lint (default: whole tree)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite instead of linting")
    parser.add_argument("--rule", action="append", dest="rules",
                        help="restrict to the named rule (repeatable)")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test()

    if args.files:
        violations = []
        for path in args.files:
            violations.extend(lint_file(os.path.abspath(path), args.rules))
    else:
        violations = lint_tree()
        if args.rules:
            violations = [v for v in violations if v.rule in args.rules]

    for violation in violations:
        print(violation)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

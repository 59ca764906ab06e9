#!/usr/bin/env python3
"""rnt-lint: determinism and lock-discipline checks for the rnt tree.

A deliberately dependency-free linter (regex over comment/string-stripped
source) that enforces the project's concurrency and determinism rules
where the compiler cannot:

  raw-mutex            std::mutex / condition_variable / lock_guard /
                       unique_lock / scoped_lock / shared_mutex are banned
                       in the concurrent layers (src/lock, src/txn,
                       src/sim, src/faults, src/baseline). Use the
                       annotated rnt::Mutex / MutexLock / CondVar wrappers
                       (src/common/mutex.h) so Clang's -Wthread-safety can
                       verify the lock discipline. src/common/mutex.h
                       itself is the one sanctioned wrapper.
  nondeterminism       std::rand / srand / random_device / system_clock /
                       high_resolution_clock / time(...) are banned in the
                       deterministic layers (src/sim, src/dist): replayed
                       simulations and traces must depend only on the
                       seed. Use common/random.h (SplitMix64) and logical
                       clocks.
  unordered-container  std::unordered_{map,set,...} are banned in src/sim
                       and src/dist: iteration order is
                       implementation-defined and hash-seed dependent, so
                       anything it feeds (traces, logs, drain order)
                       breaks replay determinism. Use std::map/std::set.
                       src/txn/online_checker.{h,cc} opt into all the
                       deterministic-layer rules too: the checker's
                       verdicts, witness cycles, and rejection indices
                       are compared byte for byte against the post-hoc
                       oracle, so its iteration order must be stable.
                       The checker may declare hashed containers for
                       lookup (find/count/erase/operator[]), policed by
                       hashed-iteration instead.
  hashed-iteration     in the lookup-only files (src/txn/online_checker.*),
                       iterating a hashed container — a range-for over
                       it, begin()/cbegin()/std::begin on it, or
                       ForEach() on an rnt::FlatMap — is banned: the walk
                       order is hash order and would leak into verdicts
                       and witnesses. end() stays legal
                       (find(...) != end()). Names are those the file
                       declares with a std::unordered_* or FlatMap type
                       or an alias of one.
  pointer-keyed        std::map/std::set keyed by a raw pointer in src/sim
                       and src/dist iterate in address order, which varies
                       run to run. Key by a stable id instead.
  wall-clock-wait      sleep_for / sleep_until / wait_for / wait_until,
                       usleep / nanosleep, steady_clock and clock_gettime
                       reads, and poll() with a timeout other than -1
                       (the `poll(nullptr, 0, ms)` sleep or a capped wait
                       on fds) are banned in src/sim and src/dist: a timed
                       wait paces the simulation on the OS scheduler, so
                       outcomes (retry counts, message interleavings) stop
                       being functions of the seed. Pace on the logical
                       clock or spin counters; a liveness-only wait that
                       provably cannot change any recorded outcome may
                       suppress per line (e.g. the parallel runner's
                       supervisor poll, a reconnect backoff).
  owning-new           naked `new` / `delete` outside a smart-pointer
                       expression, anywhere under src/. Lock-free
                       structures that genuinely hand ownership through a
                       CAS may suppress per line.
  unannotated-mutex    a file in the concurrent layers that declares an
                       rnt::Mutex member must use GUARDED_BY / REQUIRES /
                       ACQUIRE somewhere: an unannotated mutex is opted
                       out of the analysis silently.
  unchecked-io         write / pwrite / fsync / fdatasync with the result
                       discarded, in the durable layer (src/storage). An
                       ignored short write or failed sync silently
                       downgrades "durable" to "probably durable": the
                       WAL reports commit while the bytes may be gone.
                       Consume the result (assign, test, return) or
                       suppress per line where loss is provably benign.
  status-must-use      a `(void)` cast applied to a call, anywhere under
                       src/. `(void)Foo(...)` is the one loophole through
                       [[nodiscard]] on Status/StatusOr — it compiles
                       silently, so a dropped commit/abort/flush outcome
                       never reaches a log or a caller. Handle the result
                       or suppress per line with a justification for why
                       the outcome is provably uninteresting. Exempt:
                       `(void)::close(fd)`-style casts of `::`-qualified
                       POSIX calls, whose only failure modes are already
                       covered by the unchecked-io rule, and bare
                       variable silences like `(void)arg;`.

Suppression: append `// rnt-lint: allow(<rule>)` to the offending line,
or put it alone on the line directly above. Suppressions should carry a
justification in the surrounding comment. `--list-allows` prints every
suppression in the tree (file:line + rules) as an auditable artifact.

Fixtures (tools/lint/fixtures/) declare the path they should be linted
as via a first-line `// lint-as: <relpath>` directive, so rule scoping
can be exercised from outside src/. `--selftest` runs every fixture and
checks that each bad_<rule>.cc trips exactly its rule and clean.cc trips
nothing. A fixture line carrying a `lint-expect` comment must itself be
flagged with the fixture's rule, so each red case counts on its own.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Callable, NamedTuple

SOURCE_SUFFIXES = {".cc", ".h", ".cpp", ".hpp"}

CONCURRENT_DIRS = ("src/lock", "src/txn", "src/sim", "src/faults",
                   "src/baseline", "src/storage", "src/frontend")
# The online checker is held to the deterministic-layer rules file by
# file: its witnesses and rejection indices must be identical run to
# run (differential tests compare them against the post-hoc oracle), so
# iteration order anywhere in its state would be a silent bug. The
# front end is deterministic-layer too: a fleet's submitted op stream
# is a pure function of (seed, client, round), which is what the bench
# oracle and the differential suite rely on.
DETERMINISTIC_DIRS = ("src/sim", "src/dist", "src/txn/online_checker.h",
                      "src/txn/online_checker.cc", "src/frontend")
# Deterministic-layer files allowed hashed containers for lookup only;
# the hashed-iteration rule keeps them from ever walking one.
LOOKUP_ONLY_HASH_FILES = ("src/txn/online_checker.h",
                          "src/txn/online_checker.cc")
DURABLE_DIRS = ("src/storage",)

# The sanctioned wrapper over the raw primitives.
RAW_MUTEX_EXEMPT = {"src/common/mutex.h"}

SUPPRESS_RE = re.compile(r"rnt-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
LINT_AS_RE = re.compile(r"^//\s*lint-as:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*lint-expect\b")


class Violation(NamedTuple):
    path: str
    line: int
    rule: str
    message: str


class Line(NamedTuple):
    number: int
    code: str      # comment- and string-stripped text
    raw: str       # original text (for directives that live in comments)


def strip_comments_and_strings(text: str) -> list[str]:
    """Returns per-line code with comments and string/char literals blanked.

    A lightweight scanner, not a real lexer: it tracks //, /* */, "...",
    '...' and escapes, which is enough for C++ that compiles. Raw strings
    are treated as plain strings (good enough: our rules target tokens
    that cannot legally appear mid-raw-string in this codebase).
    """
    out: list[str] = []
    cur: list[str] = []
    state = "code"  # code | line_comment | block_comment | dquote | squote
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(cur))
            cur = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "dquote"
                cur.append(" ")
                i += 1
                continue
            if c == "'":
                state = "squote"
                cur.append(" ")
                i += 1
                continue
            cur.append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        if state == "line_comment":
            i += 1
            continue
        # String/char literal states.
        if c == "\\":
            i += 2
            continue
        if (state == "dquote" and c == '"') or (state == "squote" and c == "'"):
            state = "code"
        i += 1
    out.append("".join(cur))
    return out


def in_dirs(relpath: str, prefixes: tuple[str, ...]) -> bool:
    return any(relpath == p or relpath.startswith(p + "/") for p in prefixes)


class Rule(NamedTuple):
    name: str
    applies: Callable[[str], bool]
    # Line-level check over (code, previous_code): returns a message if
    # the line violates the rule.
    check_line: Callable[[str, str], str | None]


RAW_MUTEX_RE = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")

NONDET_RE = re.compile(
    r"(std::rand\b|\bsrand\s*\(|std::random_device\b|random_device\b|"
    r"system_clock\b|high_resolution_clock\b|\btime\s*\(\s*(nullptr|NULL|0)\s*\)|"
    r"\bgettimeofday\s*\(|\bclock\s*\(\s*\))")

UNORDERED_RE = re.compile(
    r"std::unordered_(map|set|multimap|multiset)\b")

# The `*` must appear inside the first template argument (before any `,`
# or the closing `>`): `std::map<Node*, int>` is pointer-keyed,
# `std::set<NodeId>*` is merely a pointer to a set.
POINTER_KEY_RE = re.compile(
    r"std::(map|set|multimap|multiset)\s*<\s*[^,>]*\*")

# A poll() counts as timed unless its timeout is the literal -1 on the
# same line; a method named poll (`t.poll(`, `t->poll(`) is not matched.
WALL_CLOCK_WAIT_RE = re.compile(
    r"(\b(sleep_for|sleep_until|wait_for|wait_until)\s*\(|steady_clock\b"
    r"|\b(usleep|nanosleep|clock_nanosleep|clock_gettime)\s*\("
    r"|(?<![\w.>])poll\s*\((?![^;]*,\s*-1\s*\)))")

# The raw POSIX durability calls. The negative lookbehind rejects method
# calls (`file.write`, `s->write`), identifiers that merely end in the
# token (`WriteAll` never matches: capital W), and re-matching the bare
# name inside an already-matched `::write`.
UNCHECKED_IO_RE = re.compile(
    r"(?<![\w.:>])(::\s*)?(write|pwrite|fsync|fdatasync)\s*\(")
# What an immediately-preceding context must end with for the call's
# result to count as consumed: an assignment, a return, an enclosing
# call/condition, a comparison, or a logical operator.
IO_CONSUMED_TAIL_RE = re.compile(
    r"(=|\breturn|\(|,|!|&&|\|\||\?|:|==|!=|<|>)\s*$")

# A `(void)` cast whose operand is a call: `(void)Foo(`, `(void)x->Foo(`,
# `(void)a.b.Foo(`, `(void)ns::Foo(`. A leading `::` (global qualifier)
# marks a raw POSIX call and is exempt; a cast of a bare variable
# (`(void)arg;` — no call parens) never matches.
VOID_DISCARD_RE = re.compile(
    r"\(\s*void\s*\)\s*([A-Za-z_]\w*(?:\s*(?:\.|->|::)\s*[A-Za-z_]\w*)*)"
    r"\s*\(")
VOID_POSIX_RE = re.compile(r"\(\s*void\s*\)\s*::")

NAKED_NEW_RE = re.compile(r"\bnew\b")
NAKED_DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?")
SMART_WRAP_RE = re.compile(
    r"(make_unique|make_shared|unique_ptr|shared_ptr|weak_ptr)")
DELETED_FN_RE = re.compile(r"=\s*delete\b")


def check_raw_mutex(code: str, prev_code: str = "") -> str | None:
    m = RAW_MUTEX_RE.search(code)
    if m:
        return (f"raw std::{m.group(1)} in a concurrent layer; use the "
                "annotated rnt::Mutex/MutexLock/CondVar (common/mutex.h) so "
                "-Wthread-safety can check the discipline")
    return None


def check_nondeterminism(code: str, prev_code: str = "") -> str | None:
    m = NONDET_RE.search(code)
    if m:
        return (f"nondeterminism source `{m.group(0).strip()}` in a "
                "deterministic layer; derive everything from the seed "
                "(common/random.h) or a logical clock")
    return None


def check_unordered(code: str, prev_code: str = "") -> str | None:
    m = UNORDERED_RE.search(code)
    if m:
        return (f"std::unordered_{m.group(1)} in a deterministic layer; "
                "iteration order is hash-seed dependent and breaks replay — "
                "use std::map/std::set")
    return None


def check_pointer_keyed(code: str, prev_code: str = "") -> str | None:
    if POINTER_KEY_RE.search(code):
        return ("ordered container keyed by a raw pointer iterates in "
                "address order, which varies run to run; key by a stable id")
    return None


def check_wall_clock_wait(code: str, prev_code: str = "") -> str | None:
    m = WALL_CLOCK_WAIT_RE.search(code)
    if m:
        return (f"wall-clock wait `{m.group(0).strip().rstrip('(').strip()}` "
                "in a deterministic layer; timed waits pace the simulation "
                "on the OS scheduler — use the logical clock or spin "
                "counters (suppress only for liveness-only polls that "
                "cannot change a recorded outcome)")
    return None


def check_owning_new(code: str, prev_code: str = "") -> str | None:
    if DELETED_FN_RE.search(code):
        code = DELETED_FN_RE.sub(" ", code)
    # A smart-pointer wrap may sit on the previous line when the
    # expression wrapped (`return std::unique_ptr<T>(\n    new T(...))`).
    if SMART_WRAP_RE.search(code) or SMART_WRAP_RE.search(prev_code):
        return None
    if NAKED_NEW_RE.search(code):
        return ("naked `new` outside a smart-pointer expression; use "
                "std::make_unique/std::make_shared")
    if NAKED_DELETE_RE.search(code):
        return ("naked `delete`; ownership should live in a smart pointer")
    return None


def check_unchecked_io(code: str, prev_code: str = "") -> str | None:
    m = UNCHECKED_IO_RE.search(code)
    if m is None:
        return None
    prefix = code[:m.start()].rstrip()
    # Consumed on this line (`rc = ::fsync(fd)`, `if (::write(...) < 0)`),
    # or on the previous line when the assignment wrapped.
    if prefix:
        if IO_CONSUMED_TAIL_RE.search(prefix):
            return None
    elif IO_CONSUMED_TAIL_RE.search(prev_code.rstrip()):
        return None
    call = m.group(2)
    return (f"`{call}` with the result discarded in the durable layer; an "
            "ignored short write or failed sync silently drops durability — "
            "consume the result (assign/test/return a Status) or suppress "
            "per line where loss is provably benign")


def check_status_must_use(code: str, prev_code: str = "") -> str | None:
    if VOID_POSIX_RE.search(code):
        return None
    m = VOID_DISCARD_RE.search(code)
    if m:
        return (f"`(void){m.group(1)}(...)` discards a call result through "
                "the one loophole in [[nodiscard]]; handle the Status (log, "
                "propagate, or branch) or suppress per line with a "
                "justification for why the outcome cannot matter")
    return None


RULES: list[Rule] = [
    Rule("raw-mutex",
         lambda rel: in_dirs(rel, CONCURRENT_DIRS) and
         rel not in RAW_MUTEX_EXEMPT,
         check_raw_mutex),
    Rule("nondeterminism",
         lambda rel: in_dirs(rel, DETERMINISTIC_DIRS),
         check_nondeterminism),
    Rule("unordered-container",
         lambda rel: in_dirs(rel, DETERMINISTIC_DIRS) and
         rel not in LOOKUP_ONLY_HASH_FILES,
         check_unordered),
    Rule("pointer-keyed",
         lambda rel: in_dirs(rel, DETERMINISTIC_DIRS),
         check_pointer_keyed),
    Rule("wall-clock-wait",
         lambda rel: in_dirs(rel, DETERMINISTIC_DIRS),
         check_wall_clock_wait),
    Rule("owning-new",
         lambda rel: in_dirs(rel, ("src",)),
         check_owning_new),
    Rule("unchecked-io",
         lambda rel: in_dirs(rel, DURABLE_DIRS),
         check_unchecked_io),
    Rule("status-must-use",
         lambda rel: in_dirs(rel, ("src",)),
         check_status_must_use),
]

HASHED_TYPE_RE = re.compile(
    r"(?:std::unordered_(?:map|set|multimap|multiset)|\bFlatMap)\s*<")
HASHED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std::unordered_|(?:rnt::)?FlatMap\b)")
IDENT_RE = re.compile(r"\s*(?:const\s*)?[&*]*\s*([A-Za-z_]\w*)")
# A range-for's range expression: everything after the lone `:` (not
# `::`) up to the closing parenthesis.
RANGE_FOR_RE = re.compile(r"\bfor\s*\((.*?[^:]):(?!:)(.*)\)")
LAST_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def hashed_names(code: str) -> set[str]:
    """Names a file declares with a hashed container type (or alias)."""
    names: set[str] = set()
    aliases = set(HASHED_ALIAS_RE.findall(code))
    for m in HASHED_TYPE_RE.finditer(code):
        depth, i = 1, m.end()
        while i < len(code) and depth:
            depth += {"<": 1, ">": -1}.get(code[i], 0)
            i += 1
        ident = IDENT_RE.match(code, i)
        if ident:
            names.add(ident.group(1))
    for alias in aliases:
        names.update(re.findall(rf"\b{alias}\s+([A-Za-z_]\w*)", code))
    return names - aliases


def hashed_iteration(code: str, names: set[str]) -> str | None:
    for m in RANGE_FOR_RE.finditer(code):
        last = LAST_IDENT_RE.search(m.group(2).strip())
        if last and last.group(1) in names:
            return (f"range-for over hashed container `{last.group(1)}` in "
                    "a lookup-only file; its order is hash-seed dependent — "
                    "iterate an ordered index instead")
    for name in names:
        if re.search(rf"\b{name}\s*(?:\.|->)\s*c?begin\s*\(", code) or \
                re.search(rf"std::c?begin\s*\(\s*[\w.>\-]*\b{name}\s*\)",
                          code):
            return (f"begin() on hashed container `{name}` in a lookup-only "
                    "file; its order is hash-seed dependent — iterate an "
                    "ordered index instead")
        if re.search(rf"\b{name}\s*(?:\.|->)\s*ForEach\s*\(", code):
            return (f"ForEach() on hashed container `{name}` in a "
                    "lookup-only file; it walks in hash order — iterate an "
                    "ordered index instead")
    return None


MUTEX_DECL_RE = re.compile(r"^\s*(mutable\s+)?(rnt::)?Mutex\s+\w+")
ANNOTATION_RE = re.compile(
    r"\b(GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE|RELEASE|"
    r"EXCLUDES|ASSERT_CAPABILITY)\s*\(")


def suppressions_for(lines: list[Line], idx: int) -> set[str]:
    """Rules suppressed for lines[idx]: same-line or previous-line allow()."""
    allowed: set[str] = set()
    for source in (lines[idx].raw,
                   lines[idx - 1].raw if idx > 0 else ""):
        m = SUPPRESS_RE.search(source)
        if m:
            allowed.update(r.strip() for r in m.group(1).split(","))
    return allowed


def lint_text(text: str, relpath: str, display_path: str,
              companion: str = "") -> list[Violation]:
    """Lints one file. `companion` is the source of the header a .cc
    implements, whose hashed-container declarations the .cc inherits."""
    stripped = strip_comments_and_strings(text)
    raw_lines = text.split("\n")
    lines = [Line(i + 1, code, raw_lines[i] if i < len(raw_lines) else "")
             for i, code in enumerate(stripped)]
    active = [r for r in RULES if r.applies(relpath)]
    out: list[Violation] = []
    for i, ln in enumerate(lines):
        if not ln.code.strip():
            continue
        prev_code = lines[i - 1].code if i > 0 else ""
        allowed = None  # computed lazily: most lines are clean
        for rule in active:
            msg = rule.check_line(ln.code, prev_code)
            if msg is None:
                continue
            if allowed is None:
                allowed = suppressions_for(lines, i)
            if rule.name in allowed:
                continue
            out.append(Violation(display_path, ln.number, rule.name, msg))
    # File-level rule: a hashed container the file declares is lookup-only.
    if relpath in LOOKUP_ONLY_HASH_FILES:
        names = hashed_names("\n".join(ln.code for ln in lines) + "\n" +
                             "\n".join(strip_comments_and_strings(companion)))
        for i, ln in enumerate(lines):
            msg = hashed_iteration(ln.code, names) if names else None
            if msg and "hashed-iteration" not in suppressions_for(lines, i):
                out.append(Violation(display_path, ln.number,
                                     "hashed-iteration", msg))
    # File-level rule: a declared Mutex member without a single annotation
    # means the file opted out of the analysis silently.
    if (in_dirs(relpath, CONCURRENT_DIRS)
            and relpath not in RAW_MUTEX_EXEMPT
            and any(MUTEX_DECL_RE.match(ln.code) for ln in lines)
            and not any(ANNOTATION_RE.search(ln.code) for ln in lines)):
        decl = next(ln for ln in lines if MUTEX_DECL_RE.match(ln.code))
        if "unannotated-mutex" not in suppressions_for(
                lines, decl.number - 1):
            out.append(Violation(
                display_path, decl.number, "unannotated-mutex",
                "file declares an rnt::Mutex but never uses "
                "GUARDED_BY/REQUIRES/ACQUIRE; annotate what the mutex "
                "protects so -Wthread-safety covers it"))
    return out


def lint_file(path: pathlib.Path, root: pathlib.Path) -> list[Violation]:
    text = path.read_text(encoding="utf-8", errors="replace")
    relpath = path.relative_to(root).as_posix()
    # Fixtures pretend to live at their lint-as path.
    first = text.split("\n", 1)[0]
    m = LINT_AS_RE.match(first)
    if m:
        relpath = m.group(1)
    companion = ""
    if relpath in LOOKUP_ONLY_HASH_FILES and relpath.endswith(".cc"):
        header = root / (relpath[:-len(".cc")] + ".h")
        if header.is_file():
            companion = header.read_text(encoding="utf-8", errors="replace")
    return lint_text(text, relpath, str(path), companion)


def iter_sources(root: pathlib.Path):
    for sub in ("src",):
        base = root / sub
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                yield p


def run_tree(root: pathlib.Path, paths: list[pathlib.Path]) -> int:
    targets = paths if paths else list(iter_sources(root))
    violations: list[Violation] = []
    for p in targets:
        violations.extend(lint_file(p, root))
    for v in violations:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if violations:
        print(f"rnt-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"rnt-lint: clean ({len(targets)} files)")
    return 0


def run_list_allows(root: pathlib.Path) -> int:
    """Audit mode: print every `rnt-lint: allow(...)` in the tree.

    One line per suppression — `path:line: rule[, rule...]` — in a stable
    (path, line) order so the output diffs cleanly as a CI artifact. The
    count on the final line makes suppression creep visible at a glance.
    Always exits 0: this is an inventory, not a gate.
    """
    entries: list[tuple[str, int, str]] = []
    for p in iter_sources(root):
        rel = p.relative_to(root).as_posix()
        for i, raw in enumerate(
                p.read_text(encoding="utf-8", errors="replace").split("\n")):
            m = SUPPRESS_RE.search(raw)
            if m:
                rules = ", ".join(r.strip() for r in m.group(1).split(","))
                entries.append((rel, i + 1, rules))
    for rel, line, rules in entries:
        print(f"{rel}:{line}: {rules}")
    print(f"rnt-lint: {len(entries)} suppression(s) in the tree")
    return 0


def run_selftest(root: pathlib.Path) -> int:
    fixtures = root / "tools" / "lint" / "fixtures"
    if not fixtures.is_dir():
        print(f"rnt-lint: no fixtures at {fixtures}", file=sys.stderr)
        return 2
    failures = 0
    cases = sorted(fixtures.glob("*.cc"))
    if not cases:
        print("rnt-lint: fixture directory is empty", file=sys.stderr)
        return 2
    for case in cases:
        got = lint_file(case, root)
        rules_hit = {v.rule for v in got}
        name = case.stem
        if name.startswith("bad_"):
            expected = name[len("bad_"):].replace("_", "-")
            flagged = {v.line for v in got if v.rule == expected}
            missed = [i + 1 for i, text in enumerate(
                          case.read_text(encoding="utf-8").split("\n"))
                      if EXPECT_RE.search(text) and i + 1 not in flagged]
            if expected in rules_hit and not missed:
                print(f"PASS {case.name}: tripped [{expected}]")
            else:
                failures += 1
                print(f"FAIL {case.name}: expected [{expected}], got "
                      f"{sorted(rules_hit) or 'nothing'}"
                      + (f"; lint-expect lines not flagged: {missed}"
                         if missed else ""), file=sys.stderr)
        else:  # clean fixtures must be accepted
            if got:
                failures += 1
                print(f"FAIL {case.name}: expected clean, got "
                      f"{sorted(rules_hit)}", file=sys.stderr)
                for v in got:
                    print(f"  {v.path}:{v.line}: [{v.rule}]", file=sys.stderr)
            else:
                print(f"PASS {case.name}: clean")
    if failures:
        print(f"rnt-lint selftest: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"rnt-lint selftest: all {len(cases)} fixtures behaved")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="rnt_lint.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels up)")
    ap.add_argument("--selftest", action="store_true",
                    help="lint the fixtures and verify each trips its rule")
    ap.add_argument("--list-allows", action="store_true",
                    help="audit mode: print every rnt-lint allow() "
                         "suppression in the tree and exit 0")
    ap.add_argument("paths", nargs="*", type=pathlib.Path,
                    help="specific files to lint (default: all of src/)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.selftest:
        return run_selftest(root)
    if args.list_allows:
        return run_list_allows(root)
    return run_tree(root, [p.resolve() for p in args.paths])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""rt3-lint: mechanized determinism & concurrency contract for this repo.

The ROADMAP's standing rule — "everything is bit-deterministic by
construction; new sources of nondeterminism must be seeded or quarantined
behind flags" — is enforced here as grep-grade static checks over the C++
tree (src/, tests/, bench/, tools/*.{cpp,hpp}).  Stdlib-only, like
bench_compare.py and check_trace.py.

Rules (run with --list-rules for the one-liners):

  wall-clock    Direct clock primitives (steady_clock/system_clock/
                high_resolution_clock, time(), clock(), gettimeofday,
                clock_gettime) anywhere but src/common/wall_time.hpp.
                Virtual serving time never comes from the host clock.
  wall-timing   wall_now()/wall_ms_since()/WallTimePoint outside the
                measured-timing whitelist (kernel timing, plan swaps,
                tuner, calibration, opt-in trace wall stamps).  Wall time
                is for measuring real work, not for logic.
  rng           rand()/srand()/std::random_device/std::mt19937/... outside
                src/common/rng.*.  All randomness flows through rt3::Rng
                (xoshiro256**), which is bit-stable across platforms;
                <random> distributions are not.
  missing-seed  Default-constructed rt3::Rng in src/ (`Rng r;`, `Rng()`).
                Every generator takes an explicit seed expression, so the
                seed path is auditable; members seeded in a constructor
                initializer list carry an inline allow saying so.
  hash-order    std::unordered_{map,set,...} anywhere.  Iteration order is
                hash/pointer order — nondeterministic across runs and
                libstdc++ versions — so every use must assert (via allow)
                that the container is lookup-only and never iterated into
                output, serialization, or scheduling.
  float-format  In serializer TUs (to_json/to_chrome_json/to_prometheus/
                serialize): any printf float conversion that is not
                %.17g, or stream precision set to anything but 17.
                17 significant digits round-trip a double exactly; less
                silently truncates artifacts that must byte-round-trip.
  raw-parallel  #pragma omp anywhere; thread_local anywhere without an
                inline allow; std::thread construction in src/ outside
                src/exec/thread_pool.*.  Parallelism goes through
                rt3::ThreadPool so pinning, poisoned-drain, and lockdep
                coverage apply.
  raw-mutex     std::mutex / condition_variable / lock_guard / unique_lock
                in src/ outside common/lockdep.*.  Raw std primitives
                carry no thread-safety capability annotations and no
                lockdep instrumentation; use rt3::Mutex, rt3::MutexLock,
                rt3::UniqueLock, rt3::CondVar (common/lockdep.hpp).
  bare-allow    An rt3-lint allow annotation with no reason text.
  stale-allow   An allow annotation that suppresses nothing (the finding
                it silenced was fixed, or the rule name is misspelled).

Suppression: append `// rt3-lint: allow(<rule>) <reason>` to the
offending line, or put it on a comment line directly above.  Several
rules can share one annotation: allow(rule-a, rule-b) <reason>.

Usage:
    rt3_lint.py [--root DIR] [--json] [--rule NAME] [--list-rules]

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Rule table.  `scope` limits which top-level directories are scanned;
# `exempt` paths (repo-relative, POSIX) never produce findings for the
# rule; files in `exempt_dirs` likewise.
# --------------------------------------------------------------------------

# Measured-timing whitelist: the files whose *job* is timing real work.
# wall_time.hpp's docstring names the categories; keep this list short
# and intentional — a new entry is a review decision, not a convenience.
WALL_TIMING_FILES = (
    "src/common/wall_time.hpp",    # the helpers themselves
    "src/exec/measured_backend.cpp",  # kernel batch timing
    "src/exec/plan.cpp",           # plan build / pointer-swap timing
    "src/exec/tuner.cpp",          # autotuner candidate measurement
    "src/runtime/engine.cpp",      # reconfiguration wall cost
    "src/core/pipeline.cpp",       # Table III mask-recomposition timing
    "src/obs/trace.hpp",           # opt-in wall stamps (record_wall)
    "src/obs/trace.cpp",
    "tests/test_exec_backend.cpp",  # pinned-pool jitter sanity bound
    "bench/bench_serve_traffic.cpp",  # trace-overhead wall comparison
)

RULES = {
    "wall-clock": {
        "pattern": re.compile(
            r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
            r"|\bgettimeofday\s*\("
            r"|\bclock_gettime\s*\("
            r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
            r"|\bclock\s*\(\s*\)"),
        "scope": ("src", "tests", "bench", "tools"),
        "exempt": ("src/common/wall_time.hpp",),
        "message": "direct wall-clock primitive; go through "
                   "src/common/wall_time.hpp (wall_now / wall_ms_since)",
    },
    "wall-timing": {
        "pattern": re.compile(
            r"\bwall_now\s*\(|\bwall_ms_since\s*\(|\bWallTimePoint\b"),
        "scope": ("src", "tests", "bench", "tools"),
        "exempt": WALL_TIMING_FILES,
        "message": "wall-time measurement outside the measured-timing "
                   "whitelist (WALL_TIMING_FILES in tools/rt3_lint.py); "
                   "serving logic runs on the virtual clock",
    },
    "rng": {
        "pattern": re.compile(
            r"\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\bmt19937(?:_64)?\b"
            r"|\bdefault_random_engine\b|\bminstd_rand0?\b"
            r"|\branlux(?:24|48)\b|\bknuth_b\b"),
        "scope": ("src", "tests", "bench", "tools"),
        "exempt": ("src/common/rng.hpp", "src/common/rng.cpp"),
        "message": "non-reproducible RNG source; all randomness flows "
                   "through rt3::Rng (src/common/rng.hpp) from an explicit "
                   "seed",
    },
    "missing-seed": {
        "pattern": re.compile(
            r"\bRng\s+\w+\s*;|\bRng\s+\w+\s*\{\s*\}|\bRng\s*\(\s*\)"),
        "scope": ("src",),
        "exempt": ("src/common/rng.hpp", "src/common/rng.cpp"),
        "message": "default-constructed Rng relies on the implicit seed; "
                   "pass an explicit seed expression (or allow with the "
                   "constructor that seeds it)",
    },
    "hash-order": {
        "pattern": re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
        "scope": ("src", "tests", "bench", "tools"),
        "exempt": (),
        "skip_includes": True,
        "message": "hash containers iterate in nondeterministic order; "
                   "allow only with a reason asserting the container is "
                   "lookup-only (never iterated into output/scheduling)",
    },
    "float-format": {
        # Handled specially: scans string literals for printf float
        # conversions and the stripped text for precision() calls, only
        # in serializer TUs.
        "pattern": None,
        "scope": ("src", "tests", "bench", "tools"),
        "exempt": (),
        "message": "float formatting in a serializer TU must be %.17g "
                   "(exact double round-trip)",
    },
    "raw-parallel": {
        # thread_local and omp matched everywhere; std::thread handled
        # with its own exempt list below.
        "pattern": re.compile(r"#\s*pragma\s+omp\b|\bthread_local\b"),
        "scope": ("src", "tests", "bench", "tools"),
        "exempt": (),
        "message": "raw parallelism primitive; use rt3::ThreadPool (or "
                   "allow with the reason the per-thread state is safe)",
    },
    "raw-mutex": {
        "pattern": re.compile(
            r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|"
            r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
            r"condition_variable|condition_variable_any|lock_guard|"
            r"unique_lock|scoped_lock|shared_lock)\b"),
        "scope": ("src",),
        "exempt": ("src/common/lockdep.hpp", "src/common/lockdep.cpp"),
        "message": "raw std synchronization primitive carries no "
                   "thread-safety annotations and no lockdep coverage; "
                   "use rt3::Mutex / MutexLock / UniqueLock / CondVar "
                   "(src/common/lockdep.hpp)",
    },
}

# std::thread construction is part of raw-parallel but has its own
# whitelist: the pool itself.
STD_THREAD_PATTERN = re.compile(r"\bstd\s*::\s*thread\b(?!\s*::)")
STD_THREAD_EXEMPT = (
    "src/exec/thread_pool.hpp",
    "src/exec/thread_pool.cpp",
)

SERIALIZER_MARKERS = re.compile(
    r"\bto_json\b|\bto_chrome_json\b|\bto_prometheus\b|\bserialize\b")
PRINTF_FLOAT = re.compile(r"%[-+ #0-9.*]*[aAeEfFgG]")
PRECISION_CALL = re.compile(
    r"(?:\.\s*precision|\bsetprecision)\s*\(\s*(\d+)\s*\)")

ALLOW_RE = re.compile(
    r"rt3-lint:\s*allow\(\s*([a-zA-Z-]+(?:\s*,\s*[a-zA-Z-]+)*)\s*\)\s*(.*)")

EXTENSIONS = (".cpp", ".hpp")


def strip_comments_and_strings(text):
    """Returns `text` with comments and string/char literal CONTENTS
    replaced by spaces, preserving every line break and column so
    (line, column) positions in the result map 1:1 onto the original.
    Handles //, /* */, "...", '...', and R"delim(...)delim"."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            blank(i, j + 2)
            i = j + 2
        elif c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if m is None:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n - len(close) if j == -1 else j
            blank(i + m.end(), j)
            i = j + len(close)
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


def parse_allows(lines):
    """Returns ({line: {rule: reason}}, [bare allow lines], annotations).

    An annotation suppresses findings on its own line; a comment-only
    annotation line also covers the line directly below it.  `annotations`
    is [(physical_line, rule, covered_lines)] for stale detection."""
    allows = {}
    bare = []
    annotations = []
    for ln, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if m is None:
            continue
        rules = [r.strip() for r in m.group(1).split(",")]
        reason = m.group(2).strip()
        if not reason:
            bare.append(ln)
        targets = [ln]
        if line.lstrip().startswith("//"):
            targets.append(ln + 1)
        for rule in rules:
            annotations.append((ln, rule, tuple(targets)))
        for target in targets:
            entry = allows.setdefault(target, {})
            for rule in rules:
                entry[rule] = reason
    return allows, bare, annotations


def find_string_literals(line):
    """Yields the contents of ordinary "..." literals on a raw line,
    skipping escaped quotes (good enough for format strings)."""
    for m in re.finditer(r'"((?:[^"\\]|\\.)*)"', line):
        yield m.group(1)


class Finding:
    def __init__(self, path, line, rule, message, snippet):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.snippet = snippet

    def as_dict(self):
        return {
            "file": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self):
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
                f"    {self.snippet.strip()}\n"
                f"    (intentional? append: // rt3-lint: allow({self.rule}) "
                f"<reason>)")


def scan_file(root, rel_path, only_rule=None):
    """Returns (findings, suppressed_count, used_allow_keys, annotations)."""
    with open(os.path.join(root, rel_path), encoding="utf-8") as f:
        text = f.read()
    raw_lines = text.split("\n")
    stripped_lines = strip_comments_and_strings(text).split("\n")
    allows, bare, annotations = parse_allows(raw_lines)

    top = rel_path.split("/", 1)[0]
    findings = []
    suppressed = 0
    used = set()  # (line, rule) annotation keys that earned their keep

    def emit(ln, rule, message, snippet):
        nonlocal suppressed
        reason = allows.get(ln, {}).get(rule)
        if reason is not None:
            suppressed += 1
            used.add((ln, rule))
            return
        findings.append(Finding(rel_path, ln, rule, message, snippet))

    is_serializer = SERIALIZER_MARKERS.search(
        "\n".join(stripped_lines)) is not None

    for name, rule in RULES.items():
        if only_rule is not None and name != only_rule:
            continue
        if top not in rule["scope"]:
            continue
        if rel_path in rule["exempt"]:
            continue
        if name == "float-format":
            if not is_serializer:
                continue
            for ln, raw in enumerate(raw_lines, start=1):
                for literal in find_string_literals(raw):
                    for spec in PRINTF_FLOAT.findall(literal):
                        if spec != "%.17g":
                            emit(ln, name,
                                 rule["message"] + f" (found {spec})", raw)
                for m in PRECISION_CALL.finditer(stripped_lines[ln - 1]):
                    if m.group(1) != "17":
                        emit(ln, name,
                             rule["message"] +
                             f" (found precision {m.group(1)})", raw)
            continue
        pattern = rule["pattern"]
        for ln, line in enumerate(stripped_lines, start=1):
            if rule.get("skip_includes") and raw_lines[ln - 1].lstrip() \
                    .startswith("#include"):
                continue
            if pattern.search(line):
                emit(ln, name, rule["message"], raw_lines[ln - 1])
        if name == "raw-parallel" and top == "src" \
                and rel_path not in STD_THREAD_EXEMPT:
            for ln, line in enumerate(stripped_lines, start=1):
                if STD_THREAD_PATTERN.search(line):
                    emit(ln, name,
                         "std::thread outside src/exec/thread_pool.*; "
                         "use rt3::ThreadPool", raw_lines[ln - 1])

    if only_rule in (None, "bare-allow"):
        for ln in bare:
            findings.append(Finding(
                rel_path, ln, "bare-allow",
                "allow annotation without a reason; say WHY the use is "
                "intentional", raw_lines[ln - 1]))
    return findings, suppressed, used, (annotations, raw_lines)


def discover(root):
    """Repo-relative POSIX paths of every scanned file, sorted."""
    paths = []
    for top in ("src", "tests", "bench", "tools"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for fname in sorted(names):
                if fname.endswith(EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, fname), root)
                    paths.append(rel.replace(os.sep, "/"))
    return sorted(paths)


def run(root, only_rule=None, as_json=False, out=sys.stdout):
    files = discover(root)
    all_findings = []
    total_suppressed = 0
    for rel in files:
        findings, suppressed, used, (annotations, raw_lines) = scan_file(
            root, rel, only_rule)
        all_findings.extend(findings)
        total_suppressed += suppressed
        if only_rule in (None, "stale-allow"):
            for ln, rule, covered in annotations:
                # An annotation earns its keep if a finding on ANY line it
                # covers (its own, plus the next for comment-line allows)
                # was suppressed by it.
                if any((target, rule) in used for target in covered):
                    continue
                if rule not in RULES:
                    message = f"allow() names unknown rule '{rule}'"
                else:
                    message = (f"stale allow({rule}): nothing it covers "
                               "triggers the rule; delete the annotation")
                all_findings.append(Finding(
                    rel, ln, "stale-allow", message, raw_lines[ln - 1]))
    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if as_json:
        json.dump({
            "version": 1,
            "root": os.path.abspath(root),
            "files_scanned": len(files),
            "suppressed": total_suppressed,
            "findings": [f.as_dict() for f in all_findings],
        }, out, indent=2)
        out.write("\n")
    else:
        for finding in all_findings:
            out.write(finding.render() + "\n")
        out.write(f"rt3-lint: {len(files)} files, {len(all_findings)} "
                  f"finding(s), {total_suppressed} suppressed\n")
    return 1 if all_findings else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="repo-specific determinism/concurrency lint")
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    parser.add_argument("--rule", default=None,
                        help="run a single rule")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, rule in RULES.items():
            print(f"{name:14s} {rule['message']}")
        print(f"{'bare-allow':14s} allow annotation missing its reason")
        print(f"{'stale-allow':14s} allow annotation that suppresses nothing")
        return 0
    if args.rule is not None and args.rule not in RULES and \
            args.rule not in ("bare-allow", "stale-allow"):
        print(f"rt3-lint: unknown rule '{args.rule}' (see --list-rules)",
              file=sys.stderr)
        return 2
    root = args.root
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"rt3-lint: {root} does not look like the repo root "
              "(no src/)", file=sys.stderr)
        return 2
    return run(root, args.rule, args.json)


if __name__ == "__main__":
    sys.exit(main())

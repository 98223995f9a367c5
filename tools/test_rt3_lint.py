#!/usr/bin/env python3
"""Self-test for rt3_lint.py: every rule fires on a seeded fixture,
every suppression works, stale/bare allows are themselves findings.
Stdlib-only (unittest); run directly or via ctest (rt3_lint_selftest).
"""

import json
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import rt3_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    """Builds a throwaway repo root per test: write_file() then lint()."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        os.makedirs(os.path.join(self.root, "src"))

    def tearDown(self):
        self._tmp.cleanup()

    def write_file(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    def lint(self, only_rule=None):
        """Returns (exit_code, findings list-of-dicts, report dict)."""
        out = io.StringIO()
        code = rt3_lint.run(self.root, only_rule=only_rule, as_json=True,
                            out=out)
        report = json.loads(out.getvalue())
        return code, report["findings"], report

    def assert_fires(self, rule, rel, text, only_rule=None):
        self.write_file(rel, text)
        code, findings, _ = self.lint(only_rule)
        self.assertEqual(code, 1, f"{rule}: expected a finding\n{text}")
        self.assertTrue(any(f["rule"] == rule and f["file"] == rel
                            for f in findings),
                        f"{rule}: not among {findings}")
        return [f for f in findings if f["rule"] == rule]

    def assert_clean(self, rel, text, only_rule=None):
        self.write_file(rel, text)
        code, findings, _ = self.lint(only_rule)
        self.assertEqual(code, 0, f"expected clean, got {findings}")


class TestWallClock(LintFixture):
    def test_steady_clock_fires(self):
        self.assert_fires(
            "wall-clock", "src/a.cpp",
            "auto t = std::chrono::steady_clock::now();\n")

    def test_time_call_fires(self):
        self.assert_fires("wall-clock", "src/a.cpp",
                          "srand_seed = time(nullptr);\n")

    def test_wall_time_hpp_exempt(self):
        self.assert_clean(
            "src/common/wall_time.hpp",
            "inline auto wall_now() { return std::chrono::steady_clock::"
            "now(); }\n", only_rule="wall-clock")

    def test_comment_mention_clean(self):
        self.assert_clean("src/a.cpp",
                          "// steady_clock is banned here\nint x = 0;\n")

    def test_string_mention_clean(self):
        self.assert_clean(
            "src/a.cpp",
            'const char* msg = "no steady_clock allowed";\n')

    def test_allow_suppresses(self):
        self.assert_clean(
            "src/a.cpp",
            "auto t = std::chrono::steady_clock::now();"
            "  // rt3-lint: allow(wall-clock) calibration one-off\n")


class TestWallTiming(LintFixture):
    def test_wall_now_outside_whitelist_fires(self):
        self.assert_fires("wall-timing", "src/serve/server.cpp",
                          "double t = wall_ms_since(wall_now());\n",
                          only_rule="wall-timing")

    def test_whitelisted_file_clean(self):
        self.assert_clean("src/exec/tuner.cpp",
                          "const auto t0 = wall_now();\n",
                          only_rule="wall-timing")


class TestRng(LintFixture):
    def test_mt19937_fires(self):
        self.assert_fires("rng", "src/a.cpp", "std::mt19937 gen(42);\n")

    def test_random_device_fires(self):
        self.assert_fires("rng", "tests/t.cpp", "std::random_device rd;\n")

    def test_rand_fires(self):
        self.assert_fires("rng", "bench/b.cpp", "int r = rand() % 6;\n")

    def test_rng_header_exempt(self):
        self.assert_clean("src/common/rng.hpp",
                          "// xoshiro256**, not mt19937\nclass Rng {};\n")


class TestMissingSeed(LintFixture):
    def test_default_ctor_fires(self):
        self.assert_fires("missing-seed", "src/a.cpp", "Rng rng;\n")

    def test_brace_ctor_fires(self):
        self.assert_fires("missing-seed", "src/a.cpp", "Rng rng{};\n")

    def test_seeded_clean(self):
        self.assert_clean("src/a.cpp", "Rng rng(config.seed);\n")

    def test_tests_out_of_scope(self):
        # Member declarations in tests are seeded ad hoc; src-only rule.
        self.assert_clean("tests/t.cpp", "Rng rng;\n",
                          only_rule="missing-seed")

    def test_comment_line_allow_covers_next_line(self):
        self.assert_clean(
            "src/a.cpp",
            "// rt3-lint: allow(missing-seed) seeded in the init list\n"
            "Rng rng;\n")


class TestHashOrder(LintFixture):
    def test_unordered_map_fires(self):
        self.assert_fires("hash-order", "src/a.cpp",
                          "std::unordered_map<int, int> m;\n")

    def test_include_line_skipped(self):
        self.assert_clean("src/a.cpp", "#include <unordered_map>\n")

    def test_allow_suppresses(self):
        self.assert_clean(
            "src/a.cpp",
            "std::unordered_set<int> seen;"
            "  // rt3-lint: allow(hash-order) membership only\n")


class TestFloatFormat(LintFixture):
    def test_low_precision_printf_in_serializer_fires(self):
        found = self.assert_fires(
            "float-format", "src/a.cpp",
            'std::string to_json() { char b[32]; '
            'snprintf(b, 32, "%.6f", x); return b; }\n')
        self.assertIn("%.6f", found[0]["message"])

    def test_17g_clean(self):
        self.assert_clean(
            "src/a.cpp",
            'std::string to_json() { char b[32]; '
            'snprintf(b, 32, "%.17g", x); return b; }\n')

    def test_non_serializer_tu_ignored(self):
        self.assert_clean("src/a.cpp",
                          'printf("%.3f\\n", progress);\n',
                          only_rule="float-format")

    def test_precision_15_fires(self):
        self.assert_fires(
            "float-format", "src/a.cpp",
            "std::string to_json() { os.precision(15); return os.str(); }\n")

    def test_setprecision_17_clean(self):
        self.assert_clean(
            "src/a.cpp",
            "std::string to_json() { os << std::setprecision(17) << x; "
            "return os.str(); }\n")

    def test_int_format_clean(self):
        self.assert_clean(
            "src/a.cpp",
            'std::string to_json() { snprintf(b, 32, "%d %s", i, s); '
            "return b; }\n")


class TestRawParallel(LintFixture):
    def test_omp_fires(self):
        self.assert_fires("raw-parallel", "src/a.cpp",
                          "#pragma omp parallel for\n")

    def test_thread_local_fires(self):
        self.assert_fires("raw-parallel", "src/a.cpp",
                          "thread_local int depth = 0;\n")

    def test_std_thread_in_src_fires(self):
        self.assert_fires("raw-parallel", "src/a.cpp",
                          "std::thread t([] {});\n")

    def test_std_thread_in_pool_clean(self):
        self.assert_clean("src/exec/thread_pool.cpp",
                          "workers_.emplace_back(std::thread([] {}));\n",
                          only_rule="raw-parallel")

    def test_hardware_concurrency_clean(self):
        self.assert_clean(
            "src/a.cpp",
            "auto n = std::thread::hardware_concurrency();\n",
            only_rule="raw-parallel")

    def test_std_thread_in_tests_clean(self):
        # Tests may spin raw threads to attack the pool from outside.
        self.assert_clean("tests/t.cpp", "std::thread t([] {});\n",
                          only_rule="raw-parallel")


class TestRawMutex(LintFixture):
    def test_std_mutex_fires(self):
        self.assert_fires("raw-mutex", "src/a.cpp", "std::mutex mu;\n")

    def test_condition_variable_fires(self):
        self.assert_fires("raw-mutex", "src/a.cpp",
                          "std::condition_variable cv;\n")

    def test_lockdep_files_exempt(self):
        self.assert_clean("src/common/lockdep.hpp", "std::mutex mu_;\n",
                          only_rule="raw-mutex")

    def test_tests_out_of_scope(self):
        self.assert_clean("tests/t.cpp", "std::mutex mu;\n",
                          only_rule="raw-mutex")


class TestAllows(LintFixture):
    def test_bare_allow_is_a_finding(self):
        self.assert_fires("bare-allow", "src/a.cpp",
                          "std::mutex mu;  // rt3-lint: allow(raw-mutex)\n")

    def test_stale_allow_is_a_finding(self):
        found = self.assert_fires(
            "stale-allow", "src/a.cpp",
            "int x = 0;  // rt3-lint: allow(raw-mutex) leftover\n")
        self.assertIn("stale", found[0]["message"])

    def test_unknown_rule_in_allow_is_a_finding(self):
        found = self.assert_fires(
            "stale-allow", "src/a.cpp",
            "std::mutex mu;  // rt3-lint: allow(raw-mutx) typo\n")
        self.assertIn("unknown rule", found[0]["message"])

    def test_multi_rule_allow(self):
        self.assert_clean(
            "src/a.cpp",
            "// rt3-lint: allow(raw-parallel, hash-order) per-thread cache\n"
            "thread_local std::unordered_map<int, int> cache;\n")

    def test_allow_does_not_leak_to_other_lines(self):
        self.write_file(
            "src/a.cpp",
            "std::mutex a;  // rt3-lint: allow(raw-mutex) intentional\n"
            "std::mutex b;\n")
        code, findings, _ = self.lint()
        self.assertEqual(code, 1)
        self.assertEqual([f["line"] for f in findings
                          if f["rule"] == "raw-mutex"], [2])


class TestReport(LintFixture):
    def test_json_shape_and_exit_codes(self):
        self.write_file("src/a.cpp", "std::mutex mu;\nRng r;\n")
        code, findings, report = self.lint()
        self.assertEqual(code, 1)
        self.assertEqual(report["version"], 1)
        self.assertEqual(report["files_scanned"], 1)
        for f in findings:
            self.assertEqual(sorted(f.keys()),
                             ["file", "line", "message", "rule", "snippet"])
        rules = sorted(f["rule"] for f in findings)
        self.assertEqual(rules, ["missing-seed", "raw-mutex"])

    def test_clean_repo_exits_zero(self):
        self.write_file("src/a.cpp", "int main() { return 0; }\n")
        code, findings, report = self.lint()
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])
        self.assertEqual(report["suppressed"], 0)

    def test_suppression_counted(self):
        self.write_file(
            "src/a.cpp",
            "std::mutex mu;  // rt3-lint: allow(raw-mutex) ffi boundary\n")
        code, _, report = self.lint()
        self.assertEqual(code, 0)
        self.assertEqual(report["suppressed"], 1)


class TestStripper(unittest.TestCase):
    def test_block_comment_blanked(self):
        out = rt3_lint.strip_comments_and_strings(
            "a /* std::mutex */ b\nc\n")
        self.assertNotIn("mutex", out)
        self.assertEqual(out.count("\n"), 2)

    def test_raw_string_blanked(self):
        out = rt3_lint.strip_comments_and_strings(
            'auto s = R"(std::mutex inside)";\nnext\n')
        self.assertNotIn("mutex", out)
        self.assertIn("next", out)

    def test_escaped_quote(self):
        out = rt3_lint.strip_comments_and_strings(
            '"a\\"b" std::mutex\n')
        self.assertIn("std::mutex", out)

    def test_positions_preserved(self):
        src = "x; // comment\ny;\n"
        out = rt3_lint.strip_comments_and_strings(src)
        self.assertEqual(len(out), len(src))
        self.assertEqual(out.index("y"), src.index("y"))


if __name__ == "__main__":
    unittest.main(verbosity=2)

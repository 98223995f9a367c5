// Unit tests for rt3::common — RNG determinism, stats/metrics, table
// rendering, checked narrowing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/args.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace rt3 {
namespace {

TEST(Check, ThrowsOnFalse) {
  EXPECT_THROW(check(false, "boom"), CheckError);
  EXPECT_NO_THROW(check(true, "fine"));
}

TEST(Args, SplitsFlagEqualsValueAndKeepsPositionals) {
  const char* argv[] = {"tool", "out.json", "--repeats=3", "--seed", "9",
                        "--shed"};
  const std::vector<std::string> args =
      split_flag_args(6, const_cast<char**>(argv));
  ASSERT_EQ(args.size(), 6U);  // "--repeats=3" split into two tokens
  EXPECT_EQ(args[1], "--repeats");
  EXPECT_EQ(args[2], "3");
  EXPECT_EQ(arg_int(args, "--repeats", 1), 3);
  EXPECT_EQ(arg_int(args, "--seed", 7), 9);
  EXPECT_EQ(arg_int(args, "--missing", 42), 42);
  EXPECT_TRUE(arg_present(args, "--shed"));
  EXPECT_FALSE(arg_present(args, "--admit"));
  const std::vector<std::string> positionals = positional_args(args);
  ASSERT_EQ(positionals.size(), 1U);
  EXPECT_EQ(positionals[0], "out.json");
}

TEST(Args, RejectsTrailingGarbageAndNonNumbers) {
  const std::vector<std::string> args = {"--repeats", "3x", "--rate", "abc"};
  EXPECT_THROW(arg_int(args, "--repeats", 1), CheckError);
  EXPECT_THROW(arg_double(args, "--rate", 1.0), CheckError);
  EXPECT_EQ(arg_string(args, "--repeats", ""), "3x");  // strings pass through
  // Non-finite and overflowing values are refused by flag name.
  for (const std::string bad : {"nan", "inf", "-inf", "1e999"}) {
    try {
      (void)arg_double({"--t", bad}, "--t", 1.0);
      ADD_FAILURE() << "--t " << bad << " was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("--t"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(arg_int({"--seed", "99999999999999999999"}, "--seed", 1),
               CheckError);
}

TEST(Args, RejectsUnknownFlagsByName) {
  const std::vector<std::string> known = {"--rate", "--shed"};
  EXPECT_NO_THROW(reject_unknown_flags({"--rate", "3", "--shed", "out.json"},
                                       known, "rt3 serve"));
  // A value never counts as a flag, even a negative number.
  EXPECT_NO_THROW(reject_unknown_flags({"--rate", "-3"}, known, "rt3 serve"));
  const char* argv[] = {"rt3", "--rate=3", "--bogus-flag=3"};
  try {
    reject_unknown_flags(split_flag_args(3, const_cast<char**>(argv)), known,
                         "rt3 serve");
    ADD_FAILURE() << "--bogus-flag was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("rt3 serve: unknown flag --bogus-flag"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(reject_unknown_flags({"--producers", "2"}, known, "rt3 serve"),
               CheckError);
  EXPECT_THROW(reject_unknown_flags({"--shed"}, {}, "rt3 levels"), CheckError);
}

TEST(Check, NarrowRoundTrip) {
  EXPECT_EQ(narrow<std::int32_t>(std::int64_t{42}), 42);
  EXPECT_THROW(narrow<std::int8_t>(std::int64_t{1000}), CheckError);
  EXPECT_THROW(narrow<std::uint32_t>(std::int64_t{-1}), CheckError);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  std::vector<double> xs(50000);
  for (auto& x : xs) {
    x = rng.normal();
  }
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(variance(xs), 1.0, 0.05);
}

TEST(Rng, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ZipfIsSkewedTowardSmallRanks) {
  Rng rng(19);
  std::int64_t low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    low += (rng.zipf(100, 1.2) < 10) ? 1 : 0;
  }
  // With s=1.2 the first 10 of 100 ranks carry well over a third of mass.
  EXPECT_GT(static_cast<double>(low) / n, 0.4);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(23);
  std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 12000; ++i) {
    ++counts[static_cast<std::size_t>(rng.categorical(w))];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, CategoricalRejectsBadInput) {
  Rng rng(29);
  EXPECT_THROW(rng.categorical({}), CheckError);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), CheckError);
  EXPECT_THROW(rng.categorical({-1.0, 2.0}), CheckError);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto s = rng.sample_without_replacement(50, 20);
  std::set<std::int64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20U);
  for (auto v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  // Forking from identical parents gives identical children...
  Rng p1(41);
  Rng p2(41);
  Rng c1 = p1.fork();
  Rng c2 = p2.fork();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(c1.next_u64(), c2.next_u64());
  }
  // ...and the child does not replay the parent's stream.
  Rng parent(43);
  Rng child = parent.fork();
  int same = 0;
  Rng replay(43);
  replay.fork();  // advance identically to parent
  for (int i = 0; i < 64; ++i) {
    same += (child.next_u64() == replay.next_u64()) ? 0 : 0;
  }
  // The child stream must differ from a fresh seed-43 stream.
  Rng fresh(43);
  Rng child2 = Rng(43).fork();
  int equal_to_fresh = 0;
  for (int i = 0; i < 64; ++i) {
    equal_to_fresh += (child2.next_u64() == fresh.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(equal_to_fresh, 4);
}

TEST(Stats, MeanVariance) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(variance({1.0, 2.0, 3.0}), 2.0 / 3.0, 1e-12);
}

TEST(Stats, PearsonPerfectCorrelation) {
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {2, 3, 4}), 0.0);
}

TEST(Stats, SpearmanMonotone) {
  // Any monotone transform gives rho == 1.
  EXPECT_NEAR(spearman({1, 2, 3, 4}, {10, 100, 1000, 10000}), 1.0, 1e-12);
}

TEST(Stats, SpearmanTies) {
  const auto r = average_ranks({3.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[0], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
}

TEST(Stats, Accuracy) {
  EXPECT_DOUBLE_EQ(accuracy({1, 0, 1}, {1, 1, 1}), 2.0 / 3.0);
}

TEST(Stats, F1KnownValue) {
  // tp=1, fp=1, fn=1 -> precision=0.5, recall=0.5, f1=0.5.
  EXPECT_DOUBLE_EQ(f1_score({1, 1, 0}, {1, 0, 1}), 0.5);
  EXPECT_DOUBLE_EQ(f1_score({0, 0}, {1, 1}), 0.0);
}

TEST(Stats, MatthewsPerfectAndInverted) {
  EXPECT_DOUBLE_EQ(matthews_corr({1, 0, 1, 0}, {1, 0, 1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(matthews_corr({0, 1, 0, 1}, {1, 0, 1, 0}), -1.0);
}

TEST(Table, AlignsAndCounts) {
  TablePrinter t({"A", "LongHeader"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"yy", "22"});
  EXPECT_EQ(t.row_count(), 2);
  const std::string s = t.str();
  EXPECT_NE(s.find("LongHeader"), std::string::npos);
  EXPECT_NE(s.find("yy"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  TablePrinter t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_f(93.547, 2), "93.55");
  EXPECT_EQ(fmt_pct(0.708, 2), "70.80%");
  EXPECT_EQ(fmt_x(4.96), "4.96x");
  EXPECT_EQ(fmt_millions(2.71e6), "2.71");
}

}  // namespace
}  // namespace rt3

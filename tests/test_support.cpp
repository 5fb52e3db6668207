#include <gtest/gtest.h>

#include <set>

#include "support/io.h"
#include "support/random.h"
#include "support/strings.h"

namespace bolt::support {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.range(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values of a small range get hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
  EXPECT_EQ(with_commas(591948908371LL), "591,948,908,371");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
}

TEST(Strings, Pad) {
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("x", 3), "x  ");
  EXPECT_EQ(pad_left("xyz", 2), "xyz");
}

TEST(Strings, RenderTableAligns) {
  const std::string t =
      render_table({{"h1", "header2"}, {"a", "b"}, {"long-cell", "c"}});
  EXPECT_NE(t.find("h1"), std::string::npos);
  EXPECT_NE(t.find("long-cell"), std::string::npos);
  EXPECT_NE(t.find("---"), std::string::npos);
}

TEST(Io, ReadFileReportsFailureInsteadOfDying) {
  // The CLI turns a missing or empty --contract into exit 2; only the
  // *_or_die variant may abort.
  std::string text = "stale";
  EXPECT_FALSE(read_file(::testing::TempDir() + "/no_such_file.json", &text));
  const std::string path = ::testing::TempDir() + "/read_file_test.txt";
  ASSERT_TRUE(write_file(path, ""));
  EXPECT_TRUE(read_file(path, &text));
  EXPECT_TRUE(text.empty());
  ASSERT_TRUE(write_file(path, "abc\n"));
  EXPECT_TRUE(read_file(path, &text));
  EXPECT_EQ(text, "abc\n");
  EXPECT_EQ(read_file_or_die(path, "test file"), "abc\n");
}

}  // namespace
}  // namespace bolt::support

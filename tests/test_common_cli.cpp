// Tests for common/cli argument parsing.
#include <gtest/gtest.h>

#include <vector>

#include "kibamrm/common/cli.hpp"
#include "kibamrm/common/error.hpp"

namespace kibamrm::common {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, ProgramNameCaptured) {
  const CliArgs args = parse({"bench/fig7"});
  EXPECT_EQ(args.program(), "bench/fig7");
  EXPECT_TRUE(args.positional().empty());
}

TEST(CliArgs, FlagWithoutValue) {
  const CliArgs args = parse({"p", "--full"});
  EXPECT_TRUE(args.has("full"));
  EXPECT_FALSE(args.has("quick"));
}

TEST(CliArgs, KeyValueSpaceForm) {
  const CliArgs args = parse({"p", "--delta", "25"});
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), 25.0);
}

TEST(CliArgs, KeyValueEqualsForm) {
  const CliArgs args = parse({"p", "--delta=12.5"});
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), 12.5);
}

TEST(CliArgs, FallbackUsedWhenAbsent) {
  const CliArgs args = parse({"p"});
  EXPECT_DOUBLE_EQ(args.get_double("delta", 7.0), 7.0);
  EXPECT_EQ(args.get("out", "default.csv"), "default.csv");
  EXPECT_EQ(args.get_int("runs", 3), 3);
}

TEST(CliArgs, NegativeNumberTreatedAsValue) {
  const CliArgs args = parse({"p", "--offset", "-3.5"});
  EXPECT_DOUBLE_EQ(args.get_double("offset", 0.0), -3.5);
}

TEST(CliArgs, MalformedNumberThrows) {
  const CliArgs args = parse({"p", "--delta", "abc"});
  EXPECT_THROW(args.get_double("delta", 0.0), InvalidArgument);
}

TEST(CliArgs, IntRejectsFractional) {
  const CliArgs args = parse({"p", "--runs", "2.5"});
  EXPECT_THROW(args.get_int("runs", 0), InvalidArgument);
}

TEST(CliArgs, PositiveIntAcceptsPositiveValues) {
  const CliArgs args = parse({"p", "--threads", "4"});
  EXPECT_EQ(args.get_positive_int("threads", 0), 4);
}

TEST(CliArgs, PositiveIntFallbackExemptFromPositivity) {
  // 0 as a *fallback* is the auto-detect sentinel and must pass through;
  // only user-provided values are validated.
  const CliArgs args = parse({"p"});
  EXPECT_EQ(args.get_positive_int("threads", 0), 0);
}

TEST(CliArgs, PositiveIntRejectsZero) {
  const CliArgs args = parse({"p", "--threads", "0"});
  EXPECT_THROW(args.get_positive_int("threads", 1), InvalidArgument);
}

TEST(CliArgs, PositiveIntRejectsNegative) {
  const CliArgs args = parse({"p", "--threads", "-2"});
  EXPECT_THROW(args.get_positive_int("threads", 1), InvalidArgument);
}

TEST(CliArgs, PositiveIntRejectsGarbageAndFractions) {
  EXPECT_THROW(parse({"p", "--threads", "many"})
                   .get_positive_int("threads", 1),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--threads", "2.5"})
                   .get_positive_int("threads", 1),
               InvalidArgument);
}

TEST(CliArgs, NonNegativeIntAcceptsExplicitZero) {
  // Regression: `--threads 0` is the documented auto-detect sentinel, but
  // the drivers parsed it with get_positive_int, which threw on the very
  // value the help text advertises.
  const CliArgs args = parse({"p", "--threads", "0"});
  EXPECT_EQ(args.get_nonnegative_int("threads", 1), 0);
}

TEST(CliArgs, NonNegativeIntAcceptsPositiveAndFallback) {
  EXPECT_EQ(parse({"p", "--threads", "4"}).get_nonnegative_int("threads", 0),
            4);
  EXPECT_EQ(parse({"p"}).get_nonnegative_int("threads", 7), 7);
}

TEST(CliArgs, NonNegativeIntRejectsNegativeGarbageAndFractions) {
  EXPECT_THROW(parse({"p", "--threads", "-2"})
                   .get_nonnegative_int("threads", 1),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--threads", "many"})
                   .get_nonnegative_int("threads", 1),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--threads", "2.5"})
                   .get_nonnegative_int("threads", 1),
               InvalidArgument);
}

TEST(CliArgs, DoubleListParsing) {
  const CliArgs args = parse({"p", "--delta", "100,50,25,5"});
  const std::vector<double> values = args.get_double_list("delta", {});
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values[0], 100.0);
  EXPECT_DOUBLE_EQ(values[3], 5.0);
}

TEST(CliArgs, DoubleListFallback) {
  const CliArgs args = parse({"p"});
  const std::vector<double> values = args.get_double_list("delta", {1.0, 2.0});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[1], 2.0);
}

TEST(CliArgs, DoubleListMalformedEntryThrows) {
  const CliArgs args = parse({"p", "--delta", "10,x,5"});
  EXPECT_THROW(args.get_double_list("delta", {}), InvalidArgument);
}

TEST(CliArgs, PositionalArgumentsPreserved) {
  // Note: a bare token directly after an option name is consumed as that
  // option's value ("--full more" would make full="more"), so positionals
  // come before options or between key/value pairs.
  const CliArgs args = parse({"p", "input.csv", "more", "--full"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "more");
  EXPECT_TRUE(args.has("full"));
}

TEST(CliArgs, ValidateAcceptsDeclaredOptions) {
  CliArgs args = parse({"p", "--delta", "5", "--full"});
  args.declare("delta").declare("full");
  EXPECT_NO_THROW(args.validate());
}

TEST(CliArgs, ValidateRejectsUnknownOption) {
  CliArgs args = parse({"p", "--detla", "5"});
  args.declare("delta");
  EXPECT_THROW(args.validate(), InvalidArgument);
}

TEST(CliArgs, GetChoiceReturnsAllowedValue) {
  const CliArgs args = parse({"p", "--engine", "dense"});
  EXPECT_EQ(args.get_choice("engine", "uniformization",
                            {"dense", "parallel", "uniformization"}),
            "dense");
}

TEST(CliArgs, GetChoiceFallsBackWhenAbsent) {
  const CliArgs args = parse({"p"});
  EXPECT_EQ(args.get_choice("engine", "uniformization",
                            {"dense", "parallel", "uniformization"}),
            "uniformization");
}

TEST(CliArgs, GetChoicePresentWithoutValueThrows) {
  // `--engine --full`: the next token is an option, so --engine parses as
  // valueless; a malformed selection must not silently run the fallback.
  const CliArgs args = parse({"p", "--engine", "--full"});
  EXPECT_THROW(args.get_choice("engine", "uniformization",
                               {"dense", "parallel", "uniformization"}),
               InvalidArgument);
}

TEST(CliArgs, GetChoiceRejectsUnknownValueListingChoices) {
  const CliArgs args = parse({"p", "--engine", "krylov"});
  try {
    args.get_choice("engine", "uniformization",
                    {"dense", "parallel", "uniformization"});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("krylov"), std::string::npos);
    EXPECT_NE(what.find("parallel"), std::string::npos);
  }
}

}  // namespace
}  // namespace kibamrm::common

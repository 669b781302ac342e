/** @file Unit tests for the CLI flag parser. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/flags.hh"

namespace smtdram
{
namespace
{

/** Build argv from literals (argv[0] is the program name). */
class ArgvBuilder
{
  public:
    explicit ArgvBuilder(std::vector<std::string> args)
        : storage_(std::move(args))
    {
        ptrs_.push_back(const_cast<char *>("prog"));
        for (auto &s : storage_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> ptrs_;
};

Flags
makeFlags()
{
    Flags f;
    f.declare("count", "10", "a number");
    f.declare("name", "abc", "a string");
    f.declare("rate", "0.5", "a double");
    f.declare("verbose", "false", "a bool");
    return f;
}

TEST(Flags, DefaultsApplyWhenUnset)
{
    Flags f = makeFlags();
    ArgvBuilder args({});
    f.parse(args.argc(), args.argv(), "doc");
    EXPECT_EQ(f.getInt("count"), 10);
    EXPECT_EQ(f.getString("name"), "abc");
    EXPECT_DOUBLE_EQ(f.getDouble("rate"), 0.5);
    EXPECT_FALSE(f.getBool("verbose"));
}

TEST(Flags, EqualsForm)
{
    Flags f = makeFlags();
    ArgvBuilder args({"--count=42", "--name=xyz"});
    f.parse(args.argc(), args.argv(), "doc");
    EXPECT_EQ(f.getInt("count"), 42);
    EXPECT_EQ(f.getString("name"), "xyz");
}

TEST(Flags, SpaceSeparatedForm)
{
    Flags f = makeFlags();
    ArgvBuilder args({"--count", "7", "--rate", "0.25"});
    f.parse(args.argc(), args.argv(), "doc");
    EXPECT_EQ(f.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(f.getDouble("rate"), 0.25);
}

TEST(Flags, BareBooleanForm)
{
    Flags f = makeFlags();
    ArgvBuilder args({"--verbose"});
    f.parse(args.argc(), args.argv(), "doc");
    EXPECT_TRUE(f.getBool("verbose"));
}

TEST(Flags, BoolSpellings)
{
    for (const char *spelling : {"true", "1", "yes", "on"}) {
        Flags f = makeFlags();
        ArgvBuilder args({std::string("--verbose=") + spelling});
        f.parse(args.argc(), args.argv(), "doc");
        EXPECT_TRUE(f.getBool("verbose")) << spelling;
    }
    for (const char *spelling : {"false", "0", "no", "off"}) {
        Flags f = makeFlags();
        ArgvBuilder args({std::string("--verbose=") + spelling});
        f.parse(args.argc(), args.argv(), "doc");
        EXPECT_FALSE(f.getBool("verbose")) << spelling;
    }
}

TEST(FlagsDeathTest, UnknownFlagIsFatal)
{
    Flags f = makeFlags();
    ArgvBuilder args({"--bogus=1"});
    EXPECT_EXIT(f.parse(args.argc(), args.argv(), "doc"),
                testing::ExitedWithCode(1), "unknown flag");
}

TEST(FlagsDeathTest, NonIntegerIsFatal)
{
    Flags f = makeFlags();
    ArgvBuilder args({"--count=banana"});
    f.parse(args.argc(), args.argv(), "doc");
    EXPECT_EXIT((void)f.getInt("count"), testing::ExitedWithCode(1),
                "expects an integer");
}

TEST(FlagsDeathTest, OutOfRangeIntegerIsFatal)
{
    // strtoll() saturates to INT64_MAX instead of failing.
    Flags f = makeFlags();
    ArgvBuilder args({"--count=99999999999999999999"});
    f.parse(args.argc(), args.argv(), "doc");
    EXPECT_EXIT((void)f.getInt("count"), testing::ExitedWithCode(1),
                "flag --count expects an integer, got "
                "'99999999999999999999'");
}

TEST(Flags, UnsignedTakesTheWholeRangeOfItsType)
{
    Flags f = makeFlags();
    ArgvBuilder args({"--count=4294967295", "--name=0x10"});
    f.parse(args.argc(), args.argv(), "doc");
    EXPECT_EQ(f.getUnsigned<std::uint32_t>("count"), 4294967295u);
    EXPECT_EQ(f.getUnsigned<std::uint8_t>("name"), 16u);
    EXPECT_EQ(Flags::parseUnsigned("list", "18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(Flags::parseUnsigned("list", "0", 0), 0u);
}

TEST(FlagsDeathTest, UnsignedNeverWraps)
{
    // Each would wrap or be cut short by a plain cast of getInt().
    // Second: the value as a regular expression.
    const std::pair<const char *, const char *> bad[] = {
        {"-1", "-1"},  {"4294967296", "4294967296"},
        {"99999999999999999999999", "99999999999999999999999"},
        {"+5", "\\+5"}, {" 5", " 5"}, {"5x", "5x"}, {"", ""},
    };
    for (const auto &[value, pattern] : bad) {
        SCOPED_TRACE(value);
        Flags f = makeFlags();
        ArgvBuilder args({std::string("--count=") + value});
        f.parse(args.argc(), args.argv(), "doc");
        EXPECT_EXIT((void)f.getUnsigned<std::uint32_t>("count"),
                    testing::ExitedWithCode(1),
                    std::string("fatal: flag --count expects a whole "
                                "number from 0 to 4294967295, got '") +
                        pattern + "'");
    }
}

TEST(SplitList, Basics)
{
    EXPECT_EQ(splitList(""), (std::vector<std::string>{}));
    EXPECT_EQ(splitList("a"), (std::vector<std::string>{"a"}));
    EXPECT_EQ(splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("a,,b"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitList("a,"), (std::vector<std::string>{"a"}));
}

} // namespace
} // namespace smtdram

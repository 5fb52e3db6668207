// CLI surface lockdown. The flag table lives in the library (core/cli.cpp)
// so it can be walked here: every subcommand x every flag must parse
// exactly where the table declares it and appear in exactly those
// synopses, and the rendered help is locked against a golden file.
// Regenerate the golden with tools/regen_goldens.sh after an intentional
// change.
#include "core/cli.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace bolt::core {
namespace {

std::string golden_path() {
  return std::string(BOLT_TEST_DATA_DIR) + "/cli_usage.txt";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// parse_cli over `words` (argv without the program name); the stderr
/// text on failure, "" on success.
std::string parse_error(const std::vector<std::string>& words,
                        CliArgs* args = nullptr) {
  std::vector<const char*> argv = {"bolt"};
  for (const std::string& w : words) argv.push_back(w.c_str());
  CliArgs local;
  std::string error;
  const bool ok = parse_cli(static_cast<int>(argv.size()), argv.data(),
                            args != nullptr ? args : &local, &error);
  EXPECT_EQ(ok, error.empty());
  return error;
}

bool declared(const std::string& flag, std::size_t command) {
  for (const CliFlag& f : cli_flags()) {
    if (flag == f.name && (f.commands >> command & 1) != 0) return true;
  }
  return false;
}

/// `command` with the operands it needs, then `flag` and a value of its
/// kind.
std::vector<std::string> line_with(std::size_t command, const CliFlag& flag) {
  std::vector<std::string> words = {cli_commands()[command].name};
  words.resize(1 + cli_commands()[command].min_operands, "x");
  words.push_back(flag.name);
  if (std::holds_alternative<std::uint64_t CliArgs::*>(flag.dest)) {
    words.push_back("1");
  } else if (std::holds_alternative<CliFleet CliArgs::*>(flag.dest)) {
    words.push_back("0/1");
  } else if (std::holds_alternative<std::string CliArgs::*>(flag.dest)) {
    words.push_back(flag.choices.empty() ? "v" : flag.choices[0]);
  }
  return words;
}

/// The words of `command`'s synopsis, brackets stripped.
std::vector<std::string> synopsis_words(const std::string& command) {
  const std::string help = cli_usage_text();
  const std::size_t start = help.find("bolt " + command + " ");
  const std::size_t end = help.find("\n       bolt ", start);
  std::istringstream in(help.substr(start, end - start));
  std::vector<std::string> words;
  for (std::string w; in >> w;) {
    if (w.front() == '[') w.erase(0, 1);
    if (w.back() == ']') w.pop_back();
    words.push_back(w);
  }
  return words;
}

TEST(CliHelp, MatchesGoldenByteForByte) {
  const std::string golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty()) << "missing golden: " << golden_path();
  EXPECT_EQ(std::string(cli_usage_text()), golden)
      << "help text drifted from tests/data/cli_usage.txt — if the change "
         "is intentional, run tools/regen_goldens.sh";
}

TEST(CliHelp, EndsWithNewline) {
  const std::string help = cli_usage_text();
  ASSERT_FALSE(help.empty());
  EXPECT_EQ(help.back(), '\n');
}

// Every subcommand x every flag: accepted exactly where declared (a
// valued one then reports a missing value), "does not apply" elsewhere,
// and in exactly the synopses of the subcommands that accept it.
TEST(CliHelp, EveryFlagIsAcceptedAndShownExactlyWhereDeclared) {
  for (std::size_t c = 0; c < cli_commands().size(); ++c) {
    const std::string command = cli_commands()[c].name;
    const std::vector<std::string> synopsis = synopsis_words(command);
    for (const CliFlag& flag : cli_flags()) {
      SCOPED_TRACE(command + " " + flag.name);
      std::vector<std::string> line = line_with(c, flag);
      const bool applies = declared(flag.name, c);
      EXPECT_EQ(parse_error(line),
                applies ? "" : std::string("error: flag '") + flag.name +
                                   "' does not apply to '" + command + "'\n");
      EXPECT_EQ(std::count(synopsis.begin(), synopsis.end(), flag.name),
                applies ? 1 : 0);
      if (applies && line.back() != flag.name) {
        line.pop_back();
        EXPECT_EQ(parse_error(line),
                  std::string("error: ") + flag.name + " requires a value\n");
      }
    }
  }
}

TEST(CliHelp, ParsedValuesLandInTheirDestinations) {
  CliArgs args;
  ASSERT_EQ(parse_error({"monitor", "--threads", "3", "nat", "--no-cycles",
                         "--fleet", "1/2", "--metrics-format", "prom"},
                        &args),
            "");
  EXPECT_EQ(args.command, "monitor");
  EXPECT_EQ(args.operands, std::vector<std::string>{"nat"});
  EXPECT_EQ(args.threads, 3u);
  EXPECT_TRUE(args.no_cycles);
  EXPECT_EQ(args.fleet.instance, 1u);
  EXPECT_EQ(args.fleet.instances, 2u);
  EXPECT_EQ(args.metrics_format, "prom");
}

TEST(CliHelp, BadValuesAreUsageErrors) {
  EXPECT_EQ(parse_error({"monitor", "nat", "--threads", "abc"}),
            "error: bad --threads value 'abc'\n");
  EXPECT_EQ(parse_error({"monitor", "nat", "--packets", "-1"}),
            "error: bad --packets value '-1'\n");
  EXPECT_EQ(parse_error({"monitor", "nat", "--metrics-format", "xml"}),
            "error: bad --metrics-format value 'xml' (json | prom)\n");
  // Wider than 32 bits, signed or space-padded halves, and I >= N.
  for (const std::string spec :
       {"4294967297/4294967298", " 1/2", "+1/+2", "2/2", "1/0", "1", "/2",
        "1/", "1/2/3"}) {
    EXPECT_EQ(parse_error({"monitor", "nat", "--fleet", spec}),
              "error: bad --fleet value '" + spec +
                  "' (want I/N with I < N)\n");
  }
}

TEST(CliHelp, UnknownFlagsAndMissingOperandsPrintTheUsage) {
  const std::string usage = cli_usage_text();
  EXPECT_EQ(parse_error({"monitor", "nat", "--bogus"}),
            "error: unknown flag '--bogus'\n" + usage);
  EXPECT_EQ(parse_error({}), usage);
  EXPECT_EQ(parse_error({"frobnicate"}), usage);
  EXPECT_EQ(parse_error({"distill", "nat"}), usage);
}

}  // namespace
}  // namespace bolt::core

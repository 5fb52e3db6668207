// The bolt CLI's surface, declared once: one table row per flag drives
// parsing, the "does not apply" check and the usage text, so a flag cannot
// be accepted without being documented, or the reverse
// (tests/test_cli_help.cpp walks the table against both).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "net/packet.h"

namespace bolt::core {

/// `--fleet I/N`: instance I of an N-instance fleet.
struct CliFleet {
  std::uint32_t instance = 0;
  std::uint32_t instances = 1;
};

/// Every value any subcommand reads, at the CLI's defaults.
struct CliArgs {
  std::string command;                ///< argv[1]
  std::vector<std::string> operands;  ///< arguments that are not flags
  bool json = false;
  std::uint64_t threads = 0;
  std::string out;
  std::string contract;  ///< stored artifact; empty = generate
  std::string workload;  ///< empty = the target's default
  std::string pcap;      ///< overrides the workload when set
  std::string report;
  std::uint64_t packets = 100'000;
  std::uint64_t partitions = 8;
  std::uint64_t epoch_ns = 1'000'000'000;
  std::uint64_t violation_threshold = 0;
  std::uint64_t inflate_pct = 0;
  bool no_cycles = false;
  std::uint64_t delta_every = 0;
  std::string delta_out;
  std::string metrics_out;
  std::string metrics_format = "json";
  bool watch = false;
  bool follow = false;
  std::string spool;
  std::uint64_t idle_flush_ns = 0;
  std::uint64_t idle_exit_ms = 0;
  CliFleet fleet;
  std::uint64_t seed = 1;
  std::uint64_t probes = 12;
  std::uint64_t min_reached_pct = 1;
  std::uint64_t generations = 6;
  std::uint64_t population = 4;
  std::uint64_t budget = 0;
  std::uint64_t max_replays = 0;
  bool inject_straddle_bug = false;
};

/// A subcommand: its operands as the synopsis shows them, and how many of
/// them must be given.
struct CliCommand {
  const char* name;
  const char* operands;
  std::size_t min_operands;
};

/// Subcommands in synopsis order; CliFlag::commands bit i is entry i.
const std::vector<CliCommand>& cli_commands();

/// Where a flag's value goes; the alternative is its value kind: a switch,
/// a number, text (a choice when CliFlag::choices is non-empty), or a
/// fleet spec.
using CliDest = std::variant<bool CliArgs::*, std::uint64_t CliArgs::*,
                             std::string CliArgs::*, CliFleet CliArgs::*>;

/// One flag. A name may have several rows when its placeholder differs
/// between subcommands (--out FILE vs --out PREFIX).
struct CliFlag {
  const char* name;
  const char* metavar;  ///< synopsis placeholder; nullptr for a switch
  unsigned commands;    ///< subcommands it applies to (cli_commands bits)
  CliDest dest;
  const char* help;     ///< paragraph; nullptr = synopsis only
  std::vector<std::string> choices = {};  ///< the values text may take
};

/// Flags in help-paragraph order (also each synopsis' order).
const std::vector<CliFlag>& cli_flags();

/// Full usage text of the bolt CLI (`bolt --help`), newline-terminated.
const char* cli_usage_text();

/// Parses argv into `*args`: argv[1] is the subcommand, then flags (each
/// admitted only where it applies) and operands in any order. On a usage
/// error returns false with the whole stderr text in `*error` (the usage
/// when the line names no runnable command). `--help` is the caller's.
bool parse_cli(int argc, const char* const* argv, CliArgs* args,
               std::string* error);

/// The strict decimal parse every numeric argument goes through, flag or
/// operand: the whole text must be the number, in range (strtoull alone
/// takes a sign or leading space and wraps "-1"). Otherwise false with
/// the stderr line `error: bad WHAT value 'TEXT'` in `*error`.
bool parse_number(const std::string& what, const char* text,
                  std::uint64_t* out, std::string* error);

/// The one workload catalog, shared by 'monitor --workload', 'gen' and the
/// help: `count` packets of `kind`, or of the default that suits `nf` when
/// `kind` is empty (bridge traffic for the bridge, heavy-tailed flows
/// otherwise). False for an unknown kind.
bool make_workload(const std::string& nf, std::string kind, std::size_t count,
                   std::vector<net::Packet>* out);

}  // namespace bolt::core

#include "core/cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/targets.h"
#include "net/workload.h"

namespace bolt::core {
namespace {

// Bit i names cli_commands()[i]; distill, predict and gen take no flags.
enum : unsigned {
  kContract = 1u << 0,
  kPaths = 1u << 1,
  kMonitor = 1u << 4,
  kMerge = 1u << 5,
  kAdversary = 1u << 6,
  kHunt = 1u << 7,
  kScenarios = 1u << 9,
};

/// Synopsis lines wrap before this column, continuing under kIndent.
constexpr std::size_t kWidth = 72;
constexpr const char* kIndent = "                    ";

/// A workload kind and how `count` packets of it are made.
struct Workload {
  const char* name;
  std::vector<net::Packet> (*make)(std::size_t count);
};

/// A kind whose spec needs only its packet count.
template <class Spec, std::vector<net::Packet> (*Make)(const Spec&)>
std::vector<net::Packet> counted(std::size_t count) {
  Spec spec;
  spec.packet_count = count;
  return Make(spec);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"uniform", counted<net::UniformSpec, net::uniform_random_traffic>},
      {"churn",
       [](std::size_t n) {
         net::ChurnSpec spec;
         spec.packet_count = n;
         spec.churn = 0.05;
         return net::churn_traffic(spec);
       }},
      {"zipf",
       [](std::size_t n) {
         net::ZipfSpec spec;
         spec.packet_count = n;
         spec.flow_pool = 2048;
         spec.skew = 1.1;
         return net::zipf_traffic(spec);
       }},
      {"bridge",
       [](std::size_t n) {
         net::BridgeSpec spec;
         spec.packet_count = n;
         spec.stations = 1000;
         spec.broadcast_fraction = 0.05;
         return net::bridge_traffic(spec);
       }},
      {"attack", counted<net::BridgeAttackSpec, net::bridge_collision_attack>},
      {"heartbeat", counted<net::HeartbeatSpec, net::heartbeat_traffic>},
      {"longrun", counted<net::LongRunSpec, net::long_run_traffic>},
      {"drift",
       [](std::size_t n) {
         net::DriftSpec spec;
         // The erosion schedule (windows, ramp) is the spec's; the count
         // only scales the per-window density.
         if (n > 0) {
           spec.packets_per_window =
               std::max<std::size_t>(std::size_t{1}, n / spec.windows);
         }
         return net::drift_traffic(spec);
       }},
  };
  return kWorkloads;
}

template <class List, class Name>
std::string join(const List& list, Name name) {
  std::string out;
  for (const auto& item : list) {
    if (!out.empty()) out += " | ";
    out += name(item);
  }
  return out;
}

std::string render_usage() {
  const std::vector<CliCommand>& commands = cli_commands();
  std::string out;
  for (std::size_t c = 0; c < commands.size(); ++c) {
    std::string line = std::string(c == 0 ? "usage: " : "       ") + "bolt " +
                       commands[c].name;
    auto put = [&](const std::string& item) {
      if (line.size() + 1 + item.size() > kWidth) {
        out += line + "\n";
        line = kIndent;
      } else {
        line += " ";
      }
      line += item;
    };
    const std::string operands = commands[c].operands;
    if (!operands.empty()) put(operands);
    for (const CliFlag& f : cli_flags()) {
      // A flag the operands name (merge's --spool) is not repeated.
      if ((f.commands >> c & 1) == 0 ||
          operands.find(std::string(f.name) + " ") != std::string::npos) {
        continue;
      }
      put("[" + std::string(f.name) +
          (f.metavar == nullptr ? "" : std::string(" ") + f.metavar) + "]");
    }
    out += line + "\n";
  }
  out += "       bolt --help\n";
  out += "nf: " + join(named_targets(), [](const std::string& n) { return n; }) +
         "\n";
  out += "workload kinds: " +
         join(workloads(), [](const Workload& w) { return w.name; }) + "\n";
  for (const CliFlag& f : cli_flags()) {
    if (f.help == nullptr) continue;
    const std::string head =
        std::string(f.name) +
        (f.metavar == nullptr ? "" : std::string(" ") + f.metavar) + ": ";
    out += head;
    for (const char* p = f.help; *p != '\0'; ++p) {
      out += *p;
      if (*p == '\n') out.append(head.size(), ' ');
    }
    out += "\n";
  }
  out +=
      "'merge' folds the --spool partials of any subset of instances — in\n"
      "any order, duplicates deduplicated — into the fleet-wide delta\n"
      "stream and final report, byte-identical to one monitor over the\n"
      "combined traffic; same exit codes as 'monitor'\n"
      "exit codes: 0 clean, 1 violations/unattributed, 2 usage,\n"
      "            3 drift alerts (trending toward a bound, none crossed);\n"
      "            'hunt' exits 1 when a violation or plan divergence is\n"
      "            found (the minimised witness is the repro)\n"
      "--help: print this help and exit 0\n";
  return out;
}

/// `I/N` with both halves under the strict number rule and 32 bits wide,
/// N > 0 and I < N.
bool parse_fleet(const char* text, CliFleet* out) {
  const char* slash = std::strchr(text, '/');
  std::uint64_t i = 0;
  std::uint64_t n = 0;
  std::string ignored;
  if (slash == nullptr ||
      !parse_number("", std::string(text, slash).c_str(), &i, &ignored) ||
      !parse_number("", slash + 1, &n, &ignored) ||
      n > std::numeric_limits<std::uint32_t>::max() || i >= n) {
    return false;
  }
  *out = {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(n)};
  return true;
}

/// Stores `text` through a valued flag's destination.
bool set_value(const CliFlag& f, const char* text, CliArgs* args,
               std::string* error) {
  if (auto* number = std::get_if<std::uint64_t CliArgs::*>(&f.dest)) {
    return parse_number(f.name, text, &(args->**number), error);
  }
  if (auto* fleet = std::get_if<CliFleet CliArgs::*>(&f.dest)) {
    if (parse_fleet(text, &(args->**fleet))) return true;
    *error = std::string("error: bad ") + f.name + " value '" + text +
             "' (want I/N with I < N)\n";
    return false;
  }
  if (!f.choices.empty() && std::find(f.choices.begin(), f.choices.end(),
                                      text) == f.choices.end()) {
    *error = std::string("error: bad ") + f.name + " value '" + text + "' (" +
             join(f.choices, [](const std::string& c) { return c; }) + ")\n";
    return false;
  }
  args->*std::get<std::string CliArgs::*>(f.dest) = text;
  return true;
}

}  // namespace

const std::vector<CliCommand>& cli_commands() {
  static const std::vector<CliCommand> kCommands = {
      {"contract", "<nf>", 1},
      {"paths", "<nf>", 1},
      {"distill", "<nf> <pcap>", 2},
      {"predict", "<nf> pcv=value [pcv=value ...]", 1},
      {"monitor", "<nf>", 1},
      {"merge", "<nf> --spool DIR", 1},
      {"adversary", "<nf>", 1},
      {"hunt", "<nf>", 1},
      {"gen", "<kind> <out.pcap> [count]", 2},
      {"scenarios", "", 0},
  };
  return kCommands;
}

const std::vector<CliFlag>& cli_flags() {
  constexpr unsigned kAdversaries = kAdversary | kHunt;
  constexpr unsigned kMonitors = kMonitor | kMerge;
  constexpr unsigned kEngines = kMonitor | kAdversaries;
  static const std::vector<CliFlag> kFlags = {
      {"--json", nullptr, kContract | kPaths | kMonitors | kAdversaries,
       &CliArgs::json, nullptr},
      {"--out", "FILE", kContract, &CliArgs::out,
       "store the contract artifact (JSON) for later monitoring;\n"
       "for 'adversary', the trace pair PREFIX.pcap+PREFIX.json;\n"
       "for 'hunt', the minimised violating trace pair (written\n"
       "only on a find)"},
      {"--out", "PREFIX", kAdversaries, &CliArgs::out, nullptr},
      {"--contract", "FILE", kEngines, &CliArgs::contract,
       "validate against a stored artifact instead of\n"
       "regenerating (the operator workflow; no symbex)"},
      {"--workload", "K", kMonitor, &CliArgs::workload, nullptr},
      {"--pcap", "FILE", kMonitor, &CliArgs::pcap, nullptr},
      {"--packets", "N", kMonitor, &CliArgs::packets, nullptr},
      {"--seed", "N", kAdversaries, &CliArgs::seed,
       "adversarial synthesis seed (trace bytes are a pure\n"
       "function of target+contract+options); for 'hunt', also\n"
       "the mutation stream (same seed, byte-identical hunt)"},
      {"--probes", "N", kAdversaries, &CliArgs::probes,
       "steady-state probe packets per contract class"},
      {"--generations", "N", kHunt, &CliArgs::generations,
       "hunt search rounds (default 6)"},
      {"--population", "N", kHunt, &CliArgs::population,
       "mutated children per hunt round (default 4)"},
      {"--budget", "N", kHunt, &CliArgs::budget,
       "hard cap on hunt monitor replays (default:\n"
       "generations * population + 1)"},
      {"--max-replays", "N", kHunt, &CliArgs::max_replays,
       "cap on trace-minimiser oracle replays (0 = none;\n"
       "a spent cap yields a coarser, still-violating\n"
       "witness)"},
      {"--inject-straddle-bug", nullptr, kHunt, &CliArgs::inject_straddle_bug,
       "test only: make the monitor mis-measure a packet\n"
       "at exactly an epoch boundary (one instruction leaks\n"
       "in), a known fault for the hunt to find and minimise"},
      {"--min-reached-pct", "P", kAdversary, &CliArgs::min_reached_pct,
       "adversary exit gate — fail unless at least P%\n"
       "of contract classes were reached (default 1)"},
      {"--threads", "N", kContract | kPaths | kEngines | kScenarios,
       &CliArgs::threads,
       "worker threads (default: one per hardware thread;\n"
       "contracts and monitor reports are identical at any N)"},
      {"--partitions", "N", kEngines, &CliArgs::partitions,
       "flow-affine state partitions (part of the monitor's\n"
       "semantics; default 8)"},
      {"--epoch-ns", "N", kEngines, &CliArgs::epoch_ns,
       "epoch clock for idle-state expiry + occupancy tracking\n"
       "(packet-timestamp time; default 1s, 0 disables)"},
      {"--inflate", "PCT", kMonitor, &CliArgs::inflate_pct,
       "inflate measured framework costs by PCT% (violation\n"
       "injection; the monitor must report it)"},
      {"--no-cycles", nullptr, kMonitor, &CliArgs::no_cycles, nullptr},
      {"--violation-threshold", "N", kMonitors, &CliArgs::violation_threshold,
       "exit 1 when more than N violations"},
      {"--report", "FILE", kMonitors | kAdversaries, &CliArgs::report,
       "also write the report JSON to FILE"},
      {"--delta-every", "N", kMonitor, &CliArgs::delta_every,
       "emit one delta report per N epochs (windows keyed\n"
       "by packet timestamp — the stream is deterministic,\n"
       "and the main report is identical at any N)"},
      {"--delta-out", "FILE", kMonitors, &CliArgs::delta_out,
       "write the delta stream (JSONL, one window per\n"
       "line) to FILE; implies --delta-every 1 if unset"},
      {"--metrics-out", "FILE", kMonitors, &CliArgs::metrics_out,
       "write the run's telemetry snapshot to FILE\n"
       "(execution counters only; never report bytes)"},
      {"--metrics-format", "F", kMonitors, &CliArgs::metrics_format,
       "snapshot format, json or prom (Prometheus text;\n"
       "default json)",
       {"json", "prom"}},
      {"--watch", nullptr, kMonitors, &CliArgs::watch,
       "stream delta windows to stdout as JSONL (suppresses the\n"
       "report table; implies --delta-every 1 if unset)"},
      {"--follow", nullptr, kMonitor, &CliArgs::follow,
       "daemon mode — tail --pcap FILE as it grows, closing delta\n"
       "windows on packet timestamps as they stream in; SIGINT or\n"
       "SIGTERM drains and emits the final report, byte-identical\n"
       "to a batch run over the same packets"},
      {"--spool", "DIR", kMonitors, &CliArgs::spool,
       "write fleet partials to DIR (one JSON per closed window\n"
       "plus a final summary) for 'merge' to fold later"},
      {"--fleet", "I/N", kMonitor, &CliArgs::fleet,
       "run as instance I of an N-instance fleet — the full\n"
       "stream is fed but only partitions p with p % N == I are\n"
       "owned; merging every instance's spool reproduces the\n"
       "single-monitor report byte for byte"},
      {"--idle-flush-ns", "N", kMonitor, &CliArgs::idle_flush_ns,
       "in --follow mode, provisionally emit the open\n"
       "window after N ns without new data (0 = off;\n"
       "superseded when the window closes for real)"},
      {"--idle-exit-ms", "N", kMonitor, &CliArgs::idle_exit_ms,
       "in --follow mode, drain and exit after N ms\n"
       "without new data (0 = run until signalled)"},
  };
  return kFlags;
}

const char* cli_usage_text() {
  static const std::string kText = render_usage();
  return kText.c_str();
}

bool parse_cli(int argc, const char* const* argv, CliArgs* args,
               std::string* error) {
  const std::vector<CliCommand>& commands = cli_commands();
  args->command = argc >= 2 ? argv[1] : "";
  std::size_t cmd = 0;
  while (cmd < commands.size() && args->command != commands[cmd].name) ++cmd;
  // An unknown subcommand admits no flag; bits past the table match none.
  const unsigned bit = 1u << cmd;
  // A flag that is unknown, or known but inapplicable here, must not be
  // silently ignored: the monitor's exit code is a CI gate, and a typo'd
  // or misplaced flag would change what it gates on.
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    const CliFlag* flag = nullptr;
    bool known = false;
    for (const CliFlag& f : cli_flags()) {
      if (std::strcmp(arg, f.name) != 0) continue;
      known = true;
      if ((f.commands & bit) != 0) flag = &f;
    }
    if (flag == nullptr && known) {
      *error = std::string("error: flag '") + arg + "' does not apply to '" +
               args->command + "'\n";
      return false;
    }
    if (flag == nullptr && std::strncmp(arg, "--", 2) == 0) {
      *error = std::string("error: unknown flag '") + arg + "'\n" +
               cli_usage_text();
      return false;
    }
    if (flag == nullptr) {
      args->operands.push_back(arg);
    } else if (auto* on = std::get_if<bool CliArgs::*>(&flag->dest)) {
      args->**on = true;
    } else if (i + 1 >= argc) {
      *error = std::string("error: ") + arg + " requires a value\n";
      return false;
    } else if (!set_value(*flag, argv[++i], args, error)) {
      return false;
    }
  }
  if (cmd == commands.size() ||
      args->operands.size() < commands[cmd].min_operands) {
    *error = cli_usage_text();
    return false;
  }
  return true;
}

bool parse_number(const std::string& what, const char* text,
                  std::uint64_t* out, std::string* error) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE) {
    *error = "error: bad " + what + " value '" + text + "'\n";
    return false;
  }
  *out = v;
  return true;
}

bool make_workload(const std::string& nf, std::string kind, std::size_t count,
                   std::vector<net::Packet>* out) {
  if (kind.empty()) kind = nf == "bridge" ? "bridge" : "zipf";
  for (const Workload& w : workloads()) {
    if (kind == w.name) {
      *out = w.make(count);
      return true;
    }
  }
  return false;
}

}  // namespace bolt::core

// The bolt CLI's usage/help text, exported from the library so the help
// output is testable: tests/test_cli_help.cpp locks it against a golden
// file, which makes "added a knob but not its help line" a test failure
// instead of a docs drift.
#pragma once

namespace bolt::core {

/// Full usage text of the bolt CLI (`bolt --help`), newline-terminated.
const char* cli_usage_text();

}  // namespace bolt::core

#include "core/targets.h"

#include "nf/firewall.h"

namespace bolt::core {

NfAnalysis NfTarget::analysis() const {
  if (!is_stateless) return instance.analysis();
  NfAnalysis a;
  a.name = name;
  for (const auto& p : stateless) a.programs.push_back(&p);
  a.methods = &no_methods;
  return a;
}

std::vector<const ir::Program*> NfTarget::programs() const {
  if (!is_stateless) return {&instance.program};
  std::vector<const ir::Program*> out;
  for (const auto& p : stateless) out.push_back(&p);
  return out;
}

std::unique_ptr<NfRunner> NfTarget::make_runner(const nf::FrameworkCosts& fw,
                                                ir::TraceSink* sink,
                                                ir::EngineKind engine) const {
  if (!is_stateless) return instance.make_runner(fw, sink, engine);
  ir::InterpreterOptions opts;
  nf::apply_framework(opts, fw);
  opts.sink = sink;
  opts.engine = engine;
  return std::make_unique<NfRunner>(programs(), nullptr, opts);
}

namespace {

using Reg = perf::PcvRegistry;

void chain(NfTarget& t, std::vector<ir::Program> programs) {
  t.stateless = std::move(programs);
  t.is_stateless = true;
}

/// One row per registered target: its name and how to build it, in the
/// order named_targets() lists them (and `bolt --help` prints them).
const std::pair<const char*, void (*)(Reg&, NfTarget&)> kTargets[] = {
    {"bridge",
     [](Reg& r, NfTarget& t) {
       t.instance = make_bridge(r, default_bridge_config());
     }},
    {"nat",
     [](Reg& r, NfTarget& t) {
       t.instance = make_nat(r, default_nat_config());
     }},
    {"nat-b",
     [](Reg& r, NfTarget& t) {
       auto cfg = default_nat_config();
       cfg.allocator = dslib::NatState::AllocatorKind::kB;
       t.instance = make_nat(r, cfg);
     }},
    {"lb",
     [](Reg& r, NfTarget& t) { t.instance = make_lb(r, default_lb_config()); }},
    {"lpm", [](Reg& r, NfTarget& t) { t.instance = make_dir_lpm(r); }},
    {"lpm-simple",
     [](Reg& r, NfTarget& t) { t.instance = make_simple_lpm(r); }},
    {"firewall",
     [](Reg&, NfTarget& t) { chain(t, {nf::Firewall::program()}); }},
    {"router",
     [](Reg&, NfTarget& t) { chain(t, {nf::StaticRouter::program()}); }},
    {"fw+router",
     [](Reg&, NfTarget& t) {
       chain(t, {nf::Firewall::program(), nf::StaticRouter::program()});
     }},
};

}  // namespace

bool make_named_target(const std::string& name, perf::PcvRegistry& reg,
                       NfTarget& out) {
  for (const auto& [target, build] : kTargets) {
    if (name != target) continue;
    out.name = name;
    build(reg, out);
    return true;
  }
  return false;
}

const std::vector<std::string>& named_targets() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& row : kTargets) names.emplace_back(row.first);
    return names;
  }();
  return kNames;
}

}  // namespace bolt::core

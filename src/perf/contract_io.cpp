#include "perf/contract_io.h"

#include <set>

#include "support/assert.h"
#include "support/io.h"
#include "support/json.h"

namespace bolt::perf {
namespace {

/// The artifact as it sits on disk: PCVs by name, expressions as term
/// lists. contract_layout() is the one declaration of its key order.
struct TermDoc {
  std::int64_t coeff = 0;
  std::vector<std::string> pcvs;  ///< one name per unit of exponent
};
struct EntryDoc {
  std::string input_class;
  std::uint64_t paths_coalesced = 0;
  std::array<std::vector<TermDoc>, 3> metrics;  ///< by metric_index
};
struct PcvDoc {
  std::string name;
  std::string description;
};
struct ContractDoc {
  std::int64_t version = kContractSchemaVersion;
  std::string nf;
  std::vector<PcvDoc> pcvs;
  std::vector<EntryDoc> entries;
};

template <class J, class D> void contract_layout(J& j, D& d) {
  j.object([&] {
    j.field("version", d.version);
    j.field("nf", d.nf);
    j.array("pcvs", d.pcvs, [&](auto& p) {
      j.object([&] {
        j.field("name", p.name);
        j.field("description", p.description);
      });
    });
    j.array("entries", d.entries, [&](auto& e) {
      j.object([&] {
        j.field("input_class", e.input_class);
        j.field("paths_coalesced", e.paths_coalesced);
        j.object("metrics", [&] {
          for (const Metric m : kAllMetrics) {
            j.array(metric_name(m), e.metrics[metric_index(m)], [&](auto& t) {
              j.object([&] {
                j.field("coeff", t.coeff);
                j.field("pcvs", t.pcvs);
              });
            });
          }
        });
      });
    });
  });
}

}  // namespace

std::string contract_to_json(const Contract& contract, const PcvRegistry& reg) {
  ContractDoc d;
  d.nf = contract.nf_name();
  for (const PcvId id : reg.all()) {
    d.pcvs.push_back({reg.name(id), reg.description(id)});
  }
  for (const ContractEntry& entry : contract.entries()) {
    EntryDoc& e = d.entries.emplace_back();
    e.input_class = entry.input_class;
    e.paths_coalesced = entry.paths_coalesced;
    for (const Metric m : kAllMetrics) {
      for (const auto& [monomial, coeff] : entry.perf.get(m).terms()) {
        TermDoc& t = e.metrics[metric_index(m)].emplace_back();
        t.coeff = coeff;
        for (const auto& [id, exponent] : monomial.factors()) {
          t.pcvs.insert(t.pcvs.end(), exponent, reg.name(id));
        }
      }
    }
  }
  support::JsonWriter w;
  contract_layout(w, d);
  return w.take();
}

bool decode_contract(const std::string& json, PcvRegistry& reg, Contract* out,
                     std::string* error) {
  ContractDoc d;
  support::JsonReader r(json, "contract json");
  contract_layout(r, d);
  r.end();
  // A different schema version explains any structural failure after it.
  if (d.version != kContractSchemaVersion) {
    *error = r.invalid("unsupported version " + std::to_string(d.version));
    return false;
  }
  if (!r.ok()) {
    *error = r.error();
    return false;
  }
  // Input classes are the lookup key for everything downstream (monitor
  // attribution, gap reports); a duplicate means two conflicting bounds for
  // the same traffic and must never be half-loaded.
  std::set<std::string> seen_classes;
  for (const EntryDoc& e : d.entries) {
    if (!seen_classes.insert(e.input_class).second) {
      *error = r.invalid("duplicate input class '" + e.input_class + "'");
      return false;
    }
  }
  *out = Contract(d.nf);
  for (const PcvDoc& p : d.pcvs) reg.intern(p.name, p.description);
  for (EntryDoc& e : d.entries) {
    ContractEntry entry;
    entry.input_class = std::move(e.input_class);
    entry.paths_coalesced = static_cast<std::size_t>(e.paths_coalesced);
    for (const Metric m : kAllMetrics) {
      PerfExpr expr;
      for (const TermDoc& t : e.metrics[metric_index(m)]) {
        Monomial monomial;
        for (const std::string& name : t.pcvs) {
          monomial = monomial * Monomial::pcv(reg.intern(name));
        }
        expr += PerfExpr::term(t.coeff, monomial);
      }
      entry.perf.set(m, std::move(expr));
    }
    out->add(std::move(entry));
  }
  return true;
}

Contract contract_from_json(const std::string& json, PcvRegistry& reg) {
  Contract contract;
  std::string error;
  if (!decode_contract(json, reg, &contract, &error)) {
    support::fatal(error, __FILE__, __LINE__);
  }
  return contract;
}

bool save_contract(const std::string& path, const Contract& contract,
                   const PcvRegistry& reg) {
  return support::write_file(path, contract_to_json(contract, reg) + "\n");
}

Contract load_contract(const std::string& path, PcvRegistry& reg) {
  return contract_from_json(
      support::read_file_or_die(path, "contract artifact"), reg);
}

}  // namespace bolt::perf

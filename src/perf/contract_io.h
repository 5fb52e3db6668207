// JSON serialisation for contracts — the interchange format a network
// operator's tooling would consume (the paper argues operators use
// contracts *without* access to the NF implementation; this is the
// artifact they would actually be handed).
//
// The schema (stable, versioned) is one object: the schema version, the
// NF name, the PCV glossary ({name, description} in registry order) and
// one entry per input class with its coalesced path count and, per metric
// in kAllMetrics order, the bound as a list of {coeff, pcvs} terms.
// contract_layout() in contract_io.cpp is the single declaration of that
// key order; the writer and the strict reader both run it.
#pragma once

#include <string>

#include "perf/contract.h"
#include "perf/pcv.h"

namespace bolt::perf {

/// The contract artifact schema version. Bump it when the JSON layout
/// changes in any way — tests/test_contract_golden.cpp pins the committed
/// golden artifacts byte-for-byte, so unversioned drift fails loudly.
inline constexpr std::int64_t kContractSchemaVersion = 1;

/// Serialises a contract (and the PCVs it references) to JSON.
std::string contract_to_json(const Contract& contract, const PcvRegistry& reg);

/// Parses a contract back into `*out`, interning its PCVs into `reg`.
/// Returns false with `*error` ("contract json: <why>[ at byte N]") on a
/// malformed artifact — bad syntax, a missing, misspelled or duplicated
/// key, a schema-version mismatch or a duplicate input class — and then
/// leaves `reg` untouched.
bool decode_contract(const std::string& json, PcvRegistry& reg, Contract* out,
                     std::string* error);

/// decode_contract() for library callers that treat a contract as a
/// trusted build artifact: aborts with its message on malformed input.
Contract contract_from_json(const std::string& json, PcvRegistry& reg);

/// Writes the contract artifact to `path` (the operator's "store" step).
/// Returns false on I/O failure.
bool save_contract(const std::string& path, const Contract& contract,
                   const PcvRegistry& reg);

/// Loads a stored contract artifact. PCVs are interned into `reg` in file
/// order (so a freshly loaded registry reproduces the generation-side
/// name->id mapping). Aborts on a missing file, malformed JSON, or a
/// schema-version mismatch.
Contract load_contract(const std::string& path, PcvRegistry& reg);

}  // namespace bolt::perf

// The compiled-expression VM's contract: bytecode evaluation (scalar and
// batch) is bit-identical to the tree-walk PerfExpr::eval on any
// polynomial — randomized shapes up to degree >= 3, empty and constant
// expressions, negative and overflow-adjacent coefficients, and every
// bound of the generated bridge and nat contracts at the monitor's real
// row layout — and the compiler actually folds/factors (instruction-count
// sanity checks).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/exec.h"
#include "perf/expr_vm.h"
#include "perf/perf_expr.h"
#include "support/random.h"

namespace bolt::perf {
namespace {

/// Builds a random polynomial over `pcv_count` PCVs (ids 0..pcv_count-1).
PerfExpr random_poly(support::Rng& rng, std::size_t pcv_count,
                     std::size_t max_terms, int max_degree,
                     std::int64_t max_coeff) {
  PerfExpr e;
  const std::size_t terms = rng.below(max_terms + 1);
  for (std::size_t t = 0; t < terms; ++t) {
    Monomial m;
    const int degree = static_cast<int>(rng.below(max_degree + 1));
    for (int d = 0; d < degree; ++d) {
      m = m * Monomial::pcv(static_cast<PcvId>(rng.below(pcv_count)));
    }
    std::int64_t c = static_cast<std::int64_t>(rng.below(
        static_cast<std::uint64_t>(max_coeff)));
    if (rng.chance(0.2)) c = -c;  // contracts are non-negative; the VM is not
    e += PerfExpr::term(c, m);
  }
  return e;
}

PcvBinding random_binding(support::Rng& rng, std::size_t pcv_count,
                          std::uint64_t max_value) {
  PcvBinding b;
  for (PcvId id = 0; id < pcv_count; ++id) {
    if (rng.chance(0.25)) continue;  // unbound PCVs read as 0
    b.set(id, rng.below(max_value + 1));
  }
  return b;
}

TEST(ExprVm, EmptyAndConstantExpressions) {
  const CompiledExpr zero = CompiledExpr::compile(PerfExpr{});
  EXPECT_EQ(zero.eval(PcvBinding{}), 0);
  EXPECT_EQ(zero.slot_count(), 0u);

  const CompiledExpr c = CompiledExpr::compile(PerfExpr::constant(882));
  EXPECT_EQ(c.eval(PcvBinding{}), 882);
  EXPECT_EQ(c.instruction_count(), 1u);  // folds to a single kConst

  const CompiledExpr neg = CompiledExpr::compile(PerfExpr::constant(-7));
  EXPECT_EQ(neg.eval(PcvBinding{}), -7);
}

TEST(ExprVm, Table4ShapeMatchesTreeWalkAndFactors) {
  // 245*e + 144*c + 36*t + 82*e*c + 19*e*t + 882 (paper Table 4).
  const PcvId e = 0, c = 1, t = 2;
  PerfExpr expr;
  expr += PerfExpr::term(245, Monomial::pcv(e));
  expr += PerfExpr::term(144, Monomial::pcv(c));
  expr += PerfExpr::term(36, Monomial::pcv(t));
  expr += PerfExpr::term(82, Monomial::pcv(e) * Monomial::pcv(c));
  expr += PerfExpr::term(19, Monomial::pcv(e) * Monomial::pcv(t));
  expr += PerfExpr::constant(882);

  const CompiledExpr vm = CompiledExpr::compile(expr);
  support::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const PcvBinding bind = random_binding(rng, 3, 1 << 20);
    ASSERT_EQ(vm.eval(bind), expr.eval(bind)) << vm.str();
  }
  // Horner on e: e*(245 + 82*c + 19*t) + 144*c + 36*t + 882.
  // Naive term-by-term is 6 multiplies for the products alone plus adds;
  // the factored form needs at most 5 multiplies and 5 adds + loads/consts.
  EXPECT_LE(vm.instruction_count(), 20u) << vm.str();
}

TEST(ExprVm, RandomizedEquivalenceScalar) {
  support::Rng rng(1234);
  for (int round = 0; round < 400; ++round) {
    // Degree up to 4, coefficients up to 2^40, bindings up to 2^5: products
    // stay within int64 (overflow-adjacent, but defined in the tree walk).
    const PerfExpr expr = random_poly(rng, 6, 10, 4, std::int64_t{1} << 40);
    const CompiledExpr vm = CompiledExpr::compile(expr);
    for (int i = 0; i < 20; ++i) {
      const PcvBinding bind = random_binding(rng, 6, 31);
      ASSERT_EQ(vm.eval(bind), expr.eval(bind))
          << "round " << round << ": " << vm.str();
    }
  }
}

TEST(ExprVm, RandomizedEquivalenceBatch) {
  support::Rng rng(99);
  for (int round = 0; round < 60; ++round) {
    const PerfExpr expr = random_poly(rng, 5, 8, 3, std::int64_t{1} << 32);
    const CompiledExpr vm = CompiledExpr::compile(expr);
    const std::size_t stride = 5;
    // An odd batch size exercises the partial trailing lane block.
    const std::size_t count = 1 + rng.below(300);
    std::vector<std::uint64_t> slots(stride * count);
    std::vector<PcvBinding> binds(count);
    for (std::size_t row = 0; row < count; ++row) {
      binds[row] = random_binding(rng, 5, 63);
      for (const auto& [id, v] : binds[row].values()) {
        slots[row * stride + id] = v;
      }
    }
    std::vector<std::int64_t> out(count);
    vm.eval_batch(slots.data(), stride, count, out.data());
    for (std::size_t row = 0; row < count; ++row) {
      ASSERT_EQ(out[row], expr.eval(binds[row])) << "round " << round;
    }
  }
}

TEST(ExprVm, CseSharesRepeatedStructure) {
  // (1 + e*c) appears in two places once factored: e*c*t + e*c + 5.
  const PcvId e = 0, c = 1, t = 2;
  PerfExpr expr;
  expr += PerfExpr::term(1, Monomial::pcv(e) * Monomial::pcv(c) * Monomial::pcv(t));
  expr += PerfExpr::term(1, Monomial::pcv(e) * Monomial::pcv(c));
  expr += PerfExpr::constant(5);
  const CompiledExpr vm = CompiledExpr::compile(expr);
  // Loads e, c, t at most once each.
  support::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const PcvBinding bind = random_binding(rng, 3, 1 << 10);
    ASSERT_EQ(vm.eval(bind), expr.eval(bind)) << vm.str();
  }
  EXPECT_LE(vm.instruction_count(), 9u) << vm.str();
}

TEST(ExprVm, GeneratedContractBoundsMatchTreeWalkAtMonitorStride) {
  // The tree walk is the oracle for the compiled bounds the monitor
  // validates with: every entry and metric of real generated contracts,
  // evaluated in batch over dense rows laid out exactly as the monitor
  // lays them out (monitor::ContractTables' slot stride).
  for (const std::string nf : {"bridge", "nat"}) {
    PcvRegistry reg;
    core::NfTarget target;
    ASSERT_TRUE(core::make_named_target(nf, reg, target));
    core::ContractGenerator gen(reg);
    const core::GenerationResult result = gen.generate(target.analysis());
    ASSERT_FALSE(result.contract.entries().empty()) << nf;
    const monitor::ContractTables tables(result.contract, reg,
                                         monitor::MonitorOptions{});
    const std::size_t stride = tables.slot_stride;

    support::Rng rng(2024);
    constexpr std::size_t kRows = 97;
    std::vector<std::uint64_t> slots(kRows * stride);
    std::vector<PcvBinding> binds(kRows);
    for (std::size_t row = 0; row < kRows; ++row) {
      for (std::size_t s = 0; s < stride; ++s) {
        if (rng.chance(0.3)) continue;  // unbound PCVs read as 0
        const std::uint64_t v = rng.below(1 << 12);
        slots[row * stride + s] = v;
        if (v != 0) binds[row].set(static_cast<PcvId>(s), v);
      }
    }
    std::vector<std::int64_t> out(kRows);
    BatchScratch scratch;
    for (std::size_t e = 0; e < result.contract.entries().size(); ++e) {
      const ContractEntry& entry = result.contract.entries()[e];
      for (const Metric m : kAllMetrics) {
        const int mi = metric_index(m);
        tables.bounds[e][mi].eval_batch(slots.data(), stride, kRows,
                                        out.data(), scratch);
        for (std::size_t row = 0; row < kRows; ++row) {
          ASSERT_EQ(out[row], entry.perf.get(m).eval(binds[row]))
              << nf << " entry " << entry.input_class << " metric " << mi
              << " row " << row;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bolt::perf

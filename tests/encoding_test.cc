// Tests for Tseitin transformation and cardinality encodings:
// differential against brute-force model counting.

#include <gtest/gtest.h>

#include "enc/cardinality.h"
#include "enc/totalizer.h"
#include "enc/tseitin.h"
#include "logic/generator.h"
#include "logic/semantics.h"
#include "sat/all_sat.h"
#include "sat/solver.h"
#include "util/bit.h"

namespace arbiter::enc {
namespace {

using sat::AllSatOptions;
using sat::CollectAllSat;
using sat::Lit;
using sat::Solver;
using sat::SolveStatus;

TEST(TseitinTest, ProjectedModelsEqualBruteForce) {
  Rng rng(808);
  RandomFormulaOptions options;
  options.num_terms = 4;
  options.max_depth = 6;
  for (int i = 0; i < 100; ++i) {
    Formula f = RandomFormula(&rng, options);
    Solver solver;
    TseitinEncoder encoder(&solver);
    encoder.ReserveInputVars(4);
    encoder.Assert(f);
    AllSatOptions as;
    as.num_project = 4;
    EXPECT_EQ(CollectAllSat(&solver, as), EnumerateModels(f, 4))
        << "round " << i;
  }
}

TEST(TseitinTest, SharedSubtreesEncodedOnce) {
  Solver solver;
  TseitinEncoder encoder(&solver);
  encoder.ReserveInputVars(2);
  Formula shared = And(Formula::Var(0), Formula::Var(1));
  Formula f = Or(shared, Not(shared));
  Lit l1 = encoder.Encode(shared);
  int vars_after_first = solver.NumVars();
  encoder.Encode(f);
  Lit l2 = encoder.Encode(shared);
  EXPECT_EQ(l1, l2);
  // Only the Or node (and nothing for the cached And) was added;
  // Not is free.
  EXPECT_EQ(solver.NumVars(), vars_after_first + 1);
}

TEST(TseitinTest, ConstantsEncode) {
  Solver solver;
  TseitinEncoder encoder(&solver);
  EXPECT_TRUE(encoder.Assert(Formula::True()));
  EXPECT_EQ(solver.Solve(), SolveStatus::kSat);
  Solver solver2;
  TseitinEncoder encoder2(&solver2);
  encoder2.Assert(Formula::False());
  EXPECT_EQ(solver2.Solve(), SolveStatus::kUnsat);
}

// Counts the models of the clauses in `solver` projected on n vars.
int CountProjected(Solver* solver, int n) {
  AllSatOptions as;
  as.num_project = n;
  return static_cast<int>(CollectAllSat(solver, as).size());
}

// Binomial coefficient sum helper: number of n-bit words with <= k
// (or >= k, or == k) bits set.
int CountWords(int n, int k, int mode) {  // 0: <=, 1: >=, 2: ==
  int count = 0;
  for (uint64_t w = 0; w < (1ULL << n); ++w) {
    int pc = PopCount(w);
    if ((mode == 0 && pc <= k) || (mode == 1 && pc >= k) ||
        (mode == 2 && pc == k)) {
      ++count;
    }
  }
  return count;
}

class CardinalityTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  std::vector<Lit> MakeInputs(Solver* solver, int n) {
    std::vector<Lit> lits;
    for (int i = 0; i < n; ++i) lits.push_back(Lit::Pos(solver->NewVar()));
    return lits;
  }
};

TEST_P(CardinalityTest, AtMostKCountsMatch) {
  auto [n, k] = GetParam();
  Solver solver;
  std::vector<Lit> lits = MakeInputs(&solver, n);
  AddAtMostK(&solver, lits, k);
  EXPECT_EQ(CountProjected(&solver, n), CountWords(n, k, 0));
}

TEST_P(CardinalityTest, AtLeastKCountsMatch) {
  auto [n, k] = GetParam();
  Solver solver;
  std::vector<Lit> lits = MakeInputs(&solver, n);
  AddAtLeastK(&solver, lits, k);
  EXPECT_EQ(CountProjected(&solver, n), CountWords(n, k, 1));
}

TEST_P(CardinalityTest, ExactlyKCountsMatch) {
  auto [n, k] = GetParam();
  Solver solver;
  std::vector<Lit> lits = MakeInputs(&solver, n);
  AddExactlyK(&solver, lits, k);
  EXPECT_EQ(CountProjected(&solver, n), CountWords(n, k, 2));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CardinalityTest,
    ::testing::Values(std::pair{1, 0}, std::pair{1, 1}, std::pair{3, 0},
                      std::pair{3, 1}, std::pair{3, 2}, std::pair{3, 3},
                      std::pair{5, 2}, std::pair{5, 4}, std::pair{6, 3},
                      std::pair{7, 1}, std::pair{7, 6}));

TEST(CardinalityTest, NegativeKIsUnsat) {
  Solver solver;
  std::vector<Lit> lits = {Lit::Pos(solver.NewVar())};
  AddAtMostK(&solver, lits, -1);
  EXPECT_EQ(solver.Solve(), SolveStatus::kUnsat);
}

TEST(CardinalityTest, AtLeastMoreThanNIsUnsat) {
  Solver solver;
  std::vector<Lit> lits = {Lit::Pos(solver.NewVar()),
                           Lit::Pos(solver.NewVar())};
  AddAtLeastK(&solver, lits, 3);
  EXPECT_EQ(solver.Solve(), SolveStatus::kUnsat);
}

TEST(CardinalityTest, MixedPolarities) {
  // at-most-1 over {a, !b}: models where a + (1-b) <= 1.
  Solver solver;
  Lit a = Lit::Pos(solver.NewVar());
  Lit b = Lit::Pos(solver.NewVar());
  AddAtMostK(&solver, {a, ~b}, 1);
  AllSatOptions as;
  as.num_project = 2;
  std::vector<uint64_t> models = CollectAllSat(&solver, as);
  // a=bit0, b=bit1.  Excluded: a=1, b=0 (count 2).
  EXPECT_EQ(models, (std::vector<uint64_t>{0b00, 0b10, 0b11}));
}

TEST(XorEqualsTest, TruthTable) {
  Solver solver;
  Lit a = Lit::Pos(solver.NewVar());
  Lit b = Lit::Pos(solver.NewVar());
  Lit d = EncodeXorEquals(&solver, a, b);
  for (int va = 0; va <= 1; ++va) {
    for (int vb = 0; vb <= 1; ++vb) {
      ASSERT_EQ(solver.SolveAssuming({Lit(a.var(), va == 0),
                                      Lit(b.var(), vb == 0)}),
                SolveStatus::kSat);
      EXPECT_EQ(solver.ModelValue(d.var()), (va ^ vb) == 1);
    }
  }
}

class TotalizerTest : public ::testing::TestWithParam<int> {};

TEST_P(TotalizerTest, ThresholdsMatchPopcount) {
  const int n = GetParam();
  Solver solver;
  std::vector<Lit> lits;
  for (int i = 0; i < n; ++i) lits.push_back(Lit::Pos(solver.NewVar()));
  Totalizer counter(&solver, lits);
  ASSERT_EQ(counter.size(), n);
  for (uint64_t w = 0; w < (1ULL << n); ++w) {
    std::vector<Lit> assumptions;
    for (int i = 0; i < n; ++i) {
      assumptions.push_back(Lit(lits[i].var(), ((w >> i) & 1) == 0));
    }
    ASSERT_EQ(solver.SolveAssuming(assumptions), SolveStatus::kSat);
    int pc = PopCount(w);
    for (int k = 1; k <= n; ++k) {
      EXPECT_EQ(solver.ModelValue(counter.AtLeast(k).var()), pc >= k)
          << "w=" << w << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TotalizerTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7));

TEST(TotalizerTest, AgreesWithSequentialCounterOnCounts) {
  // Both encodings must admit exactly C(n, k) solutions under an
  // exactly-k constraint.
  const int n = 6;
  for (int k = 0; k <= n; ++k) {
    int counts[2] = {0, 0};
    for (int which = 0; which < 2; ++which) {
      Solver solver;
      std::vector<Lit> lits;
      for (int i = 0; i < n; ++i) {
        lits.push_back(Lit::Pos(solver.NewVar()));
      }
      if (which == 0) {
        AddExactlyK(&solver, lits, k);
      } else {
        Totalizer counter(&solver, lits);
        if (k >= 1) solver.AddUnit(counter.AtLeast(k));
        if (k < n) solver.AddUnit(counter.AtMost(k));
      }
      AllSatOptions as;
      as.num_project = n;
      counts[which] =
          static_cast<int>(CollectAllSat(&solver, as).size());
    }
    EXPECT_EQ(counts[0], counts[1]) << "k=" << k;
    EXPECT_EQ(counts[0], CountWords(n, k, 2)) << "k=" << k;
  }
}

TEST(TotalizerTest, EmptyInputHasNoOutputs) {
  Solver solver;
  Totalizer counter(&solver, {});
  EXPECT_EQ(counter.size(), 0);
}

}  // namespace
}  // namespace arbiter::enc

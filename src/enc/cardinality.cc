#include "enc/cardinality.h"

#include "util/logging.h"

namespace arbiter::enc {

using sat::Lit;
using sat::ClauseSink;

void AddAtMostK(ClauseSink* sink, const std::vector<Lit>& lits, int k) {
  ARBITER_CHECK(sink != nullptr);
  const int n = static_cast<int>(lits.size());
  if (k < 0) {
    sink->AddClause({});  // unsatisfiable
    return;
  }
  if (k >= n) return;
  if (k == 0) {
    for (Lit l : lits) sink->AddUnit(~l);
    return;
  }
  // Sinz sequential counter: registers s[i][j] = "at least j+1 true
  // among lits[0..i]".
  std::vector<std::vector<Lit>> s(n - 1, std::vector<Lit>(k));
  for (int i = 0; i < n - 1; ++i) {
    for (int j = 0; j < k; ++j) s[i][j] = Lit::Pos(sink->NewVar());
  }
  // lits[0] -> s[0][0]
  sink->AddBinary(~lits[0], s[0][0]);
  // !s[0][j] for j >= 1
  for (int j = 1; j < k; ++j) sink->AddUnit(~s[0][j]);
  for (int i = 1; i < n - 1; ++i) {
    // lits[i] -> s[i][0];  s[i-1][0] -> s[i][0]
    sink->AddBinary(~lits[i], s[i][0]);
    sink->AddBinary(~s[i - 1][0], s[i][0]);
    for (int j = 1; j < k; ++j) {
      // lits[i] & s[i-1][j-1] -> s[i][j];  s[i-1][j] -> s[i][j]
      sink->AddTernary(~lits[i], ~s[i - 1][j - 1], s[i][j]);
      sink->AddBinary(~s[i - 1][j], s[i][j]);
    }
    // lits[i] & s[i-1][k-1] -> conflict
    sink->AddBinary(~lits[i], ~s[i - 1][k - 1]);
  }
  // Final element.
  sink->AddBinary(~lits[n - 1], ~s[n - 2][k - 1]);
}

void AddAtLeastK(ClauseSink* sink, const std::vector<Lit>& lits, int k) {
  ARBITER_CHECK(sink != nullptr);
  const int n = static_cast<int>(lits.size());
  if (k <= 0) return;
  if (k > n) {
    sink->AddClause({});
    return;
  }
  // At least k of lits  ==  at most n-k of their negations.
  std::vector<Lit> negs;
  negs.reserve(n);
  for (Lit l : lits) negs.push_back(~l);
  AddAtMostK(sink, negs, n - k);
}

void AddExactlyK(ClauseSink* sink, const std::vector<Lit>& lits, int k) {
  AddAtMostK(sink, lits, k);
  AddAtLeastK(sink, lits, k);
}

Lit EncodeXorEquals(ClauseSink* sink, Lit a, Lit b) {
  ARBITER_CHECK(sink != nullptr);
  Lit d = Lit::Pos(sink->NewVar());
  sink->AddTernary(~d, a, b);
  sink->AddTernary(~d, ~a, ~b);
  sink->AddTernary(d, ~a, b);
  sink->AddTernary(d, a, ~b);
  return d;
}

}  // namespace arbiter::enc

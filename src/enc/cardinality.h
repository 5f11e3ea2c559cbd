#ifndef ARBITER_ENC_CARDINALITY_H_
#define ARBITER_ENC_CARDINALITY_H_

#include <vector>

#include "sat/cnf.h"

/// \file cardinality.h
/// Cardinality constraints over literals, encoded with the sequential
/// (unary) counter of Sinz (2005), plus the XOR difference bit the
/// Hamming-distance encodings build on (solve/sat_bridge.h).  Distance
/// bounds that are assumed or tightened incrementally use the
/// totalizer (totalizer.h) instead.

namespace arbiter::enc {

/// Adds clauses enforcing  Σ lits <= k.  k >= lits.size() adds nothing;
/// k == 0 forces every literal false; k < 0 adds the empty clause.
void AddAtMostK(sat::ClauseSink* sink, const std::vector<sat::Lit>& lits,
                int k);

/// Adds clauses enforcing  Σ lits >= k  (via at-most on negations).
void AddAtLeastK(sat::ClauseSink* sink, const std::vector<sat::Lit>& lits,
                 int k);

/// Adds clauses enforcing  Σ lits == k.
void AddExactlyK(sat::ClauseSink* sink, const std::vector<sat::Lit>& lits,
                 int k);

/// Creates a fresh literal d with  d <-> (a xor b)  and returns it.
/// This is the "difference bit" used for Hamming distance encodings.
sat::Lit EncodeXorEquals(sat::ClauseSink* sink, sat::Lit a, sat::Lit b);

}  // namespace arbiter::enc

#endif  // ARBITER_ENC_CARDINALITY_H_

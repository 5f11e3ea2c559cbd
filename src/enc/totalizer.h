#ifndef ARBITER_ENC_TOTALIZER_H_
#define ARBITER_ENC_TOTALIZER_H_

#include <vector>

#include "sat/cnf.h"
#include "util/logging.h"

/// \file totalizer.h
/// The totalizer cardinality encoding of Bailleux & Boufkhad (2003):
/// a balanced binary tree of unary merges.  Output literal k is true
/// iff >= k inputs are; O(n log n) auxiliary variables and O(n^2)
/// clauses (merge products).  A running sequential counter with the
/// same interface needed O(n^2) variables and ran 2–4× slower on the
/// distance-bounding workloads of src/solve/ (EXPERIMENTS.md E14), so
/// the totalizer is the only threshold counter.

namespace arbiter::enc {

/// A totalizer over the given literals; thresholds usable as
/// assumptions or asserted as units.
class Totalizer {
 public:
  Totalizer(sat::ClauseSink* sink, const std::vector<sat::Lit>& lits);

  int size() const { return static_cast<int>(outputs_.size()); }

  /// Literal true iff >= k inputs are true.  Requires 1 <= k <= size().
  sat::Lit AtLeast(int k) const {
    ARBITER_CHECK(k >= 1 && k <= size());
    return outputs_[k - 1];
  }

  /// Literal true iff <= k inputs are true.  Requires 0 <= k < size().
  sat::Lit AtMost(int k) const { return ~AtLeast(k + 1); }

 private:
  /// Builds the subtree over lits[lo, hi) and returns its unary
  /// output vector (outputs[i] <=> at least i+1 true in the range).
  std::vector<sat::Lit> Build(sat::ClauseSink* sink,
                              const std::vector<sat::Lit>& lits, int lo,
                              int hi);

  std::vector<sat::Lit> outputs_;
};

}  // namespace arbiter::enc

#endif  // ARBITER_ENC_TOTALIZER_H_

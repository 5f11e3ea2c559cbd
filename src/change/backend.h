#ifndef ARBITER_CHANGE_BACKEND_H_
#define ARBITER_CHANGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "logic/formula.h"
#include "model/distance_semantics.h"
#include "model/model_set.h"
#include "util/status.h"

/// \file backend.h
/// DistanceBackend: how a distance-semantics argmin gets *computed*.
///
/// The semantics layer (model/distance_semantics.h) fixes *what*
/// ψ ▷ μ means — a metric × aggregator argmin over Mod(μ).  A backend
/// fixes *how*:
///
///   * "enum"      — materialize Mod(ψ) and Mod(μ) by brute-force
///                   enumeration and run SemanticArgmin.  Exact for
///                   every aggregator, but capped at kMaxEnumTerms
///                   (24) atoms: 2^n interpretations.  This is the
///                   oracle the differential harness trusts.
///   * "counting"  — never enumerates an interpretation space.
///                   min  → SAT binary search on a unary counter
///                          (solve/dalal_sat.h);
///                   max  → CEGAR min–max (solve/arbitration_sat.h);
///                   Σ    → one #SAT column-counting pass over ψ
///                          collapses sdist to a linear objective,
///                          minimized by branch-and-bound over CNF(μ)
///                          (solve/sum_sat.h), with a per-backend
///                          column cache across calls.
///                   Serves 63 atoms for min/max (uint64 model masks),
///                   and computes the Σ optimum up to ~120 atoms with
///                   models omitted past 63.  Weighted-Σ needs a
///                   per-model weight function — enumeration only.
///
/// Both backends implement identical edge conventions, and the
/// differential fuzz harness checks them bit-identical on every family
/// up to the enumeration ceiling.
///
/// A BeliefStore always holds one backend and computes every distance
/// operator through it — `change` and `query dist` alike, "enum" by
/// default.  The registry operators (change/registry.h) compute the
/// same argmins over materialized model sets; they stay the oracle
/// the tests and the fuzz harness check the backends against, and
/// serve the operators that are no distance argmin.

namespace arbiter {

/// Result of a backend-computed change.
struct DistanceChangeResult {
  /// Models of ψ ▷ μ (empty ModelSet(0) when models_omitted).
  ModelSet models = ModelSet(0);
  /// True iff model enumeration stopped at the cap.
  bool truncated = false;
  /// True when the vocabulary exceeds 63 atoms: only `optimal` is
  /// computed (Σ aggregator only).
  bool models_omitted = false;
  /// The aggregated distance at the argmin, in decimal (Σ values can
  /// exceed 64 bits).  Empty when the result is empty or the ψ-unsat
  /// convention applies (distance undefined).
  std::string optimal;
};

/// Strategy interface: computes SemanticArgmin without promising *how*.
class DistanceBackend {
 public:
  virtual ~DistanceBackend() = default;

  /// Registry name ("enum", "counting").
  virtual std::string name() const = 0;

  /// Largest vocabulary this backend serves for the given semantics.
  virtual int MaxTerms(const DistanceSemantics& semantics) const = 0;

  /// Largest vocabulary a store (or a linted script) running on this
  /// backend accepts: the enumeration wall for "enum", the 63-atom
  /// model-mask limit for "counting".  BeliefStore and arblint both
  /// read their capacity from here.
  virtual int VocabularyLimit() const = 0;

  /// The `max_models` a caller that needs the exact result passes to
  /// Change, or -1 for no cap.  Enumeration holds every model already,
  /// so "enum" is uncapped; "counting" finds each model by one AllSAT
  /// round and stops at 4096.
  virtual int64_t ExactModelCap() const = 0;

  /// Computes ψ ▷ μ under `semantics` over an n-term vocabulary.
  /// Fails with kCapacityExceeded past MaxTerms (or when a counting
  /// budget is exhausted) and kUnsupported for aggregator/backend
  /// combinations that cannot work (weighted-Σ on "counting").
  /// Non-const: the counting backend memoizes column counts.
  virtual Result<DistanceChangeResult> Change(
      const DistanceSemantics& semantics, const Formula& psi,
      const Formula& mu, int num_terms, int64_t max_models = 1024) = 0;
};

/// Fresh backend instances (each with its own caches, so concurrent
/// owners never share mutable state).
std::shared_ptr<DistanceBackend> MakeEnumeratingBackend();
std::shared_ptr<DistanceBackend> MakeCountingBackend();

/// Looks up a backend by registry name; kNotFound lists the known
/// names.  Returns a fresh instance per call.
Result<std::shared_ptr<DistanceBackend>> MakeDistanceBackend(
    const std::string& name);

/// The registry's names, in presentation order: {"enum", "counting"}.
std::vector<std::string> DistanceBackendNames();

/// How a registry operator name maps onto the backend interface:
/// which semantics to run, and whether the call is an arbitration
/// (ψ ▷ μ rewritten as (ψ ∨ μ) ▷ ⊤, Theorem 3.1's reduction).
struct BackendOperatorSpec {
  DistanceSemantics semantics;
  bool arbitration = false;
};

/// Resolves a distance-based operator name ("dalal", "revesz-max",
/// "revesz-sum", "arbitration-max", "arbitration-sum") to a backend
/// call spec carrying `metric`.  Other registry operators (updates,
/// set-theoretic revisions) are not distance argmins — kUnsupported.
Result<BackendOperatorSpec> BackendOperatorFor(
    const std::string& op_name, std::vector<int64_t> metric = {});

}  // namespace arbiter

#endif  // ARBITER_CHANGE_BACKEND_H_

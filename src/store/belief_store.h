#ifndef ARBITER_STORE_BELIEF_STORE_H_
#define ARBITER_STORE_BELIEF_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "change/backend.h"
#include "change/result_cache.h"
#include "kb/knowledge_base.h"
#include "logic/vocabulary.h"
#include "util/status.h"

/// \file belief_store.h
/// A small transactional repository of named belief bases — the
/// database-facing surface of the library.  Each base is a knowledge
/// base over the store's shared vocabulary; changes are applied
/// through any registered theory change operator and every applied
/// change is journaled, so they can be undone.
///
///   BeliefStore store;
///   store.Define("jury", "g & a & (g & a -> v)");
///   store.Apply("jury", "dalal", "!v");          // revise in place
///   store.Entails("jury", "g");                  // -> true
///   store.Undo("jury");                          // back to the start
///
/// The vocabulary grows as formulas mention new terms; bases defined
/// earlier are transparently re-evaluated over the grown vocabulary
/// (their formulas don't mention the new terms, so their models simply
/// leave them free).
///
/// ## Distance backends and metrics
///
/// Each store owns a distance backend (change/backend.h), and every
/// distance operator (dalal, revesz-max, revesz-sum, arbitration-max/
/// -sum) runs through it: `Apply` and `QueryDistance` share one cached
/// computation, so a result is the same whichever of them computed it.
/// The default "enum" backend enumerates interpretations and caps the
/// vocabulary at kMaxEnumTerms (24) terms.  Selecting "counting"
/// (`SetBackend("counting")`, or `set backend counting` in a belief
/// script) lifts the cap to 63 terms: distance operators run via
/// SAT/#SAT, and entailment/consistency queries switch to CDCL past the
/// enumeration limit.  Operators that are no distance argmin (updates,
/// set-theoretic revisions) run on the operator registry, the tests'
/// oracle, and stay capped at 24 terms.
///
/// A distance result is stored as the disjunction of its models'
/// minterms (ModelSet::ToFormula); the store never minimizes it.
///
/// Per-atom metric weights (`SetWeight("S", 3)`, or `set weight S 3`)
/// turn every distance into the weighted Hamming metric; operators
/// that cannot honor a non-unit metric fail loudly.
///
/// ## Failure semantics (strong error guarantee)
///
/// Every operation that can fail is transactional: inputs are parsed
/// and validated against a *scratch copy* of the store vocabulary, and
/// the store commits — vocabulary growth, base formula, undo stack and
/// journal together — only after every validation step has succeeded.
/// A non-OK Status therefore implies the store is observably unchanged:
/// `Dump()`, `Names()`, `vocabulary()`, `History()` and `HistoryDepth()`
/// all return exactly what they returned before the call.  In
/// particular a parse error or capacity overflow in `Define`, `Apply`,
/// `Entails`, `ConsistentWith` or `Counterfactual` never leaks
/// partially-registered terms into the vocabulary (which would silently
/// reinterpret every existing base over a larger universe).  The
/// differential fuzz harness (`src/test_support/`) replays randomized
/// op scripts with injected failures to enforce this guarantee.

namespace arbiter {

/// One journaled change applied to a base.
struct ChangeRecord {
  std::string op_name;
  std::string evidence_text;
};

/// Largest accepted metric weight.  Aggregated distances multiply
/// weights by atom flips and sum across up to ~120 atoms and 4096
/// models; capping each weight at 1e9 keeps every int64 accumulation
/// (diameters, Σ-aggregates) far from signed overflow.
inline constexpr int64_t kMaxMetricWeight = 1'000'000'000;

class BeliefStore {
 public:
  BeliefStore() = default;

  /// Copies share the operator-result cache (it is thread-safe and
  /// keyed independently of any one store) but never the distance
  /// backend: backends memoize mutable state (#SAT column caches), so
  /// each copy gets a fresh instance.  This is what makes
  /// copy-on-write snapshots safe for concurrent readers.  A moved-from
  /// store holds no backend and may only be assigned or destroyed.
  BeliefStore(const BeliefStore& other);
  BeliefStore& operator=(const BeliefStore& other);
  BeliefStore(BeliefStore&&) = default;
  BeliefStore& operator=(BeliefStore&&) = default;

  const Vocabulary& vocabulary() const { return vocab_; }

  /// Selects the distance backend ("enum" or "counting").  Fails with
  /// kNotFound for unknown names and kInvalidArgument if the current
  /// vocabulary already exceeds the new backend's capacity.
  Status SetBackend(const std::string& name);

  /// The selected backend's registry name ("enum" by default).
  std::string backend_name() const { return backend_->name(); }

  /// Sets the metric weight of a term (registering the term if new).
  /// Weights must be in [0, kMaxMetricWeight]; unset terms weigh 1.
  Status SetWeight(const std::string& term, int64_t weight);

  /// Attaches a (possibly shared) operator-result cache.  Apply and
  /// QueryDistance consult it before computing; pass nullptr to
  /// detach.  The cache key pins backend, operator, metric, ordered
  /// vocabulary, and the canonical forms of both formulas, so sharing
  /// one cache across many stores is sound.
  void SetResultCache(std::shared_ptr<OperatorResultCache> cache);

  const std::shared_ptr<OperatorResultCache>& result_cache() const {
    return cache_;
  }

  /// The explicitly-set weights, by term name.
  const std::map<std::string, int64_t>& weights() const { return weights_; }

  /// Per-index metric vector over the current vocabulary; empty when no
  /// weight was ever set (the unit/Dalal metric).
  std::vector<int64_t> MetricVector() const;

  /// Largest vocabulary the selected backend supports.
  int CapacityLimit() const { return backend_->VocabularyLimit(); }

  /// Defines (or redefines) a named base from formula text.
  /// Redefinition clears the base's history.
  Status Define(const std::string& name, const std::string& formula_text);

  /// True iff a base with this name exists.
  bool Contains(const std::string& name) const;

  /// Removes a base.
  Status Drop(const std::string& name);

  /// Names of all bases, sorted.
  std::vector<std::string> Names() const;

  /// Current contents of a base (re-evaluated over the current
  /// vocabulary if it has grown since the base was last touched).
  Result<KnowledgeBase> Get(const std::string& name) const;

  /// Applies `target <- target <op> evidence` in place and journals
  /// the change.  `op_name` is any registry name ("dalal", "winslett",
  /// "revesz-max", "arbitration-max", "two-sided-dalal", ...).
  Status Apply(const std::string& target, const std::string& op_name,
               const std::string& evidence_text);

  /// Reverts the most recent Apply on the base.  Fails if there is
  /// nothing to undo.
  Status Undo(const std::string& target);

  /// Number of undoable changes on a base (0 if unknown base).
  int HistoryDepth(const std::string& name) const;

  /// The journal of a base, oldest first.
  std::vector<ChangeRecord> History(const std::string& name) const;

  /// Semantic entailment: does the base imply the formula?  Enumerates
  /// up to kMaxEnumTerms; decided by CDCL past that (counting backend).
  Result<bool> Entails(const std::string& name,
                       const std::string& formula_text);

  /// Consistency: is base ∧ formula satisfiable?  Same dual-path rule
  /// as Entails.
  Result<bool> ConsistentWith(const std::string& name,
                              const std::string& formula_text);

  /// Logical equivalence of the base and the formula.  Same dual-path
  /// rule as Entails.
  Result<bool> EquivalentTo(const std::string& name,
                            const std::string& formula_text);

  /// KM counterfactual via update (the Ramsey test): "if `antecedent`
  /// were made true, would `consequent` hold?" — evaluated as
  /// (base ⋄ antecedent) ⊨ consequent with Winslett's update.
  Result<bool> Counterfactual(const std::string& name,
                              const std::string& antecedent_text,
                              const std::string& consequent_text);

  /// ## Snapshot reads
  ///
  /// The Query* family answers the same questions as Entails /
  /// ConsistentWith / EquivalentTo but never mutates the store: query
  /// formulas are parsed against a scratch vocabulary that is thrown
  /// away afterwards.  Terms the store has never seen are free in
  /// every base, so the answers are identical to the committing
  /// variants'.  Being `const`, these are safe to run concurrently
  /// from many readers against an immutable snapshot.
  Result<bool> QueryEntails(const std::string& name,
                            const std::string& formula_text) const;
  Result<bool> QueryConsistentWith(const std::string& name,
                                   const std::string& formula_text) const;
  Result<bool> QueryEquivalentTo(const std::string& name,
                                 const std::string& formula_text) const;

  /// Renders the base's model set (enumeration only: <= kMaxEnumTerms
  /// terms, kCapacityExceeded past that).
  Result<std::string> QueryModels(const std::string& name) const;

  /// The aggregated optimal distance of `base <op> mu` in decimal, or
  /// "undefined" when the distance is undefined (empty result / ψ
  /// unsatisfiable convention).  The same computation as Apply, so
  /// either one fills the result cache for the other; it runs on a
  /// fresh backend instance (the store's own backend memoizes state
  /// and this is const).
  Result<std::string> QueryDistance(const std::string& name,
                                    const std::string& op_name,
                                    const std::string& mu_text) const;

  /// Human-readable listing of every base and its models.
  std::string Dump() const;

  /// Serializes the store (vocabulary, base formulas, undo stacks, and
  /// journals) to a line-based text format.  Each base is written as
  /// its *current* formula, one `undo` line per pre-change formula
  /// (oldest first), and its journal as `hist` lines.  State is
  /// persisted verbatim, never reconstructed by re-running operators:
  /// not every operator commutes with vocabulary growth, so replay
  /// over the final vocabulary could diverge from the saved state.
  std::string Save() const;

  /// Reconstructs a store from Save() output.  Formulas, undo stacks,
  /// and journals are restored syntactically (operator names and
  /// evidence are validated but not re-executed), so `History()`,
  /// `HistoryDepth()`, and `Undo()` survive a Save/Load round trip
  /// exactly.
  static Result<BeliefStore> Load(const std::string& text);

 private:
  struct Entry {
    Formula formula;
    std::vector<Formula> undo_stack;   // previous formulas
    std::vector<ChangeRecord> journal;  // applied changes
  };

  /// Parses `text` against `*scratch` (a copy of vocab_) and validates
  /// the backend's capacity.  Callers commit the scratch vocabulary
  /// back into the store only once the whole operation has succeeded.
  Result<Formula> ParseValidated(const std::string& text,
                                 Vocabulary* scratch) const;
  Result<const Entry*> Find(const std::string& name) const;

  /// MetricVector over an arbitrary (scratch) vocabulary.
  std::vector<int64_t> MetricVectorFor(const Vocabulary& vocab) const;

  /// `base <op> evidence` over `scratch`, as Apply and QueryDistance
  /// both need it.  `exact` is false when the backend stopped at its
  /// model cap; such a value holds only the distance and is never
  /// cached.
  struct ChangeValue {
    OperatorResultCache::Value value;
    bool exact = true;
  };

  /// The one change computation: the cached value when the key is
  /// present; otherwise distance operators run on `backend` (arbitration
  /// rewritten as fitting ψ ∨ μ to ⊤, Theorem 3.1) and any other
  /// operator on the registry, and an exact result is cached.  With
  /// `need_distance`, a cached satisfiable result that carries no
  /// distance is recomputed: the cache is shared, and code other than
  /// this routine may fill it without one (the benchmark's traced
  /// replay does).
  Result<ChangeValue> CachedChange(DistanceBackend& backend,
                                   const std::string& op_name,
                                   const Vocabulary& scratch,
                                   const Formula& base,
                                   const Formula& evidence,
                                   bool need_distance) const;

  /// Satisfiability of `f` over an n-term universe, routed by size:
  /// enumeration within kMaxEnumTerms, CDCL beyond.
  bool IsSatisfiableOver(const Formula& f, int num_terms) const;

  Result<bool> ComputeEntails(const Formula& base, const Formula& query,
                              int num_terms) const;
  Result<bool> ComputeConsistentWith(const Formula& base,
                                     const Formula& query,
                                     int num_terms) const;
  Result<bool> ComputeEquivalentTo(const Formula& base,
                                   const Formula& query,
                                   int num_terms) const;

  Vocabulary vocab_;
  std::map<std::string, Entry> bases_;
  std::shared_ptr<DistanceBackend> backend_ = MakeEnumeratingBackend();
  std::map<std::string, int64_t> weights_;
  std::shared_ptr<OperatorResultCache> cache_;
};

}  // namespace arbiter

#endif  // ARBITER_STORE_BELIEF_STORE_H_

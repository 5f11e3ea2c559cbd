#include "store/belief_store.h"

#include <utility>

#include "change/registry.h"
#include "change/update.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "solve/sat_bridge.h"
#include "util/string_util.h"

namespace arbiter {

namespace {

/// Journal payloads are persisted one per line; the parser treats all
/// whitespace alike, so flattening embedded line breaks preserves the
/// formula while keeping the Save format line-based.
std::string SingleLine(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

BeliefStore::BeliefStore(const BeliefStore& other)
    : vocab_(other.vocab_),
      bases_(other.bases_),
      // The source store's backend name came from the registry.
      backend_(MakeDistanceBackend(other.backend_->name()).ValueOrDie()),
      weights_(other.weights_),
      cache_(other.cache_) {}

BeliefStore& BeliefStore::operator=(const BeliefStore& other) {
  if (this != &other) {
    BeliefStore copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Result<Formula> BeliefStore::ParseValidated(const std::string& text,
                                            Vocabulary* scratch) const {
  Result<Formula> f = Parse(text, scratch);
  if (!f.ok()) return f;
  if (scratch->size() > CapacityLimit()) {
    if (CapacityLimit() <= kMaxEnumTerms) {
      return Status::CapacityExceeded(
          "store vocabulary exceeds the enumeration limit (" +
          std::to_string(kMaxEnumTerms) +
          " terms); select the counting backend to go further");
    }
    return Status::CapacityExceeded(
        "store vocabulary exceeds the " + backend_->name() +
        " backend limit (" + std::to_string(CapacityLimit()) + " terms)");
  }
  return f;
}

Status BeliefStore::SetBackend(const std::string& name) {
  Result<std::shared_ptr<DistanceBackend>> backend =
      MakeDistanceBackend(name);
  if (!backend.ok()) return backend.status();
  const int new_limit = (*backend)->VocabularyLimit();
  if (vocab_.size() > new_limit) {
    return Status::InvalidArgument(
        "cannot select backend \"" + name + "\": vocabulary already has " +
        std::to_string(vocab_.size()) + " terms (limit " +
        std::to_string(new_limit) + ")");
  }
  backend_ = *std::move(backend);
  return Status::OK();
}

Status BeliefStore::SetWeight(const std::string& term, int64_t weight) {
  if (weight < 0) {
    return Status::InvalidArgument("metric weights must be >= 0, got " +
                                   std::to_string(weight));
  }
  if (weight > kMaxMetricWeight) {
    // Unbounded weights let diameter and Σ accumulations overflow
    // int64 — a hostile `set weight` must fail, not corrupt distances.
    return Status::OutOfRange("metric weights must be <= " +
                              std::to_string(kMaxMetricWeight) + ", got " +
                              std::to_string(weight));
  }
  Vocabulary scratch = vocab_;
  Result<int> index = scratch.GetOrAddTerm(term);
  if (!index.ok()) return index.status();
  if (scratch.size() > CapacityLimit()) {
    return Status::CapacityExceeded(
        "cannot register weighted term \"" + term +
        "\": vocabulary limit is " + std::to_string(CapacityLimit()));
  }
  vocab_ = std::move(scratch);
  weights_[term] = weight;
  return Status::OK();
}

std::vector<int64_t> BeliefStore::MetricVector() const {
  return MetricVectorFor(vocab_);
}

std::vector<int64_t> BeliefStore::MetricVectorFor(
    const Vocabulary& vocab) const {
  if (weights_.empty()) return {};
  std::vector<int64_t> metric(vocab.size(), 1);
  for (const auto& [term, weight] : weights_) {
    Result<int> index = vocab.Lookup(term);
    // Weighted terms are registered at SetWeight time; a scratch vocab
    // derived from vocab_ therefore always contains them.
    if (index.ok()) metric[*index] = weight;
  }
  return metric;
}

void BeliefStore::SetResultCache(std::shared_ptr<OperatorResultCache> cache) {
  cache_ = std::move(cache);
}

bool BeliefStore::IsSatisfiableOver(const Formula& f, int num_terms) const {
  if (num_terms <= kMaxEnumTerms) {
    return !ModelSet::FromFormula(f, num_terms).empty();
  }
  return solve::SatIsSatisfiable(f, num_terms);
}

Result<const BeliefStore::Entry*> BeliefStore::Find(
    const std::string& name) const {
  auto it = bases_.find(name);
  if (it == bases_.end()) {
    return Status::NotFound("no belief base named \"" + name + "\"");
  }
  return {&it->second};
}

Status BeliefStore::Define(const std::string& name,
                           const std::string& formula_text) {
  if (name.empty()) return Status::InvalidArgument("empty base name");
  Vocabulary scratch = vocab_;
  Result<Formula> f = ParseValidated(formula_text, &scratch);
  if (!f.ok()) return f.status();
  // Commit point: every validation passed.
  vocab_ = std::move(scratch);
  Entry& entry = bases_[name];
  entry.formula = *f;
  entry.undo_stack.clear();
  entry.journal.clear();
  return Status::OK();
}

bool BeliefStore::Contains(const std::string& name) const {
  return bases_.count(name) != 0;
}

Status BeliefStore::Drop(const std::string& name) {
  if (bases_.erase(name) == 0) {
    return Status::NotFound("no belief base named \"" + name + "\"");
  }
  return Status::OK();
}

std::vector<std::string> BeliefStore::Names() const {
  std::vector<std::string> out;
  out.reserve(bases_.size());
  for (const auto& [name, entry] : bases_) out.push_back(name);
  return out;
}

Result<KnowledgeBase> BeliefStore::Get(const std::string& name) const {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  if (vocab_.size() > kMaxEnumTerms) {
    return Status::CapacityExceeded(
        "Get materializes the model set, which needs <= " +
        std::to_string(kMaxEnumTerms) +
        " terms; use Entails/ConsistentWith/EquivalentTo instead");
  }
  return KnowledgeBase((*entry)->formula, vocab_.size());
}

Result<BeliefStore::ChangeValue> BeliefStore::CachedChange(
    DistanceBackend& backend, const std::string& op_name,
    const Vocabulary& scratch, const Formula& base,
    const Formula& evidence, bool need_distance) const {
  const std::vector<int64_t> metric = MetricVectorFor(scratch);
  // A change is a pure function of (backend, operator, metric,
  // vocabulary binding, base, evidence) — exactly the cache key.  An
  // uncacheable request (canonicalization over budget) only skips
  // memoization.
  std::string cache_key;
  if (cache_ != nullptr) {
    Result<std::string> key = OperatorCacheKey(backend.name(), op_name,
                                               metric, scratch, base,
                                               evidence);
    if (key.ok()) {
      cache_key = *std::move(key);
      std::optional<OperatorResultCache::Value> hit =
          cache_->Lookup(cache_key);
      if (hit.has_value() &&
          (!need_distance || !hit->optimal.empty() ||
           hit->result.kind() == FormulaKind::kFalse)) {
        return ChangeValue{*std::move(hit)};
      }
    } else {
      cache_->RecordSkip();
    }
  }

  ChangeValue changed;
  Result<BackendOperatorSpec> spec = BackendOperatorFor(op_name, metric);
  if (spec.ok() && scratch.size() > 0) {
    const Formula psi = spec->arbitration ? Or(base, evidence) : base;
    const Formula mu = spec->arbitration ? Formula::True() : evidence;
    Result<DistanceChangeResult> result =
        backend.Change(spec->semantics, psi, mu, scratch.size(),
                       backend.ExactModelCap());
    if (!result.ok()) return result.status();
    changed.value.optimal = std::move(result->optimal);
    changed.exact = !result->truncated && !result->models_omitted;
    if (!changed.exact) return changed;
    changed.value.result = result->models.ToFormula();
  } else if (scratch.size() <= kMaxEnumTerms) {
    // Operators that are no distance argmin (updates, set-theoretic
    // revisions) enumerate while the vocabulary permits it.
    auto op = MakeOperator(op_name, metric);
    if (!op.ok()) return op.status();
    KnowledgeBase current(base, scratch.size());
    KnowledgeBase mu(evidence, scratch.size());
    changed.value.result = (*op)->Apply(current, mu).formula();
  } else {
    return spec.status();
  }
  if (!cache_key.empty()) cache_->Insert(cache_key, changed.value);
  return changed;
}

Status BeliefStore::Apply(const std::string& target,
                          const std::string& op_name,
                          const std::string& evidence_text) {
  auto it = bases_.find(target);
  if (it == bases_.end()) {
    return Status::NotFound("no belief base named \"" + target + "\"");
  }
  Vocabulary scratch = vocab_;
  Result<Formula> evidence = ParseValidated(evidence_text, &scratch);
  if (!evidence.ok()) return evidence.status();
  Entry& entry = it->second;
  Result<ChangeValue> changed =
      CachedChange(*backend_, op_name, scratch, entry.formula, *evidence,
                   /*need_distance=*/false);
  if (!changed.ok()) return changed.status();
  if (!changed->exact) {
    // The store holds results as formulas built from their models, so
    // a truncated model list would silently change the base's meaning.
    return Status::CapacityExceeded(
        "change result exceeds " +
        std::to_string(backend_->ExactModelCap()) +
        " models; the store must hold the exact result");
  }
  // Commit point: vocabulary, journal, and formula move together.
  vocab_ = std::move(scratch);
  entry.undo_stack.push_back(entry.formula);
  entry.journal.push_back(ChangeRecord{op_name, evidence_text});
  entry.formula = std::move(changed->value.result);
  return Status::OK();
}

Status BeliefStore::Undo(const std::string& target) {
  auto it = bases_.find(target);
  if (it == bases_.end()) {
    return Status::NotFound("no belief base named \"" + target + "\"");
  }
  Entry& entry = it->second;
  if (entry.undo_stack.empty()) {
    return Status::InvalidArgument("nothing to undo on \"" + target + "\"");
  }
  entry.formula = entry.undo_stack.back();
  entry.undo_stack.pop_back();
  entry.journal.pop_back();
  return Status::OK();
}

int BeliefStore::HistoryDepth(const std::string& name) const {
  auto it = bases_.find(name);
  return it == bases_.end()
             ? 0
             : static_cast<int>(it->second.undo_stack.size());
}

std::vector<ChangeRecord> BeliefStore::History(
    const std::string& name) const {
  auto it = bases_.find(name);
  if (it == bases_.end()) return {};
  return it->second.journal;
}

Result<bool> BeliefStore::ComputeEntails(const Formula& base,
                                         const Formula& query,
                                         int num_terms) const {
  if (num_terms > kMaxEnumTerms) {
    // base ⊨ f  ⟺  base ∧ ¬f is unsatisfiable.
    return !IsSatisfiableOver(And(base, Not(query)), num_terms);
  }
  KnowledgeBase base_kb(base, num_terms);
  KnowledgeBase query_kb(query, num_terms);
  return base_kb.Implies(query_kb);
}

Result<bool> BeliefStore::ComputeConsistentWith(const Formula& base,
                                                const Formula& query,
                                                int num_terms) const {
  if (num_terms > kMaxEnumTerms) {
    return IsSatisfiableOver(And(base, query), num_terms);
  }
  KnowledgeBase base_kb(base, num_terms);
  KnowledgeBase query_kb(query, num_terms);
  return !base_kb.models().Intersect(query_kb.models()).empty();
}

Result<bool> BeliefStore::ComputeEquivalentTo(const Formula& base,
                                              const Formula& query,
                                              int num_terms) const {
  if (num_terms > kMaxEnumTerms) {
    // Equivalence as two unsatisfiability checks.
    return !IsSatisfiableOver(And(base, Not(query)), num_terms) &&
           !IsSatisfiableOver(And(Not(base), query), num_terms);
  }
  KnowledgeBase base_kb(base, num_terms);
  KnowledgeBase query_kb(query, num_terms);
  return base_kb.EquivalentTo(query_kb);
}

Result<bool> BeliefStore::Entails(const std::string& name,
                                  const std::string& formula_text) {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  Vocabulary scratch = vocab_;
  Result<Formula> f = ParseValidated(formula_text, &scratch);
  if (!f.ok()) return f.status();
  vocab_ = std::move(scratch);
  // The base is evaluated over the (possibly grown) vocabulary.
  return ComputeEntails((*entry)->formula, *f, vocab_.size());
}

Result<bool> BeliefStore::ConsistentWith(const std::string& name,
                                         const std::string& formula_text) {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  Vocabulary scratch = vocab_;
  Result<Formula> f = ParseValidated(formula_text, &scratch);
  if (!f.ok()) return f.status();
  vocab_ = std::move(scratch);
  return ComputeConsistentWith((*entry)->formula, *f, vocab_.size());
}

Result<bool> BeliefStore::EquivalentTo(const std::string& name,
                                       const std::string& formula_text) {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  Vocabulary scratch = vocab_;
  Result<Formula> f = ParseValidated(formula_text, &scratch);
  if (!f.ok()) return f.status();
  vocab_ = std::move(scratch);
  return ComputeEquivalentTo((*entry)->formula, *f, vocab_.size());
}

Result<bool> BeliefStore::QueryEntails(const std::string& name,
                                       const std::string& formula_text) const {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  Vocabulary scratch = vocab_;
  Result<Formula> f = ParseValidated(formula_text, &scratch);
  if (!f.ok()) return f.status();
  // The scratch vocabulary is discarded: terms the store never saw are
  // free in every base, so the verdict matches the committing variant.
  return ComputeEntails((*entry)->formula, *f, scratch.size());
}

Result<bool> BeliefStore::QueryConsistentWith(
    const std::string& name, const std::string& formula_text) const {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  Vocabulary scratch = vocab_;
  Result<Formula> f = ParseValidated(formula_text, &scratch);
  if (!f.ok()) return f.status();
  return ComputeConsistentWith((*entry)->formula, *f, scratch.size());
}

Result<bool> BeliefStore::QueryEquivalentTo(
    const std::string& name, const std::string& formula_text) const {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  Vocabulary scratch = vocab_;
  Result<Formula> f = ParseValidated(formula_text, &scratch);
  if (!f.ok()) return f.status();
  return ComputeEquivalentTo((*entry)->formula, *f, scratch.size());
}

Result<std::string> BeliefStore::QueryModels(const std::string& name) const {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  if (vocab_.size() > kMaxEnumTerms) {
    return Status::CapacityExceeded(
        "models enumerates the interpretation space, which needs <= " +
        std::to_string(kMaxEnumTerms) + " terms (store has " +
        std::to_string(vocab_.size()) + ")");
  }
  KnowledgeBase kb((*entry)->formula, vocab_.size());
  return kb.models().ToString(vocab_);
}

Result<std::string> BeliefStore::QueryDistance(
    const std::string& name, const std::string& op_name,
    const std::string& mu_text) const {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  Vocabulary scratch = vocab_;
  Result<Formula> mu = ParseValidated(mu_text, &scratch);
  if (!mu.ok()) return mu.status();
  if (scratch.size() == 0) {
    return Status::InvalidArgument(
        "dist needs at least one registered term");
  }
  Result<BackendOperatorSpec> spec =
      BackendOperatorFor(op_name, MetricVectorFor(scratch));
  if (!spec.ok()) return spec.status();
  // Fresh backend per call: `this` may be a snapshot shared across
  // readers, and backends memoize internal state.
  std::shared_ptr<DistanceBackend> backend =
      MakeDistanceBackend(backend_->name()).ValueOrDie();
  Result<ChangeValue> changed =
      CachedChange(*backend, op_name, scratch, (*entry)->formula, *mu,
                   /*need_distance=*/true);
  if (!changed.ok()) return changed.status();
  if (changed->value.optimal.empty()) return std::string("undefined");
  return changed->value.optimal;
}

Result<bool> BeliefStore::Counterfactual(
    const std::string& name, const std::string& antecedent_text,
    const std::string& consequent_text) {
  Result<const Entry*> entry = Find(name);
  if (!entry.ok()) return entry.status();
  Vocabulary scratch = vocab_;
  Result<Formula> antecedent = ParseValidated(antecedent_text, &scratch);
  if (!antecedent.ok()) return antecedent.status();
  Result<Formula> consequent = ParseValidated(consequent_text, &scratch);
  if (!consequent.ok()) return consequent.status();
  if (scratch.size() > kMaxEnumTerms) {
    return Status::CapacityExceeded(
        "counterfactual update is pointwise over interpretations and "
        "needs <= " +
        std::to_string(kMaxEnumTerms) + " terms");
  }
  vocab_ = std::move(scratch);
  KnowledgeBase base((*entry)->formula, vocab_.size());
  KnowledgeBase mu(*antecedent, vocab_.size());
  KnowledgeBase then(*consequent, vocab_.size());
  KnowledgeBase updated = WinslettUpdate().Apply(base, mu);
  return updated.Implies(then);
}

std::string BeliefStore::Save() const {
  std::string out = "arbiter-store v1\n";
  out += "vocab";
  for (const std::string& name : vocab_.names()) out += " " + name;
  out += "\n";
  // Backend and metric lines precede the bases so Load applies the
  // right capacity limit while parsing them.  The default backend and
  // unit weights are elided (older files stay loadable unchanged).
  if (backend_->name() != "enum") out += "backend " + backend_->name() + "\n";
  for (const auto& [term, weight] : weights_) {
    out += "weight " + term + " " + std::to_string(weight) + "\n";
  }
  for (const auto& [name, entry] : bases_) {
    out += "base " + name + " := " + ToString(entry.formula, vocab_) + "\n";
    // Undo stack and journal are persisted verbatim (oldest first)
    // rather than recomputed by replaying the operators: replay would
    // re-run each change over the final (possibly larger) vocabulary,
    // and not every operator commutes with adding free terms — the
    // differential harness caught lex-fitting drifting exactly there.
    for (const Formula& previous : entry.undo_stack) {
      out += "undo " + name + " := " + ToString(previous, vocab_) + "\n";
    }
    for (const ChangeRecord& record : entry.journal) {
      out += "hist " + name + " " + record.op_name + " := " +
             SingleLine(record.evidence_text) + "\n";
    }
  }
  return out;
}

Result<BeliefStore> BeliefStore::Load(const std::string& text) {
  BeliefStore store;
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != "arbiter-store v1") {
    return Status::InvalidArgument("not an arbiter-store v1 file");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string line = Trim(lines[i]);
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("vocab", 0) == 0) {
      std::vector<std::string> parts = Split(line, ' ');
      for (size_t j = 1; j < parts.size(); ++j) {
        if (parts[j].empty()) continue;
        Result<int> added = store.vocab_.GetOrAddTerm(parts[j]);
        if (!added.ok()) return added.status();
      }
      continue;
    }
    if (line.rfind("backend ", 0) == 0) {
      ARBITER_RETURN_NOT_OK(store.SetBackend(Trim(line.substr(8))));
      continue;
    }
    if (line.rfind("weight ", 0) == 0) {
      // "weight <term> <integer>"
      std::vector<std::string> parts = Split(Trim(line.substr(7)), ' ');
      if (parts.size() != 2) {
        return Status::InvalidArgument("malformed weight line: " + line);
      }
      int64_t weight = 0;
      if (!ParseInt64(parts[1], &weight)) {
        return Status::InvalidArgument("malformed weight line: " + line);
      }
      ARBITER_RETURN_NOT_OK(store.SetWeight(parts[0], weight));
      continue;
    }
    if (line.rfind("base ", 0) == 0) {
      size_t assign = line.find(" := ");
      if (assign == std::string::npos) {
        return Status::InvalidArgument("malformed base line: " + line);
      }
      std::string name = Trim(line.substr(5, assign - 5));
      std::string formula = line.substr(assign + 4);
      ARBITER_RETURN_NOT_OK(store.Define(name, formula));
      continue;
    }
    if (line.rfind("undo ", 0) == 0) {
      // "undo <base> := <previous formula>": one pre-state per past
      // change, oldest first.  Restored verbatim — never recomputed by
      // re-running the operator, whose result could differ over the
      // final vocabulary.
      size_t assign = line.find(" := ");
      if (assign == std::string::npos) {
        return Status::InvalidArgument("malformed undo line: " + line);
      }
      std::string name = Trim(line.substr(5, assign - 5));
      auto it = store.bases_.find(name);
      if (it == store.bases_.end()) {
        return Status::InvalidArgument(
            "undo line for undefined base: " + line);
      }
      Vocabulary scratch = store.vocab_;
      Result<Formula> previous =
          store.ParseValidated(line.substr(assign + 4), &scratch);
      if (!previous.ok()) return previous.status();
      store.vocab_ = std::move(scratch);
      it->second.undo_stack.push_back(*previous);
      continue;
    }
    if (line.rfind("hist ", 0) == 0) {
      // "hist <base> <op> := <evidence>"; the operator name is the
      // last pre-":=" token, so base names keep any interior spaces.
      size_t assign = line.find(" := ");
      if (assign == std::string::npos) {
        return Status::InvalidArgument("malformed hist line: " + line);
      }
      std::string head = Trim(line.substr(5, assign - 5));
      size_t op_start = head.rfind(' ');
      if (op_start == std::string::npos) {
        return Status::InvalidArgument("malformed hist line: " + line);
      }
      std::string name = Trim(head.substr(0, op_start));
      std::string op_name = head.substr(op_start + 1);
      std::string evidence = line.substr(assign + 4);
      auto it = store.bases_.find(name);
      if (it == store.bases_.end()) {
        return Status::InvalidArgument(
            "hist line for undefined base: " + line);
      }
      auto op = MakeOperator(op_name);
      if (!op.ok()) return op.status();
      Vocabulary scratch = store.vocab_;
      Result<Formula> parsed = store.ParseValidated(evidence, &scratch);
      if (!parsed.ok()) return parsed.status();
      store.vocab_ = std::move(scratch);
      it->second.journal.push_back(ChangeRecord{op_name, evidence});
      continue;
    }
    return Status::InvalidArgument("unrecognized line: " + line);
  }
  for (const auto& [name, entry] : store.bases_) {
    if (entry.undo_stack.size() != entry.journal.size()) {
      return Status::InvalidArgument(
          "base \"" + name + "\" has " +
          std::to_string(entry.undo_stack.size()) + " undo line(s) but " +
          std::to_string(entry.journal.size()) + " hist line(s)");
    }
  }
  return store;
}

std::string BeliefStore::Dump() const {
  std::string out;
  for (const auto& [name, entry] : bases_) {
    out += name + " := " + ToString(entry.formula, vocab_) + "\n";
    if (vocab_.size() <= kMaxEnumTerms) {
      KnowledgeBase kb(entry.formula, vocab_.size());
      out += "  models: " + kb.models().ToString(vocab_) + "\n";
    } else {
      out += "  models: (not enumerated: " +
             std::to_string(vocab_.size()) + " terms)\n";
    }
    if (!entry.journal.empty()) {
      out += "  history:";
      for (const ChangeRecord& record : entry.journal) {
        out += " [" + record.op_name + " \"" + record.evidence_text + "\"]";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace arbiter

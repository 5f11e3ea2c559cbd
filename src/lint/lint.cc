#include "lint/lint.h"

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "change/backend.h"
#include "change/registry.h"
#include "lint/emitter.h"
#include "lint/flow_checks.h"
#include "logic/parser.h"
#include "logic/vocabulary.h"
#include "proof/certify.h"
#include "sat/dimacs.h"
#include "sat/dpll.h"
#include "solve/sat_bridge.h"
#include "util/string_util.h"

namespace arbiter::lint {

namespace {

/// Doubles above this lose exact integer arithmetic; weighted distance
/// sums (wdist = Σ dist·w) that can cross it silently drop mass.
constexpr double kExactDoubleLimit = 9007199254740992.0;  // 2^53

const std::vector<CheckInfo> kChecks = {
    // Belief scripts.
    {"script/syntax", Severity::kError,
     "statement does not parse"},
    {"script/formula-syntax", Severity::kError,
     "formula payload does not parse"},
    {"script/capacity", Severity::kError,
     "script vocabulary exceeds the selected backend's limit"},
    {"script/capacity-backend", Severity::kNote,
     "vocabulary beyond the enumeration limit, served by the counting "
     "backend"},
    {"script/unknown-backend", Severity::kError,
     "set backend names an unregistered backend"},
    {"script/negative-weight", Severity::kError,
     "set weight with a negative metric weight"},
    {"script/use-before-define", Severity::kError,
     "base used before any define"},
    {"script/unknown-operator", Severity::kError,
     "change names an unregistered operator"},
    {"script/undo-empty", Severity::kError,
     "undo with no change to revert"},
    {"script/redefine", Severity::kWarning,
     "redefinition shadows an existing base and clears its history"},
    {"script/unsat-define", Severity::kWarning,
     "base defined unsatisfiable (the (A2) absorbing edge)"},
    {"script/unsat-evidence", Severity::kWarning,
     "change evidence is unsatisfiable (the (A2)/(A3) edge)"},
    {"script/vacuous-change", Severity::kWarning,
     "revision/update evidence already entailed by the base ((R2)/(U2))"},
    {"script/guard-tautology", Severity::kWarning,
     "if-guard formula is a tautology; the conditional is redundant"},
    {"script/guard-unsat", Severity::kWarning,
     "if-guard formula is unsatisfiable; guarded statement unreachable"},
    {"script/trivial-assert", Severity::kWarning,
     "assertion holds or fails for every possible base"},
    {"script/unconstrained-atom", Severity::kWarning,
     "atom queried but never constrained by any define/change"},
    // Belief scripts: path-sensitive dataflow (flow_checks.h).
    {"flow/unreachable", Severity::kError,
     "statement provably never executes"},
    {"flow/redundant-change", Severity::kWarning,
     "revision/update provably a no-op on every path ((R2)/(U2))"},
    {"flow/dead-define", Severity::kWarning,
     "defined value never read before redefinition or script end"},
    {"flow/undo-empty", Severity::kError,
     "undo history provably empty on every path"},
    {"flow/assert-passes", Severity::kNote,
     "assertion provably holds on every path reaching it"},
    {"flow/assert-fails", Severity::kError,
     "assertion provably fails whenever it executes"},
    // DIMACS CNF.
    {"dimacs/syntax", Severity::kError,
     "malformed DIMACS input"},
    {"dimacs/undeclared-var", Severity::kError,
     "literal exceeds the declared variable count"},
    {"dimacs/clause-count-mismatch", Severity::kError,
     "header clause count disagrees with the body"},
    {"dimacs/empty-clause", Severity::kWarning,
     "explicit empty clause; the instance is trivially unsatisfiable"},
    {"dimacs/duplicate-literal", Severity::kWarning,
     "clause repeats a literal"},
    {"dimacs/tautological-clause", Severity::kWarning,
     "clause contains a variable and its negation"},
    {"dimacs/unused-var", Severity::kWarning,
     "declared variable never occurs in any clause"},
    {"dimacs/unsat", Severity::kWarning,
     "instance is unsatisfiable (the (A2)/(A3) absorbing edge)"},
    // Weighted KBs.
    {"wkb/syntax", Severity::kError,
     "malformed wkb input"},
    {"wkb/terms-range", Severity::kError,
     "num_terms outside [1, kMaxEnumTerms]"},
    {"wkb/bits-range", Severity::kError,
     "interpretation bitmask out of range for num_terms"},
    {"wkb/negative-weight", Severity::kError,
     "weight is negative or not finite"},
    {"wkb/duplicate-entry", Severity::kWarning,
     "interpretation listed twice; the later entry wins"},
    {"wkb/unsatisfiable", Severity::kWarning,
     "no interpretation has positive weight (weighted (A2) edge)"},
    {"wkb/weight-overflow", Severity::kWarning,
     "weights large enough for wdist sums to lose integer precision"},
};

/// 1-based column of `token` in `line_text` (identifier-boundary aware
/// when the token looks like an identifier); 1 when not found.
int ColOf(const std::string& line_text, const std::string& token) {
  if (token.empty()) return 1;
  const bool ident = IsIdentStart(token[0]);
  size_t from = 0;
  while (from < line_text.size()) {
    const size_t pos = line_text.find(token, from);
    if (pos == std::string::npos) return 1;
    if (!ident) return static_cast<int>(pos + 1);
    const bool left_ok = pos == 0 || !IsIdentCont(line_text[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok =
        end >= line_text.size() || !IsIdentCont(line_text[end]);
    if (left_ok && right_ok) return static_cast<int>(pos + 1);
    from = pos + 1;
  }
  return 1;
}

void CollectVars(const Formula& f, std::set<int>* vars) {
  if (f.is_var()) {
    vars->insert(f.var());
    return;
  }
  for (const Formula& child : f.children()) CollectVars(child, vars);
}

// ---------------------------------------------------------------------
// Belief scripts
// ---------------------------------------------------------------------

class ScriptLinter {
 public:
  ScriptLinter(Emitter* emit, std::vector<std::string> lines)
      : emit_(emit), lines_(std::move(lines)) {}

  void Run() {
    for (size_t i = 0; i < lines_.size(); ++i) {
      const int line_no = static_cast<int>(i + 1);
      const std::string line = Trim(lines_[i]);
      if (line.empty() || line[0] == '#') continue;
      // The language is line-based, so each line parses independently;
      // that gives the linter statement-level error recovery where the
      // runtime parser stops at the first bad line.
      Result<BeliefScript> one = ParseScript(line);
      if (!one.ok()) {
        emit_->Emit("script/syntax", line_no, 1,
                    StripLinePrefix(one.status().message()));
        continue;
      }
      if (one->statements.empty()) continue;
      ScriptStatement stmt = one->statements[0];
      SetLineRecursive(&stmt, line_no);
      Statement(stmt, /*guarded=*/false);
    }
    FinishHygiene();
  }

 private:
  struct BaseState {
    bool defined = false;
    int def_line = 0;
    /// Statically known undo depth; inexact once any history-affecting
    /// statement ran under a guard.
    int depth = 0;
    bool depth_exact = true;
    /// The base's exact current formula, when derivable from the
    /// postulates alone; reset to nullopt after any change whose result
    /// is not statically forced.
    std::optional<Formula> current;
    std::vector<std::optional<Formula>> undo_formulas;
  };

  static std::string StripLinePrefix(const std::string& message) {
    // Single-line parses anchor errors at "line 1: "; the linter
    // re-anchors them on the real source line.
    const std::string prefix = "line 1: ";
    if (message.rfind(prefix, 0) == 0) return message.substr(prefix.size());
    return message;
  }

  static void SetLineRecursive(ScriptStatement* stmt, int line) {
    stmt->line = line;
    for (ScriptStatement& inner : stmt->inner) {
      SetLineRecursive(&inner, line);
    }
  }

  const std::string& LineText(int line_no) const {
    static const std::string kEmpty;
    if (line_no < 1 || line_no > static_cast<int>(lines_.size())) {
      return kEmpty;
    }
    return lines_[line_no - 1];
  }

  /// Satisfiability over the script vocabulary.  Under --certify an
  /// UNSAT answer is recorded+re-checked by the independent DRAT
  /// checker, and `last_certified_` is set to the verdict (1/0) — the
  /// check sites pass it to Emit for the diagnostic that the answer
  /// decides.  SAT answers (and certification off) reset it to -1.
  bool Sat(const Formula& f) const {
    last_certified_ = -1;
    if (!emit_->options().certify) {
      return solve::SatIsSatisfiable(f, vocab_.size());
    }
    const solve::CertifiedSatResult r =
        solve::SatIsSatisfiableCertified(f, vocab_.size());
    if (r.certify_attempted) last_certified_ = r.certified ? 1 : 0;
    return r.sat;
  }
  bool Taut(const Formula& f) const { return !Sat(Not(f)); }
  bool Entails(const Formula& a, const Formula& b) const {
    return !Sat(And(a, Not(b)));
  }
  /// Certification status of the UNSAT verdict the most recent Sat /
  /// Taut / Entails query produced (see Sat).
  int LastCertified() const { return last_certified_; }

  /// Parses a statement's formula payload against the script-wide
  /// vocabulary.  Reports formula-syntax and capacity diagnostics; the
  /// vocabulary is left untouched when parsing fails.
  std::optional<Formula> ParsePayload(const std::string& text, int line_no) {
    const Vocabulary backup = vocab_;
    Result<Formula> f = Parse(text, &vocab_);
    if (!f.ok()) {
      vocab_ = backup;
      if (!capacity_blown_) {
        emit_->Emit("script/formula-syntax", line_no,
                    ColOf(LineText(line_no), text),
                    f.status().message());
      }
      return std::nullopt;
    }
    CheckCapacity(line_no);
    return *f;
  }

  /// Capacity limit of the backend selected so far in script order.
  int CapacityLimit() const { return backend_->VocabularyLimit(); }

  /// Emits the capacity diagnostic for the current vocabulary size under
  /// the selected backend: a hard error past the enumeration wall on the
  /// enumerating backend, a one-time note in the counting backend's
  /// SAT-served range, and a hard error past the 63-term mask limit.
  void CheckCapacity(int line_no) {
    const int n = vocab_.size();
    if (n <= kMaxEnumTerms) return;
    if (n > CapacityLimit()) {
      if (capacity_blown_) return;
      capacity_blown_ = true;
      if (CapacityLimit() <= kMaxEnumTerms) {
        emit_->Emit(
            "script/capacity", line_no, 1,
            "script mentions " + std::to_string(n) +
                " distinct atoms; execution enumerates at most 2^" +
                std::to_string(kMaxEnumTerms) + " interpretations",
            "the store rejects the first formula that grows its "
            "vocabulary past " + std::to_string(kMaxEnumTerms) +
            " terms; 'set backend counting' lifts the wall to " +
            std::to_string(kMaxVocabularyTerms - 1) + " terms");
      } else {
        emit_->Emit(
            "script/capacity", line_no, 1,
            "script mentions " + std::to_string(n) +
                " distinct atoms; even the counting backend serves at "
                "most " + std::to_string(CapacityLimit()),
            "model masks must fit in 64 bits");
      }
      return;
    }
    if (counting_noted_) return;
    counting_noted_ = true;
    emit_->Emit(
        "script/capacity-backend", line_no, 1,
        "vocabulary has " + std::to_string(n) +
            " atoms, past the 2^" + std::to_string(kMaxEnumTerms) +
            " enumeration wall; the counting backend serves distance "
            "operators via SAT without enumeration",
        "non-distance operators and model dumps stay unavailable past " +
            std::to_string(kMaxEnumTerms) + " terms");
  }

  /// Resolves a base for a use-site; reports use-before-define.
  BaseState* Use(const std::string& name, int line_no) {
    auto it = bases_.find(name);
    if (it == bases_.end()) {
      emit_->Emit("script/use-before-define", line_no,
                  ColOf(LineText(line_no), name),
                  "base '" + name + "' is used before any define",
                  "add 'define " + name + " := <formula>' first");
      return nullptr;
    }
    return &it->second;
  }

  void RecordPayloadAtoms(const Formula& f) {
    std::set<int> vars;
    CollectVars(f, &vars);
    for (int v : vars) payload_atoms_.insert(vocab_.Name(v));
  }

  void RecordQueryAtoms(const Formula& f, int line_no) {
    std::set<int> vars;
    CollectVars(f, &vars);
    for (int v : vars) {
      const std::string& name = vocab_.Name(v);
      query_atoms_.emplace(name, line_no);
    }
  }

  void Statement(const ScriptStatement& stmt, bool guarded) {
    switch (stmt.kind) {
      case ScriptStatement::Kind::kDefine: return Define(stmt, guarded);
      case ScriptStatement::Kind::kChange: return Change(stmt, guarded);
      case ScriptStatement::Kind::kUndo: return Undo(stmt, guarded);
      case ScriptStatement::Kind::kAssertEntails:
      case ScriptStatement::Kind::kAssertConsistent:
      case ScriptStatement::Kind::kAssertEquivalent:
        return Assert(stmt);
      case ScriptStatement::Kind::kConditional:
        return Conditional(stmt, guarded);
      case ScriptStatement::Kind::kSetBackend:
        return SetBackend(stmt);
      case ScriptStatement::Kind::kSetWeight:
        return SetWeight(stmt);
    }
  }

  void SetBackend(const ScriptStatement& stmt) {
    Result<std::shared_ptr<DistanceBackend>> backend =
        MakeDistanceBackend(stmt.formula);
    if (!backend.ok()) {
      emit_->Emit("script/unknown-backend", stmt.line,
                  ColOf(LineText(stmt.line), stmt.formula),
                  "unknown backend '" + stmt.formula + "'",
                  "registered backends: " +
                      Join(DistanceBackendNames(), ", "));
      return;
    }
    const int new_limit = (*backend)->VocabularyLimit();
    if (vocab_.size() > new_limit) {
      if (!capacity_blown_) {
        capacity_blown_ = true;
        emit_->Emit("script/capacity", stmt.line,
                    ColOf(LineText(stmt.line), stmt.formula),
                    "cannot select the '" + stmt.formula +
                        "' backend: the script already mentions " +
                        std::to_string(vocab_.size()) +
                        " atoms (limit " + std::to_string(new_limit) + ")",
                    "the store rejects this statement at run time");
      }
      return;
    }
    backend_ = *std::move(backend);
  }

  void SetWeight(const ScriptStatement& stmt) {
    int64_t weight = 0;
    if (ParseInt64(stmt.formula, &weight) && weight < 0) {
      emit_->Emit("script/negative-weight", stmt.line,
                  ColOf(LineText(stmt.line), stmt.formula),
                  "metric weight must be >= 0, got " + stmt.formula,
                  "the store rejects negative weights");
    }
    // The weighted term joins the script vocabulary like a payload atom
    // would, so it counts against backend capacity.
    Result<int> idx = vocab_.GetOrAddTerm(stmt.base);
    if (idx.ok()) CheckCapacity(stmt.line);
  }

  void Define(const ScriptStatement& stmt, bool guarded) {
    std::optional<Formula> f = ParsePayload(stmt.formula, stmt.line);
    if (f) {
      RecordPayloadAtoms(*f);
      if (!capacity_blown_ && !Sat(*f)) {
        emit_->Emit("script/unsat-define", stmt.line,
                    ColOf(LineText(stmt.line), stmt.formula),
                    "base '" + stmt.base + "' is defined unsatisfiable",
                    "model fitting keeps an unsatisfiable base "
                    "unsatisfiable ((A2)), and every 'entails' "
                    "assertion on it holds vacuously",
                    {}, LastCertified());
      }
    }
    BaseState& state = bases_[stmt.base];
    if (state.defined && !guarded) {
      emit_->Emit("script/redefine", stmt.line,
                  ColOf(LineText(stmt.line), stmt.base),
                  "redefinition of base '" + stmt.base +
                      "' discards its undo history",
                  "first defined on line " +
                      std::to_string(state.def_line));
    }
    if (guarded) {
      // The define may or may not run: everything becomes inexact, but
      // the name counts as (maybe) defined so later uses aren't flagged.
      state.defined = true;
      if (state.def_line == 0) state.def_line = stmt.line;
      state.depth_exact = false;
      state.current = std::nullopt;
      state.undo_formulas.clear();
      return;
    }
    state.defined = true;
    state.def_line = stmt.line;
    state.depth = 0;
    state.depth_exact = true;
    state.current = f;
    state.undo_formulas.clear();
  }

  void Change(const ScriptStatement& stmt, bool guarded) {
    BaseState* state = Use(stmt.base, stmt.line);
    const bool known_op = registered_ops_.count(stmt.op_name) > 0;
    std::optional<OperatorFamily> family;
    if (!known_op) {
      emit_->Emit("script/unknown-operator", stmt.line,
                  ColOf(LineText(stmt.line), stmt.op_name),
                  "unknown operator '" + stmt.op_name + "'",
                  "registered operators: " +
                      Join(RegisteredOperatorNames(), ", "));
    } else {
      family = MakeOperator(stmt.op_name).ValueOrDie()->family();
    }
    std::optional<Formula> mu = ParsePayload(stmt.formula, stmt.line);
    bool mu_unsat = false;
    if (mu) {
      RecordPayloadAtoms(*mu);
      if (!capacity_blown_) {
        mu_unsat = !Sat(*mu);
        if (mu_unsat) {
          emit_->Emit("script/unsat-evidence", stmt.line,
                      ColOf(LineText(stmt.line), stmt.formula),
                      "change evidence is unsatisfiable",
                      "revision, update, and fitting results entail "
                      "their evidence ((R1)/(U1)/(A1)), so '" +
                          stmt.base + "' becomes unsatisfiable",
                      {}, LastCertified());
        }
      }
    }
    if (state == nullptr) return;

    // Vacuous change: by (R2)/(U2), revising or updating with evidence
    // the base already entails is a no-op.  Model fitting is loyal to
    // *all* models of the base and genuinely moves even then (the
    // paper's Example 3.1), so only revision/update are flagged.
    const bool tracked = state->current.has_value() && !capacity_blown_;
    bool entailed = false;
    if (tracked && mu && !mu_unsat && Sat(*state->current)) {
      entailed = Entails(*state->current, *mu);
      if (entailed && family &&
          (*family == OperatorFamily::kRevision ||
           *family == OperatorFamily::kUpdate)) {
        emit_->Emit("script/vacuous-change", stmt.line,
                    ColOf(LineText(stmt.line), stmt.formula),
                    "'" + stmt.base + "' already entails the evidence; "
                    "this " + std::string(OperatorFamilyName(*family)) +
                        " is a no-op",
                    "(R2)/(U2): when the base entails the evidence the "
                    "result is equivalent to the base",
                    {}, LastCertified());
      }
    }

    if (guarded) {
      state->depth_exact = false;
      state->current = std::nullopt;
      return;
    }
    state->undo_formulas.push_back(state->current);
    if (state->depth_exact) ++state->depth;

    // Track the base's formula only where a postulate forces the
    // result; otherwise stop tracking until the next define/undo.
    state->current = std::nullopt;
    if (!family || !mu) return;
    if (mu_unsat && (*family == OperatorFamily::kRevision ||
                     *family == OperatorFamily::kUpdate ||
                     *family == OperatorFamily::kModelFitting)) {
      state->current = Formula::False();  // (R1)/(U1)/(A1)
    } else if (tracked && entailed &&
               (*family == OperatorFamily::kRevision ||
                *family == OperatorFamily::kUpdate)) {
      state->current = And(*state->undo_formulas.back(), *mu);
    } else if (tracked && *family == OperatorFamily::kRevision && mu &&
               !capacity_blown_ &&
               Sat(And(*state->undo_formulas.back(), *mu))) {
      // (R2): consistent revision is conjunction.
      state->current = And(*state->undo_formulas.back(), *mu);
    }
  }

  void Undo(const ScriptStatement& stmt, bool guarded) {
    BaseState* state = Use(stmt.base, stmt.line);
    if (state == nullptr) return;
    if (state->depth_exact && state->depth == 0) {
      emit_->Emit("script/undo-empty", stmt.line,
                  ColOf(LineText(stmt.line), stmt.base),
                  "'" + stmt.base + "' has no applied change to undo",
                  state->def_line > 0
                      ? "history is empty since the define on line " +
                            std::to_string(state->def_line)
                      : "");
      return;
    }
    if (guarded) {
      state->depth_exact = false;
      state->current = std::nullopt;
      return;
    }
    if (state->depth_exact) {
      --state->depth;
      state->current = state->undo_formulas.back();
      state->undo_formulas.pop_back();
    }
  }

  void Assert(const ScriptStatement& stmt) {
    Use(stmt.base, stmt.line);
    std::optional<Formula> f = ParsePayload(stmt.formula, stmt.line);
    if (!f) return;
    RecordQueryAtoms(*f, stmt.line);
    if (capacity_blown_) return;
    if (stmt.kind == ScriptStatement::Kind::kAssertEntails && Taut(*f)) {
      emit_->Emit("script/trivial-assert", stmt.line,
                  ColOf(LineText(stmt.line), stmt.formula),
                  "formula is a tautology; every base entails it",
                  "the assertion can never fail", {}, LastCertified());
    } else if (stmt.kind == ScriptStatement::Kind::kAssertConsistent &&
               !Sat(*f)) {
      emit_->Emit("script/trivial-assert", stmt.line,
                  ColOf(LineText(stmt.line), stmt.formula),
                  "formula is unsatisfiable; no base is consistent "
                  "with it",
                  "the assertion can never hold", {}, LastCertified());
    }
  }

  void Conditional(const ScriptStatement& stmt, bool guarded) {
    Use(stmt.base, stmt.line);
    std::optional<Formula> guard = ParsePayload(stmt.formula, stmt.line);
    if (guard) {
      RecordQueryAtoms(*guard, stmt.line);
      if (!capacity_blown_) {
        if (Taut(*guard)) {
          emit_->Emit("script/guard-tautology", stmt.line,
                      ColOf(LineText(stmt.line), stmt.formula),
                      "guard formula is a tautology; the condition "
                      "always holds",
                      "drop the 'if ... then' wrapper", {},
                      LastCertified());
        } else if (!Sat(*guard)) {
          emit_->Emit("script/guard-unsat", stmt.line,
                      ColOf(LineText(stmt.line), stmt.formula),
                      "guard formula is unsatisfiable; the guarded "
                      "statement only runs if '" + stmt.base +
                          "' is itself inconsistent",
                      "an inconsistent base entails everything, "
                      "including unsatisfiable formulas",
                      {}, LastCertified());
        }
      }
    }
    if (!stmt.inner.empty()) Statement(stmt.inner[0], /*guarded=*/true);
    (void)guarded;
  }

  void FinishHygiene() {
    // Atoms that are only ever queried can never be constrained: every
    // assertion about them reflects the free vocabulary, not beliefs.
    std::set<std::string> reported;
    for (const auto& [atom, line] : query_atoms_) {
      if (payload_atoms_.count(atom) > 0) continue;
      if (!reported.insert(atom).second) continue;
      emit_->Emit("script/unconstrained-atom", line,
                  ColOf(LineText(line), atom),
                  "atom '" + atom + "' is used in assertions or guards "
                  "but never constrained by any define or change",
                  "no statement can make a belief about '" + atom +
                      "' true or false");
    }
  }

  Emitter* emit_;
  mutable int last_certified_ = -1;
  std::vector<std::string> lines_;
  Vocabulary vocab_;
  bool capacity_blown_ = false;
  /// Backend selected so far in script order (the store's default
  /// until a `set backend` statement switches it).
  std::shared_ptr<DistanceBackend> backend_ = MakeEnumeratingBackend();
  bool counting_noted_ = false;
  std::map<std::string, BaseState> bases_;
  std::set<std::string> payload_atoms_;
  /// (atom, first use line), ordered so reports are deterministic.
  std::set<std::pair<std::string, int>> query_atoms_;
  const std::set<std::string> registered_ops_ = [] {
    const std::vector<std::string> names = RegisteredOperatorNames();
    return std::set<std::string>(names.begin(), names.end());
  }();
};

// ---------------------------------------------------------------------
// DIMACS CNF
// ---------------------------------------------------------------------

void LintDimacs(Emitter* emit, const std::string& text) {
  const std::vector<std::string> lines = Split(text, '\n');
  bool saw_header = false;
  bool reported_preheader = false;
  int header_line = 1;
  int num_vars = 0;
  int declared_clauses = 0;
  bool syntax_clean = true;
  bool saw_empty_clause = false;
  std::set<long long> undeclared_reported;
  std::vector<bool> used;
  std::vector<std::vector<sat::Lit>> clauses;
  std::vector<long long> current;
  int current_line = 0;  // line of the pending clause's last literal
  for (size_t i = 0; i < lines.size(); ++i) {
    const int line_no = static_cast<int>(i + 1);
    const std::string& line = lines[i];
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      if (saw_header) {
        emit->Emit("dimacs/syntax", line_no, 1, "duplicate header");
        syntax_clean = false;
        continue;
      }
      std::istringstream header(line);
      std::string p, cnf;
      header >> p >> cnf >> num_vars >> declared_clauses;
      if (cnf != "cnf" || num_vars < 0 || declared_clauses < 0 ||
          header.fail()) {
        emit->Emit("dimacs/syntax", line_no, 1,
                   "malformed header (expected 'p cnf <vars> <clauses>')");
        syntax_clean = false;
        num_vars = 0;
        declared_clauses = -1;
      }
      saw_header = true;
      header_line = line_no;
      used.assign(static_cast<size_t>(num_vars), false);
      continue;
    }
    if (!saw_header) {
      if (!reported_preheader) {
        emit->Emit("dimacs/syntax", line_no, 1,
                   "clause before the 'p cnf' header");
        reported_preheader = true;
        syntax_clean = false;
      }
      continue;
    }
    std::istringstream body(line);
    long long x = 0;
    while (body >> x) {
      if (x != 0) {
        current.push_back(x);
        current_line = line_no;
        continue;
      }
      // Clause finalized: structural checks, then keep it for DPLL.
      if (current.empty()) {
        saw_empty_clause = true;
        emit->Emit("dimacs/empty-clause", line_no, 1,
                   "empty clause; the instance is trivially "
                   "unsatisfiable");
      }
      std::set<long long> seen;
      std::vector<sat::Lit> clause;
      bool taut_reported = false;
      for (long long lit : current) {
        const long long v = lit > 0 ? lit : -lit;
        if (v > num_vars) {
          if (undeclared_reported.insert(v).second) {
            emit->Emit("dimacs/undeclared-var", line_no,
                       ColOf(line, std::to_string(lit)),
                       "literal " + std::to_string(lit) +
                           " exceeds the declared " +
                           std::to_string(num_vars) + " variable(s)");
          }
          syntax_clean = false;
          continue;
        }
        used[static_cast<size_t>(v - 1)] = true;
        if (!seen.insert(lit).second) {
          emit->Emit("dimacs/duplicate-literal", line_no, 1,
                     "literal " + std::to_string(lit) +
                         " repeated within one clause");
        }
        if (seen.count(-lit) > 0 && !taut_reported) {
          taut_reported = true;
          emit->Emit("dimacs/tautological-clause", line_no, 1,
                     "clause contains both " + std::to_string(v) +
                         " and -" + std::to_string(v) +
                         "; it constrains nothing");
        }
        clause.push_back(
            sat::Lit(static_cast<sat::Var>(v - 1), lit < 0));
      }
      clauses.push_back(std::move(clause));
      current.clear();
    }
    if (!body.eof()) {
      emit->Emit("dimacs/syntax", line_no, 1,
                 "non-integer token in clause data");
      syntax_clean = false;
      body.clear();
      std::string rest;
      body >> rest;  // skip the offending token's line
    }
  }
  if (!saw_header) {
    emit->Emit("dimacs/syntax", 1, 1, "missing 'p cnf' header");
    return;
  }
  if (!current.empty()) {
    emit->Emit("dimacs/syntax", current_line, 1,
               "final clause not terminated by 0");
    syntax_clean = false;
  }
  if (declared_clauses >= 0 &&
      clauses.size() != static_cast<size_t>(declared_clauses)) {
    emit->Emit("dimacs/clause-count-mismatch", header_line, 1,
               "header declares " + std::to_string(declared_clauses) +
                   " clause(s) but the body has " +
                   std::to_string(clauses.size()));
  }
  std::vector<std::string> unused;
  for (int v = 0; v < num_vars; ++v) {
    if (!used[static_cast<size_t>(v)]) {
      unused.push_back(std::to_string(v + 1));
    }
  }
  if (!unused.empty()) {
    std::string shown =
        unused.size() <= 8
            ? Join(unused, ", ")
            : Join(std::vector<std::string>(unused.begin(),
                                            unused.begin() + 8),
                   ", ") + ", ...";
    emit->Emit("dimacs/unused-var", header_line, 1,
               std::to_string(unused.size()) +
                   " declared variable(s) never occur in any clause: " +
                   shown,
               "declared-vs-used mismatch; models leave these "
               "variables free");
  }
  // Satisfiability via the DPLL core, for instances small enough that
  // the budget-free solver cannot run away.  An explicit empty clause
  // already reported the instance as trivially unsatisfiable.
  if (syntax_clean && !saw_empty_clause &&
      num_vars <= emit->options().dimacs_solve_max_vars) {
    sat::DpllSolver solver(num_vars);
    for (const std::vector<sat::Lit>& clause : clauses) {
      solver.AddClause(clause);
    }
    if (solver.Solve() == sat::SolveStatus::kUnsat) {
      // Under --certify the verdict is re-derived with the CDCL tier
      // recording a DRAT refutation, which the independent checker
      // then re-checks; the DPLL default path stays untouched.
      int certified = -1;
      if (emit->options().certify) {
        sat::CnfInstance instance;
        instance.num_vars = num_vars;
        instance.clauses = clauses;
        const proof::CnfProofResult certified_run =
            proof::SolveCnfWithProof(instance, /*use_preprocessor=*/true);
        certified = certified_run.status == sat::SolveStatus::kUnsat &&
                            certified_run.certified
                        ? 1
                        : 0;
      }
      emit->Emit("dimacs/unsat", header_line, 1,
                 "the instance is unsatisfiable",
                 "as a knowledge base it is the (A2) absorbing edge; "
                 "as evidence it forces any revision, update, or "
                 "fitting result to be inconsistent ((A3) fails)",
                 {}, certified);
    }
  }
}

// ---------------------------------------------------------------------
// Weighted KBs
// ---------------------------------------------------------------------

void LintWeightedKb(Emitter* emit, const std::string& text) {
  const std::vector<std::string> lines = Split(text, '\n');
  int num_terms = -1;
  bool terms_valid = false;
  int header_line = 1;
  bool any_positive = false;
  bool entry_overflow = false;
  double total_mass = 0;
  std::map<uint64_t, int> first_line;
  for (size_t i = 0; i < lines.size(); ++i) {
    const int line_no = static_cast<int>(i + 1);
    const std::string line = Trim(lines[i]);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    if (num_terms < 0) {
      std::string magic;
      in >> magic >> num_terms;
      std::string extra;
      if (magic != "wkb" || in.fail() || (in >> extra)) {
        emit->Emit("wkb/syntax", line_no, 1,
                   "expected 'wkb <num_terms>' header");
        return;
      }
      header_line = line_no;
      if (num_terms < 1 || num_terms > kMaxEnumTerms) {
        emit->Emit("wkb/terms-range", line_no, ColOf(line, "wkb") + 4,
                   "num_terms must be in [1, " +
                       std::to_string(kMaxEnumTerms) + "], got " +
                       std::to_string(num_terms),
                   "weights are stored densely over all 2^n "
                   "interpretations");
      } else {
        terms_valid = true;
      }
      continue;
    }
    uint64_t bits = 0;
    double weight = 0;
    in >> bits >> weight;
    std::string extra;
    if (in.fail() || (in >> extra) || line[0] == '-') {
      emit->Emit("wkb/syntax", line_no, 1,
                 "expected '<bits> <weight>', got '" + line + "'");
      continue;
    }
    if (terms_valid && bits >= (uint64_t{1} << num_terms)) {
      emit->Emit("wkb/bits-range", line_no, 1,
                 "interpretation " + std::to_string(bits) +
                     " out of range for " + std::to_string(num_terms) +
                     " term(s)");
      continue;
    }
    if (!(weight >= 0) || !std::isfinite(weight)) {
      emit->Emit("wkb/negative-weight", line_no, 1,
                 std::isfinite(weight)
                     ? "weight is negative"
                     : "weight is not finite");
      continue;
    }
    auto [it, inserted] = first_line.emplace(bits, line_no);
    if (!inserted) {
      emit->Emit("wkb/duplicate-entry", line_no, 1,
                 "interpretation " + std::to_string(bits) +
                     " already listed on line " +
                     std::to_string(it->second),
                 "the later entry overwrites the earlier weight");
    }
    if (weight > 0) any_positive = true;
    total_mass += weight;
    if (weight > kExactDoubleLimit) {
      entry_overflow = true;
      emit->Emit("wkb/weight-overflow", line_no, 1,
                 "weight exceeds 2^53, the largest exactly "
                 "representable double integer",
                 "wdist(ψ̃, I) = Σ dist·weight and ⊔ (pointwise sum) "
                 "silently lose precision beyond this");
    }
  }
  if (num_terms < 0) {
    emit->Emit("wkb/syntax", 1, 1, "missing 'wkb <num_terms>' header");
    return;
  }
  if (!any_positive) {
    emit->Emit("wkb/unsatisfiable", header_line, 1,
               "no interpretation has positive weight; the base is "
               "unsatisfiable",
               "the everywhere-zero base is absorbing: fitting it to "
               "anything stays unsatisfiable (weighted (A2))");
  }
  if (!entry_overflow && terms_valid &&
      total_mass * num_terms > kExactDoubleLimit) {
    emit->Emit("wkb/weight-overflow", header_line, 1,
               "max_dist x total weight = " +
                   std::to_string(num_terms) + " x " +
                   std::to_string(total_mass) +
                   " exceeds 2^53; wdist sums can lose integer "
                   "precision",
               "wdist(ψ̃, I) sums dist(I, J)·ψ̃(J) over the support");
  }
}

}  // namespace

Result<InputKind> InputKindForPath(const std::string& path) {
  const size_t dot = path.find_last_of('.');
  std::string ext =
      dot == std::string::npos ? "" : path.substr(dot + 1);
  for (char& c : ext) {
    c = static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  if (ext == "belief") return InputKind::kBeliefScript;
  if (ext == "cnf" || ext == "dimacs") return InputKind::kDimacsCnf;
  if (ext == "wkb") return InputKind::kWeightedKb;
  return Status::InvalidArgument(
      "cannot infer input kind of '" + path +
      "' (known extensions: .belief .cnf .dimacs .wkb)");
}

const std::vector<CheckInfo>& AllChecks() { return kChecks; }

const CheckInfo* FindCheck(const std::string& id) {
  for (const CheckInfo& info : kChecks) {
    if (id == info.id) return &info;
  }
  return nullptr;
}

std::vector<Diagnostic> LintScriptText(const std::string& file,
                                       const std::string& text,
                                       const LintOptions& options) {
  std::vector<Diagnostic> out;
  Emitter emit(file, options, &out);
  ScriptLinter linter(&emit, Split(text, '\n'));
  linter.Run();

  // The dataflow pass sees what the single-statement pass emitted so
  // it can drop same-line restatements of the same finding.
  std::set<std::pair<int, std::string>> emitted;
  for (const Diagnostic& d : out) emitted.insert({d.line, d.check_id});
  FlowAnalysis flow = AnalyzeScriptFlow(file, text, options, emitted);
  for (Diagnostic& d : flow.diagnostics) out.push_back(std::move(d));
  // Tautological-guard unwrap fix-its attach to the single-statement
  // pass's script/guard-tautology diagnostics.
  for (Diagnostic& d : out) {
    if (d.check_id != "script/guard-tautology") continue;
    auto it = flow.guard_unwraps.find(d.line);
    if (it != flow.guard_unwraps.end()) d.fixits.push_back(it->second);
  }

  NormalizeDiagnostics(&out);
  return out;
}

std::vector<Diagnostic> LintDimacsText(const std::string& file,
                                       const std::string& text,
                                       const LintOptions& options) {
  std::vector<Diagnostic> out;
  Emitter emit(file, options, &out);
  LintDimacs(&emit, text);
  NormalizeDiagnostics(&out);
  return out;
}

std::vector<Diagnostic> LintWeightedKbText(const std::string& file,
                                           const std::string& text,
                                           const LintOptions& options) {
  std::vector<Diagnostic> out;
  Emitter emit(file, options, &out);
  LintWeightedKb(&emit, text);
  NormalizeDiagnostics(&out);
  return out;
}

std::vector<Diagnostic> LintText(InputKind kind, const std::string& file,
                                 const std::string& text,
                                 const LintOptions& options) {
  switch (kind) {
    case InputKind::kBeliefScript:
      return LintScriptText(file, text, options);
    case InputKind::kDimacsCnf:
      return LintDimacsText(file, text, options);
    case InputKind::kWeightedKb:
      return LintWeightedKbText(file, text, options);
  }
  return {};
}

ScriptLintHook MakeScriptLintHook(const std::string& text,
                                  const LintOptions& options) {
  auto by_line = std::make_shared<std::map<int, std::vector<std::string>>>();
  for (const Diagnostic& d : LintScriptText("<script>", text, options)) {
    std::string rendered = std::string(SeverityName(d.severity)) + ": " +
                           d.message + " [" + d.check_id + "]";
    (*by_line)[d.line].push_back(std::move(rendered));
  }
  return [by_line](const ScriptStatement& stmt) {
    auto it = by_line->find(stmt.line);
    return it == by_line->end() ? std::vector<std::string>{} : it->second;
  };
}

Result<ScriptReport> RunScriptTextLinted(const std::string& text,
                                         BeliefStore* store,
                                         const LintOptions& options) {
  Result<BeliefScript> script = ParseScript(text);
  if (!script.ok()) return script.status();
  return RunScript(*script, store, MakeScriptLintHook(text, options));
}

FixResult ApplyAllFixIts(InputKind kind, const std::string& file,
                         const std::string& text,
                         const LintOptions& options, int max_iterations) {
  FixResult result;
  result.text = text;
  while (result.iterations < max_iterations) {
    const std::vector<Diagnostic> diagnostics =
        LintText(kind, file, result.text, options);
    bool any_fixit = false;
    for (const Diagnostic& d : diagnostics) {
      if (!d.fixits.empty()) any_fixit = true;
    }
    if (!any_fixit) break;
    int applied = 0;
    result.text = ApplyFixIts(result.text, diagnostics, &applied);
    ++result.iterations;
    if (applied == 0) break;  // every remaining edit overlapped/stale
    result.applied += applied;
  }
  return result;
}

}  // namespace arbiter::lint

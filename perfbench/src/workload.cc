#include "workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t Prng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  Prng p(a);
  uint64_t h = p.Next();
  for (uint64_t part : {b, c, d}) {
    Prng q(h ^ (part * 0xD1B54A32D192ED03ULL));
    h = q.Next();
  }
  return h;
}

std::string RenderFrame(const std::string& id, const Batch& batch) {
  std::string out = "BATCH " + id + " " + batch.store + " " +
                    std::to_string(batch.lines.size()) + "\n";
  for (const std::string& line : batch.lines) {
    out += line;
    out += '\n';
  }
  return out;
}

namespace {

std::string Literal(const std::string& atom, bool positive) {
  return positive ? atom : "!" + atom;
}

std::string Atom(int i) { return "x" + std::to_string(i + 1); }

/// `count` distinct indices below `n`.
std::vector<int> Distinct(Prng* r, int n, int count) {
  std::vector<int> out;
  while (static_cast<int>(out.size()) < count) {
    int v = static_cast<int>(r->Below(static_cast<uint64_t>(n)));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

std::string Junction(Prng* r, const std::vector<std::string>& atoms,
                     int width, const char* op) {
  std::string out = "(";
  std::vector<int> picks = Distinct(r, static_cast<int>(atoms.size()), width);
  for (size_t i = 0; i < picks.size(); ++i) {
    if (i > 0) out += op;
    out += Literal(atoms[static_cast<size_t>(picks[i])], r->Chance(0.5));
  }
  return out + ")";
}

std::vector<std::string> NumberedAtoms(int n) {
  std::vector<std::string> atoms;
  for (int i = 0; i < n; ++i) atoms.push_back(Atom(i));
  return atoms;
}

/// "define vocab := a | b | ..." registers the atoms in a fixed order,
/// so every store binds the same names to the same indices.
std::string VocabularyLine(const std::vector<std::string>& atoms) {
  std::string line = "define vocab := ";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) line += " | ";
    line += atoms[i];
  }
  return line;
}

/// Zipf(s) over ranks 0..n-1.
class Zipf {
 public:
  Zipf(int n, double s) {
    double total = 0;
    for (int k = 1; k <= n; ++k) {
      total += std::pow(k, -s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(Prng* r) const {
    const double u = (r->Next() >> 11) * 0x1.0p-53;
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? static_cast<int>(cdf_.size()) - 1
                            : static_cast<int>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------
// hot_repeat: many stores, one 8-atom vocabulary, Zipf-skewed pool
// formulas, ~80% read-only batches; the result cache serves almost
// every operator call.

class HotRepeat : public Workload {
 public:
  HotRepeat(uint64_t seed, bool quick)
      : seed_(seed),
        stores_(quick ? 8 : 64),
        atoms_({"a", "b", "c", "d", "e", "f", "g", "h"}),
        zipf_(kPool, 1.3),
        zipf_evidence_(kEvidence, 1.3) {
    Prng r(MixSeed(seed, 10, 0, 0));
    for (int i = 0; i < kPool; ++i) pool_.push_back(PoolFormula(&r, i % 3));
  }

  std::string name() const override { return "hot_repeat"; }
  int clients() const override { return 2; }

  std::vector<Batch> SetupBatches() const override {
    std::vector<Batch> out;
    for (int s = 0; s < stores_; ++s) {
      Prng r(MixSeed(seed_, 11, static_cast<uint64_t>(s), 0));
      Batch b;
      b.store = StoreName(s);
      b.writes = true;
      b.lines.push_back(VocabularyLine(atoms_));
      for (int k = 0; k < kBases; ++k) {
        b.lines.push_back("define k" + std::to_string(k) + " := " + Base(&r));
      }
      out.push_back(std::move(b));
    }
    // The warm-up pass: one store asks `query dist` for every operator
    // key the streams can produce (each operator x base x evidence
    // formula).  The cached entries carry the result formula and the
    // distance, so the timed phase hits the cache on every `change` and
    // `query dist`, whatever the seed.
    for (const char* op : kOps) {
      for (int base = 0; base < kPool; ++base) {
        Batch b;
        b.store = "hrwarm";
        b.writes = true;
        b.lines.push_back(VocabularyLine(atoms_));
        b.lines.push_back("define w := " + pool_[static_cast<size_t>(base)]);
        for (int e = 0; e < kEvidence; ++e) {
          b.lines.push_back(std::string("query w dist ") + op + " " +
                            pool_[static_cast<size_t>(e)]);
        }
        out.push_back(std::move(b));
      }
    }
    return out;
  }

  Batch Next(int client, uint64_t seq) const override {
    Prng r(MixSeed(seed_, 12, static_cast<uint64_t>(client), seq));
    Batch b;
    b.store = StoreName(static_cast<int>(r.Below(
        static_cast<uint64_t>(stores_))));
    if (r.Chance(0.2)) {
      // define from the pool, one distance change with pool evidence,
      // reads and asserts on the result, then undo.
      b.writes = true;
      const std::string& mu = Pick(&r);
      b.lines.push_back("define w := " + Base(&r));
      b.lines.push_back("change w by " + Op(&r) + " with " + mu);
      b.lines.push_back("assert w entails " + mu);
      b.lines.push_back("query w consistent-with " + Pick(&r));
      b.lines.push_back("assert w consistent-with " + Pick(&r));
      b.lines.push_back("query w entails " + Pick(&r));
      b.lines.push_back("query w equivalent-to " + Pick(&r));
      b.lines.push_back("undo w");
      return b;
    }
    for (int i = 0; i < 8; ++i) {
      const std::string base = "k" + std::to_string(r.Below(kBases));
      const uint64_t kind = r.Below(10);
      if (kind < 3) {
        b.lines.push_back("query " + base + " entails " + Pick(&r));
      } else if (kind < 5) {
        b.lines.push_back("query " + base + " consistent-with " + Pick(&r));
      } else if (kind < 6) {
        b.lines.push_back("query " + base + " equivalent-to " + Pick(&r));
      } else if (kind < 8) {
        const std::string op = Op(&r);
        b.lines.push_back("query " + base + " dist " + op + " " + Pick(&r));
      } else {
        b.lines.push_back("assert " + base +
                          (kind == 8 ? " consistent-with " : " entails ") +
                          Pick(&r));
      }
    }
    return b;
  }

 private:
  // Bases come from the whole pool, evidence and query formulas from
  // its 16 most popular entries: the distinct operator keys (2 ops x 32
  // bases x 16 evidence) then fit the server's default 1024-entry
  // cache, and the set-up's warm-up pass can compute every one of them.
  static constexpr int kPool = 32;
  static constexpr int kEvidence = 16;
  static constexpr int kBases = 4;
  static constexpr const char* kOps[2] = {"dalal", "revesz-sum"};

  std::string StoreName(int s) const {
    return "hr" + std::to_string(s);
  }
  const std::string& Base(Prng* r) const {
    return pool_[static_cast<size_t>(zipf_.Sample(r))];
  }
  const std::string& Pick(Prng* r) const {
    return pool_[static_cast<size_t>(zipf_evidence_.Sample(r))];
  }
  static std::string Op(Prng* r) { return kOps[r->Below(2)]; }

  /// One of three fixed shapes over distinct atoms, so each shape has a
  /// fixed model count (32, 112 or 168 of 256) whatever the seed; the
  /// shape cycles with the pool index, so every seed has the same mix
  /// at the same popularity ranks.
  std::string PoolFormula(Prng* r, int shape) const {
    const std::vector<int> a = Distinct(r, static_cast<int>(atoms_.size()), 5);
    std::vector<std::string> l;  // drawn in order: operand order is unspecified
    for (int i : a) l.push_back(Literal(atoms_[static_cast<size_t>(i)], r->Chance(0.5)));
    auto lit = [&](size_t i) { return l[i]; };
    switch (shape) {
      case 0:
        return lit(0) + " & " + lit(1) + " & " + lit(2);
      case 1:
        return "(" + lit(0) + " & " + lit(1) + ") | (" + lit(2) + " & " +
               lit(3) + ")";
      default:
        return "(" + lit(0) + " | " + lit(1) + " | " + lit(2) + ") & (" +
               lit(3) + " | " + lit(4) + ")";
    }
  }

  uint64_t seed_;
  int stores_;
  std::vector<std::string> atoms_;
  Zipf zipf_;
  Zipf zipf_evidence_;
  std::vector<std::string> pool_;
};

// ---------------------------------------------------------------------
// cold_solve: every batch pair is fresh, on the counting backend past
// the enumeration limit; the cache cannot help.

class ColdSolve : public Workload {
 public:
  ColdSolve(uint64_t seed, bool quick) : seed_(seed), quick_(quick) {}

  std::string name() const override { return "cold_solve"; }
  int clients() const override { return 2; }

  std::vector<Batch> SetupBatches() const override {
    std::vector<Batch> out;
    for (int c = 0; c < clients(); ++c) {
      for (int n : Sizes()) {
        Batch b;
        b.store = StoreName(c, n);
        b.writes = true;
        b.lines.push_back("set backend counting");
        out.push_back(std::move(b));
      }
    }
    return out;
  }

  Batch Next(int client, uint64_t seq) const override {
    // A pair: the write batch defines and changes, the read batch
    // queries the result.  Both halves derive from the pair's seed.
    // Operator families and sizes are stratified (fixed cycles over the
    // pair index), so every run has the same mix and only the instances
    // differ between seeds.
    static const char* const kFamilies[10] = {
        "dalal",      "revesz-sum", "arbitration-sum", "dalal",
        "revesz-sum", "arbitration-sum", "revesz-max", "dalal",
        "revesz-sum", "arbitration-sum"};
    const uint64_t pair = seq / 2;
    Prng r(MixSeed(seed_, 20, static_cast<uint64_t>(client), pair));
    const std::string op = kFamilies[pair % 10];
    const uint64_t cycle = pair / 10 + static_cast<uint64_t>(client);
    int n = 0;
    if (op == "revesz-max") {
      n = quick_ ? 20 + static_cast<int>(cycle % 3)
                 : kMaxLo + static_cast<int>(cycle % (kMaxHi - kMaxLo + 1));
    } else {
      n = quick_ ? 26 + static_cast<int>(cycle % 3)
                 : kBigLo + static_cast<int>(cycle % (kBigHi - kBigLo + 1));
    }
    const std::vector<std::string> atoms = NumberedAtoms(n);
    Batch b;
    b.store = StoreName(client, n);
    const std::string psi = Agents(&r, n);
    // Evidence is a planted 3-CNF: satisfiable by construction.  For a
    // revision, 5 clauses per atom leave few models, so the result (a
    // subset of Mod(μ)) stays within the store's 4096-model limit.
    // Arbitration ranges over all interpretations, where a small
    // Mod(ψ ∨ μ) makes many exact Σ ties (at 4 clauses per atom one
    // change in ~2000 overflowed the limit), so it gets 3.5.
    auto evidence = [&] {
      return Planted(&r, atoms, op == "arbitration-sum" ? 7 * n / 2 : 5 * n);
    };
    const std::string mu = evidence();
    const std::string query = Junction(&r, atoms, 3, " | ");
    const std::string mu2 = evidence();
    if (seq % 2 == 0) {
      b.writes = true;
      b.lines.push_back("define kb := " + psi);
      b.lines.push_back("change kb by " + op + " with " + mu);
    } else {
      b.lines.push_back("query kb entails " + query);
      b.lines.push_back("query kb dist " + op + " " + mu2);
    }
    return b;
  }

 private:
  static constexpr int kBigLo = 40, kBigHi = 48;
  static constexpr int kMaxLo = 28, kMaxHi = 32;

  std::vector<int> Sizes() const {
    std::vector<int> sizes;
    if (quick_) {
      for (int n = 20; n <= 22; ++n) sizes.push_back(n);
      for (int n = 26; n <= 28; ++n) sizes.push_back(n);
    } else {
      for (int n = kMaxLo; n <= kMaxHi; ++n) sizes.push_back(n);
      for (int n = kBigLo; n <= kBigHi; ++n) sizes.push_back(n);
    }
    return sizes;
  }

  static std::string StoreName(int client, int n) {
    return "cs" + std::to_string(client) + "n" + std::to_string(n);
  }

  /// An N-agent base (Example 3.1 scaled up): agents are full cubes
  /// over x1..xn that each differ from a shared centre in a few atoms.
  /// Every cube lists x1..xn in order, so a store's vocabulary is
  /// exactly x1..xn in that order.
  static std::string Agents(Prng* r, int n) {
    std::vector<bool> centre;
    for (int i = 0; i < n; ++i) centre.push_back(r->Chance(0.5));
    const int agents = r->Chance(0.5) ? 3 : 5;
    std::string out;
    for (int a = 0; a < agents; ++a) {
      std::vector<bool> cube = centre;
      for (int flip : Distinct(r, n, 2 + static_cast<int>(r->Below(4)))) {
        cube[static_cast<size_t>(flip)] = !cube[static_cast<size_t>(flip)];
      }
      if (a > 0) out += " | ";
      out += "(";
      for (int i = 0; i < n; ++i) {
        if (i > 0) out += " & ";
        out += Literal(Atom(i), cube[static_cast<size_t>(i)]);
      }
      out += ")";
    }
    return out;
  }

  /// 3-CNF satisfied by a hidden random assignment: a clause the
  /// assignment falsifies gets one literal flipped.
  static std::string Planted(Prng* r, const std::vector<std::string>& atoms,
                             int clauses) {
    std::vector<bool> hidden;
    for (size_t i = 0; i < atoms.size(); ++i) hidden.push_back(r->Chance(0.5));
    std::string out;
    for (int c = 0; c < clauses; ++c) {
      const std::vector<int> picks =
          Distinct(r, static_cast<int>(atoms.size()), 3);
      bool positive[3];
      bool satisfied = false;
      for (int i = 0; i < 3; ++i) {
        positive[i] = r->Chance(0.5);
        satisfied |= positive[i] == hidden[static_cast<size_t>(picks[i])];
      }
      if (!satisfied) {
        const int k = static_cast<int>(r->Below(3));
        positive[k] = hidden[static_cast<size_t>(picks[k])];
      }
      out += c > 0 ? " & (" : "(";
      for (int i = 0; i < 3; ++i) {
        if (i > 0) out += " | ";
        out += Literal(atoms[static_cast<size_t>(picks[i])], positive[i]);
      }
      out += ")";
    }
    return out;
  }

  uint64_t seed_;
  bool quick_;
};

// ---------------------------------------------------------------------
// iterated_writes: two writers stream single changes round-robin over
// four shared 12-atom stores while one reader queries them.  History
// grows to about two thousand changes per store, then writer 0 defines
// the base afresh, so every run sees the same spread of history depths
// whatever its speed.

class IteratedWrites : public Workload {
 public:
  IteratedWrites(uint64_t seed, bool quick)
      : seed_(seed),
        atoms_(NumberedAtoms(quick ? 8 : 12)),
        reset_visits_(quick ? 50 : 1000) {}

  std::string name() const override { return "iterated_writes"; }
  int clients() const override { return 3; }

  std::vector<Batch> SetupBatches() const override {
    std::vector<Batch> out;
    for (int s = 0; s < kStores; ++s) {
      Batch b = Base(s, 0);
      b.lines.insert(b.lines.begin(), VocabularyLine(atoms_));
      out.push_back(std::move(b));
    }
    return out;
  }

  Batch Next(int client, uint64_t seq) const override {
    Prng r(MixSeed(seed_, 31, static_cast<uint64_t>(client), seq));
    Batch b;
    if (client < 2) {
      const int store = static_cast<int>(
          (seq + 2 * static_cast<uint64_t>(client)) % kStores);
      // Writer 0 visits each store once every kStores batches; every
      // reset_visits_-th visit starts the store's history over.
      const uint64_t visit = seq / kStores + 1;
      if (client == 0 && visit % reset_visits_ == 0) {
        return Base(store, visit / reset_visits_);
      }
      b.store = StoreName(store);
      b.writes = true;
      if (r.Chance(0.05)) {
        b.lines.push_back("undo h");
      } else {
        const std::string op = Op(&r);
        b.lines.push_back("change h by " + op + " with " + Evidence(&r));
      }
      return b;
    }
    b.store = StoreName(static_cast<int>(seq % kStores));
    b.lines.push_back("query h entails " + Junction(&r, atoms_, 3, " | "));
    b.lines.push_back("query h consistent-with " +
                      Junction(&r, atoms_, 3, " & "));
    b.lines.push_back("query h models");
    const std::string op = Op(&r);
    b.lines.push_back("query h dist " + op + " " + Evidence(&r));
    return b;
  }

 private:
  static constexpr int kStores = 4;
  static constexpr int kInitialHistory = 20;

  static std::string StoreName(int s) { return "iw" + std::to_string(s); }

  /// The `generation`-th definition of store s's base (0 in set-up):
  /// a fresh base and an initial history, so the writers' occasional
  /// undo never runs out of changes to revert.
  Batch Base(int s, uint64_t generation) const {
    Prng r(MixSeed(seed_, 30, static_cast<uint64_t>(s), generation));
    Batch b;
    b.store = StoreName(s);
    b.writes = true;
    b.lines.push_back("define h := " + Junction(&r, atoms_, 3, " | "));
    for (int i = 0; i < kInitialHistory; ++i) {
      b.lines.push_back("change h by dalal with " +
                        Junction(&r, atoms_, 3, " & "));
    }
    return b;
  }
  static std::string Op(Prng* r) {
    switch (r->Below(3)) {
      case 0:
        return "dalal";
      case 1:
        return "revesz-sum";
      default:
        return "revesz-max";
    }
  }
  std::string Evidence(Prng* r) const {
    return Junction(r, atoms_, 3, r->Chance(0.6) ? " & " : " | ");
  }

  uint64_t seed_;
  std::vector<std::string> atoms_;
  uint64_t reset_visits_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"hot_repeat", "cold_solve", "iterated_writes"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool quick) {
  if (name == "hot_repeat") return std::make_unique<HotRepeat>(seed, quick);
  if (name == "cold_solve") return std::make_unique<ColdSolve>(seed, quick);
  if (name == "iterated_writes") {
    return std::make_unique<IteratedWrites>(seed, quick);
  }
  return nullptr;
}

}  // namespace perfbench

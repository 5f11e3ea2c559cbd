// Tests for the BeliefStore: named bases, in-place changes with
// journaled undo, entailment/consistency queries, counterfactuals.

#include "store/belief_store.h"

#include <gtest/gtest.h>

#include "change/registry.h"
#include "logic/parser.h"

namespace arbiter {
namespace {

TEST(BeliefStoreTest, DefineAndGet) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("jury", "g & a").ok());
  EXPECT_TRUE(store.Contains("jury"));
  Result<KnowledgeBase> kb = store.Get("jury");
  ASSERT_TRUE(kb.ok());
  EXPECT_TRUE(kb->IsSatisfiable());
  EXPECT_EQ(store.Names(), std::vector<std::string>{"jury"});
}

TEST(BeliefStoreTest, GetUnknownFails) {
  BeliefStore store;
  EXPECT_EQ(store.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(BeliefStoreTest, DefineRejectsBadInput) {
  BeliefStore store;
  EXPECT_FALSE(store.Define("", "a").ok());
  EXPECT_FALSE(store.Define("x", "a &").ok());
}

TEST(BeliefStoreTest, ApplyRevisesInPlace) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("jury", "g & a & (g & a -> v)").ok());
  ASSERT_TRUE(store.Apply("jury", "dalal", "!v").ok());
  EXPECT_EQ(*store.Entails("jury", "!v"), true);
  EXPECT_EQ(*store.Entails("jury", "g & a"), true);
}

TEST(BeliefStoreTest, ApplyUnknownOperatorFails) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("x", "a").ok());
  EXPECT_EQ(store.Apply("x", "zorp", "b").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.HistoryDepth("x"), 0) << "failed apply not journaled";
}

TEST(BeliefStoreTest, UndoRestoresPreviousState) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a & b").ok());
  ASSERT_TRUE(store.Apply("kb", "dalal", "!a").ok());
  EXPECT_EQ(*store.Entails("kb", "!a"), true);
  EXPECT_EQ(store.HistoryDepth("kb"), 1);
  ASSERT_TRUE(store.Undo("kb").ok());
  EXPECT_EQ(*store.Entails("kb", "a & b"), true);
  EXPECT_EQ(store.HistoryDepth("kb"), 0);
  EXPECT_FALSE(store.Undo("kb").ok()) << "nothing left to undo";
}

TEST(BeliefStoreTest, HistoryJournalsOperatorAndEvidence) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a").ok());
  ASSERT_TRUE(store.Apply("kb", "winslett", "b").ok());
  ASSERT_TRUE(store.Apply("kb", "arbitration-max", "!a").ok());
  std::vector<ChangeRecord> history = store.History("kb");
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].op_name, "winslett");
  EXPECT_EQ(history[0].evidence_text, "b");
  EXPECT_EQ(history[1].op_name, "arbitration-max");
}

TEST(BeliefStoreTest, RedefineClearsHistory) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a").ok());
  ASSERT_TRUE(store.Apply("kb", "dalal", "!a").ok());
  ASSERT_TRUE(store.Define("kb", "b").ok());
  EXPECT_EQ(store.HistoryDepth("kb"), 0);
}

TEST(BeliefStoreTest, DropRemovesBase) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a").ok());
  ASSERT_TRUE(store.Drop("kb").ok());
  EXPECT_FALSE(store.Contains("kb"));
  EXPECT_FALSE(store.Drop("kb").ok());
}

TEST(BeliefStoreTest, VocabularyGrowsAcrossBases) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("one", "a").ok());
  ASSERT_TRUE(store.Define("two", "b & c").ok());
  // "one" leaves the later terms free: 1 * 2 * 2 models.
  EXPECT_EQ(store.Get("one")->models().size(), 4u);
  EXPECT_EQ(store.vocabulary().size(), 3);
}

TEST(BeliefStoreTest, EntailsAndConsistency) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a & (a -> b)").ok());
  EXPECT_EQ(*store.Entails("kb", "b"), true);
  EXPECT_EQ(*store.Entails("kb", "!b"), false);
  EXPECT_EQ(*store.ConsistentWith("kb", "a & b"), true);
  EXPECT_EQ(*store.ConsistentWith("kb", "!a"), false);
}

TEST(BeliefStoreTest, EntailmentWithFreshTermInQuery) {
  // Querying with a never-seen term grows the vocabulary mid-query;
  // the base must be re-evaluated consistently.
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a").ok());
  EXPECT_EQ(*store.Entails("kb", "brand_new | !brand_new"), true);
  EXPECT_EQ(*store.Entails("kb", "brand_new"), false);
}

TEST(BeliefStoreTest, CounterfactualViaUpdate) {
  // "The book is on the table XOR the magazine is" — if the book were
  // put on the table, the magazine's state is unchanged per world, so
  // the magazine being off the table is NOT guaranteed.
  BeliefStore store;
  ASSERT_TRUE(store.Define("table", "(book & !mag) | (!book & mag)").ok());
  EXPECT_EQ(*store.Counterfactual("table", "book", "book"), true);
  EXPECT_EQ(*store.Counterfactual("table", "book", "!mag"), false);
  // Revision (the wrong tool for counterfactuals) would conclude !mag:
  ASSERT_TRUE(store.Apply("table", "dalal", "book").ok());
  EXPECT_EQ(*store.Entails("table", "!mag"), true);
}

TEST(BeliefStoreTest, ArbitrationBetweenStoredBases) {
  // Two shards stored side by side, merged into a third via Δ.
  BeliefStore store;
  ASSERT_TRUE(store.Define("shard_a", "d & i").ok());
  ASSERT_TRUE(store.Define("merged", "d & i").ok());
  ASSERT_TRUE(store.Apply("merged", "two-sided-dalal", "!d & !i").ok());
  EXPECT_EQ(*store.ConsistentWith("merged", "d & i"), true);
  EXPECT_EQ(*store.ConsistentWith("merged", "!d & !i"), true);
}

TEST(BeliefStoreTest, SaveLoadRoundTrip) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("jury", "g & a & (g & a -> v)").ok());
  ASSERT_TRUE(store.Define("witness", "!v").ok());
  ASSERT_TRUE(store.Apply("jury", "dalal", "!v").ok());
  std::string saved = store.Save();

  Result<BeliefStore> loaded = BeliefStore::Load(saved);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  BeliefStore copy = *loaded;
  EXPECT_EQ(copy.Names(), store.Names());
  EXPECT_EQ(copy.vocabulary().names(), store.vocabulary().names());
  for (const std::string& name : store.Names()) {
    EXPECT_TRUE(
        copy.Get(name)->EquivalentTo(*store.Get(name)))
        << name;
  }
  // Journals ARE persisted: Load restores the hist lines.
  EXPECT_EQ(copy.HistoryDepth("jury"), 1);
  std::vector<ChangeRecord> history = copy.History("jury");
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].op_name, "dalal");
  EXPECT_EQ(history[0].evidence_text, "!v");
  // ... so Undo works on the reloaded store and lands on the original.
  ASSERT_TRUE(copy.Undo("jury").ok());
  ASSERT_TRUE(store.Undo("jury").ok());
  EXPECT_TRUE(copy.Get("jury")->EquivalentTo(*store.Get("jury")));
}

TEST(BeliefStoreTest, SaveEmitsUndoAndHistLines) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a").ok());
  ASSERT_TRUE(store.Apply("kb", "winslett", "b | !a").ok());
  ASSERT_TRUE(store.Apply("kb", "dalal", "!b").ok());
  std::string saved = store.Save();
  // The base line holds the CURRENT formula; each pre-change state is
  // an undo line and each applied change a hist line, both in order.
  EXPECT_NE(saved.find("base kb := "), std::string::npos) << saved;
  EXPECT_NE(saved.find("undo kb := a\n"), std::string::npos) << saved;
  size_t first = saved.find("hist kb winslett := b | !a");
  size_t second = saved.find("hist kb dalal := !b");
  ASSERT_NE(first, std::string::npos) << saved;
  ASSERT_NE(second, std::string::npos) << saved;
  EXPECT_LT(first, second);
}

TEST(BeliefStoreTest, LoadRejectsMalformedHistLines) {
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nhist broken\n").ok());
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nhist kb := x\n").ok());
  // hist for a base that was never defined.
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nhist kb dalal := a\n").ok());
  // hist naming an unregistered operator.
  EXPECT_FALSE(
      BeliefStore::Load(
          "arbiter-store v1\nbase kb := a\nundo kb := a\n"
          "hist kb zorp := a\n")
          .ok());
}

TEST(BeliefStoreTest, LoadRejectsMalformedUndoLines) {
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nundo broken\n").ok());
  // undo for a base that was never defined.
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nundo kb := a\n").ok());
  // Each hist line needs a matching undo line and vice versa.
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nbase kb := a\n"
                        "hist kb dalal := !a\n")
          .ok());
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nbase kb := a\n"
                        "undo kb := a\n")
          .ok());
}

TEST(BeliefStoreTest, LoadAcceptsJournalFreeV1Files) {
  // Files written before journal persistence (no hist lines) load.
  Result<BeliefStore> loaded =
      BeliefStore::Load("arbiter-store v1\nvocab a b\nbase kb := a & b\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->HistoryDepth("kb"), 0);
}

TEST(BeliefStoreTest, LoadRejectsGarbage) {
  EXPECT_FALSE(BeliefStore::Load("").ok());
  EXPECT_FALSE(BeliefStore::Load("not a store\n").ok());
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nbase broken\n").ok());
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nmystery line\n").ok());
}

TEST(BeliefStoreTest, LoadPreservesVocabularyOrder) {
  // Term indices must survive the round trip so saved formulas keep
  // their meaning.
  BeliefStore store;
  ASSERT_TRUE(store.Define("x", "zebra | aardvark").ok());
  Result<BeliefStore> loaded = BeliefStore::Load(store.Save());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->vocabulary().names(), store.vocabulary().names());
}

TEST(BeliefStoreTest, DumpListsEverything) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a").ok());
  ASSERT_TRUE(store.Apply("kb", "dalal", "!a").ok());
  std::string dump = store.Dump();
  EXPECT_NE(dump.find("kb :="), std::string::npos);
  EXPECT_NE(dump.find("models:"), std::string::npos);
  EXPECT_NE(dump.find("dalal"), std::string::npos);
}

// --- Distance backends and metric weights ------------------------------

/// p1 <op> p2 <op> ... <op> pn: grows the vocabulary past the 24-term
/// enumeration wall in one statement.
std::string WideChain(int n, const std::string& op) {
  std::string text;
  for (int i = 1; i <= n; ++i) {
    if (i > 1) text += " " + op + " ";
    text += "p" + std::to_string(i);
  }
  return text;
}

TEST(BeliefStoreBackend, SetBackendRaisesTheCapacityLimit) {
  BeliefStore store;
  EXPECT_EQ(store.backend_name(), "enum");
  EXPECT_EQ(store.CapacityLimit(), kMaxEnumTerms);
  ASSERT_TRUE(store.SetBackend("counting").ok());
  EXPECT_EQ(store.backend_name(), "counting");
  EXPECT_EQ(store.CapacityLimit(), kMaxVocabularyTerms - 1);
  EXPECT_EQ(store.SetBackend("no-such").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.backend_name(), "counting") << "failed set is a no-op";
}

TEST(BeliefStoreBackend, EnumBackendStillRejectsWideVocabularies) {
  BeliefStore store;
  EXPECT_EQ(store.Define("wide", WideChain(30, "|")).code(),
            StatusCode::kCapacityExceeded);
}

TEST(BeliefStoreBackend, CountingBackendServesThirtyAtoms) {
  BeliefStore store;
  ASSERT_TRUE(store.SetBackend("counting").ok());
  // A conjunction pins every atom, so the revised base stays a single
  // model (the store must hold the exact result).
  ASSERT_TRUE(store.Define("wide", WideChain(30, "&")).ok());
  ASSERT_TRUE(store.Apply("wide", "dalal", "!p1").ok());
  // Queries route through CDCL past the enumeration wall.
  EXPECT_EQ(*store.Entails("wide", "!p1"), true);
  EXPECT_EQ(*store.Entails("wide", "p2"), true);
  EXPECT_EQ(*store.ConsistentWith("wide", "p3"), true);
  // Model materialization stays out of reach.
  EXPECT_EQ(store.Get("wide").status().code(),
            StatusCode::kCapacityExceeded);
}

TEST(BeliefStoreBackend, SwitchingBackToEnumNeedsASmallVocabulary) {
  BeliefStore store;
  ASSERT_TRUE(store.SetBackend("counting").ok());
  ASSERT_TRUE(store.Define("wide", WideChain(30, "|")).ok());
  EXPECT_EQ(store.SetBackend("enum").code(),
            StatusCode::kInvalidArgument);

  BeliefStore small;
  ASSERT_TRUE(small.SetBackend("counting").ok());
  ASSERT_TRUE(small.Define("kb", "a & b").ok());
  EXPECT_TRUE(small.SetBackend("enum").ok());
}

TEST(BeliefStoreBackend, CountingApplyMatchesEnumOnSmallVocabularies) {
  // Example 3.1 through both backends: S=s, D=d, Q=q.
  const std::string psi = "(s & !d & !q) | (!s & d & !q) | (s & d & q)";
  const std::string mu = "((!s & d) | (s & d)) & !q";
  for (const std::string& op : {std::string("dalal"),
                                std::string("revesz-max"),
                                std::string("revesz-sum"),
                                std::string("arbitration-max")}) {
    SCOPED_TRACE(op);
    BeliefStore enumerating;
    ASSERT_TRUE(enumerating.Define("kb", psi).ok());
    ASSERT_TRUE(enumerating.Apply("kb", op, mu).ok());

    BeliefStore counting;
    ASSERT_TRUE(counting.SetBackend("counting").ok());
    ASSERT_TRUE(counting.Define("kb", psi).ok());
    ASSERT_TRUE(counting.Apply("kb", op, mu).ok());

    Result<KnowledgeBase> a = enumerating.Get("kb");
    Result<KnowledgeBase> b = counting.Get("kb");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->models(), b->models());
  }
}

TEST(BeliefStoreBackend, WeightsShapeTheMetric) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "a & b").ok());
  // Flipping a costs 5, flipping b costs 1: revision by !(a & b)
  // prefers to give up b.
  ASSERT_TRUE(store.SetWeight("a", 5).ok());
  ASSERT_TRUE(store.SetWeight("b", 1).ok());
  EXPECT_EQ(store.weights().at("a"), 5);
  ASSERT_TRUE(store.Apply("kb", "dalal", "!(a & b)").ok());
  EXPECT_EQ(*store.Entails("kb", "a"), true);
  EXPECT_EQ(*store.Entails("kb", "!b"), true);
  EXPECT_EQ(store.SetWeight("a", -1).code(),
            StatusCode::kInvalidArgument);
}

TEST(BeliefStoreBackend, SaveLoadRoundTripsBackendAndWeights) {
  BeliefStore store;
  ASSERT_TRUE(store.SetBackend("counting").ok());
  ASSERT_TRUE(store.Define("kb", "a & b").ok());
  ASSERT_TRUE(store.SetWeight("a", 7).ok());
  const std::string saved = store.Save();
  EXPECT_NE(saved.find("backend counting"), std::string::npos);
  EXPECT_NE(saved.find("weight a 7"), std::string::npos);

  Result<BeliefStore> loaded = BeliefStore::Load(saved);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->backend_name(), "counting");
  EXPECT_EQ(loaded->weights().at("a"), 7);

  // The default backend writes no backend line.
  BeliefStore plain;
  ASSERT_TRUE(plain.Define("kb", "a").ok());
  EXPECT_EQ(plain.Save().find("backend"), std::string::npos);
}

TEST(BeliefStoreBackend, LoadRejectsMalformedBackendAndWeightLines) {
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nbackend zorp\n").ok());
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nweight a\n").ok());
  EXPECT_FALSE(
      BeliefStore::Load("arbiter-store v1\nweight a twelve\n").ok());
}

TEST(BeliefStoreBackend, WeightsPastTheCapAreOutOfRange) {
  // A weight near INT64_MAX would overflow the Σ accumulation in
  // diameter/sum distances; the cap keeps every reachable sum exact.
  BeliefStore store;
  ASSERT_TRUE(store.SetWeight("a", kMaxMetricWeight).ok());
  EXPECT_EQ(store.SetWeight("a", kMaxMetricWeight + 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store.weights().at("a"), kMaxMetricWeight)
      << "rejected weight must not half-apply";
}

// --- Const query family (server read path) -----------------------------

TEST(BeliefStoreQuery, QueriesMatchMutatingCountsAndCommitNothing) {
  BeliefStore store;
  ASSERT_TRUE(store.Define("kb", "g & a").ok());
  const size_t vocab_before = store.vocabulary().size();

  const BeliefStore& reader = store;
  EXPECT_EQ(*reader.QueryEntails("kb", "g"), true);
  EXPECT_EQ(*reader.QueryEntails("kb", "!g"), false);
  EXPECT_EQ(*reader.QueryConsistentWith("kb", "g & z"), true);
  EXPECT_EQ(*reader.QueryEquivalentTo("kb", "a & g"), true);
  // Queries parse over a scratch vocabulary: the new term z above must
  // not have grown the store.
  EXPECT_EQ(store.vocabulary().size(), vocab_before);

  Result<std::string> models = reader.QueryModels("kb");
  ASSERT_TRUE(models.ok());
  EXPECT_FALSE(models->empty());
  Result<std::string> dist = reader.QueryDistance("kb", "dalal", "!g & !a");
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(*dist, "2");

  EXPECT_EQ(reader.QueryEntails("ghost", "g").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(reader.QueryDistance("kb", "zorp", "a").ok());
}

TEST(BeliefStoreQuery, CopySharesCacheButNotBackendState) {
  auto cache = std::make_shared<OperatorResultCache>(16);
  BeliefStore store;
  store.SetResultCache(cache);
  ASSERT_TRUE(store.Define("kb", "g & a").ok());
  ASSERT_TRUE(store.Apply("kb", "dalal", "!a").ok());
  EXPECT_EQ(cache->stats().misses, 1u);

  BeliefStore copy = store;
  ASSERT_TRUE(copy.Define("kb", "g & a").ok());
  ASSERT_TRUE(copy.Apply("kb", "dalal", "!a").ok());
  EXPECT_EQ(cache->stats().hits, 1u) << "copies share the result cache";
  EXPECT_EQ(copy.Save(), store.Save());
}

// A `change` that hits an entry `query dist` cached must commit what an
// uncached change commits: both compute through one routine and store
// one result form.  The atom e is free in both formulas, so every result
// has model pairs a minimizer would merge.
TEST(BeliefStoreQuery, DistanceCacheHitSavesWhatAnUncachedChangeSaves) {
  for (const char* op : {"dalal", "revesz-max", "revesz-sum",
                         "arbitration-max", "arbitration-sum"}) {
    SCOPED_TRACE(op);
    BeliefStore uncached;
    ASSERT_TRUE(uncached.Define("other", "e").ok());
    ASSERT_TRUE(uncached.Define("kb", "a & b & (c | d)").ok());
    ASSERT_TRUE(uncached.Apply("kb", op, "!a | !b").ok());

    BeliefStore cached;
    auto cache = std::make_shared<OperatorResultCache>(16);
    cached.SetResultCache(cache);
    ASSERT_TRUE(cached.Define("other", "e").ok());
    ASSERT_TRUE(cached.Define("kb", "a & b & (c | d)").ok());
    ASSERT_TRUE(cached.QueryDistance("kb", op, "!a | !b").ok());
    ASSERT_TRUE(cached.Apply("kb", op, "!a | !b").ok());
    EXPECT_EQ(cache->stats().hits, 1u);
    EXPECT_EQ(cached.Save(), uncached.Save());
  }
}

// The cache is shared: an entry another writer stored without its
// distance must not turn `query dist` into "undefined".
TEST(BeliefStoreQuery, DistanceQueryRecomputesAnEntryWithoutDistance) {
  auto cache = std::make_shared<OperatorResultCache>(16);
  BeliefStore store;
  store.SetResultCache(cache);
  ASSERT_TRUE(store.Define("kb", "g & a").ok());
  Vocabulary scratch = store.vocabulary();
  Result<std::string> key =
      OperatorCacheKey(store.backend_name(), "dalal", {}, scratch,
                       *Parse("g & a", &scratch), *Parse("!g & !a", &scratch));
  ASSERT_TRUE(key.ok());
  cache->Insert(*key, OperatorResultCache::Value{
                          *Parse("!g & !a", &scratch), ""});
  EXPECT_EQ(*store.QueryDistance("kb", "dalal", "!g & !a"), "2");
}

// Enumeration holds every model already, so the enum backend commits
// exact results past the counting backend's 4096-model cap.
TEST(BeliefStoreBackend, EnumChangeCommitsMoreThan4096Models) {
  BeliefStore store;
  std::string wide = "x1";
  for (int i = 2; i <= 14; ++i) wide += " | x" + std::to_string(i);
  ASSERT_TRUE(store.Define("all", wide).ok());
  ASSERT_TRUE(store.Define("kb", "x1").ok());
  ASSERT_EQ(store.vocabulary().size(), 14);
  ASSERT_TRUE(store.Apply("kb", "dalal", "x2 | x3").ok());

  const Vocabulary& vocab = store.vocabulary();
  Vocabulary scratch = vocab;
  const ModelSet psi =
      ModelSet::FromFormula(*Parse("x1", &scratch), vocab.size());
  const ModelSet mu =
      ModelSet::FromFormula(*Parse("x2 | x3", &scratch), vocab.size());
  const ModelSet expected = (*MakeOperator("dalal"))->Change(psi, mu);
  ASSERT_EQ(expected.size(), 6144u);
  EXPECT_EQ(store.Get("kb")->models(), expected);
}

}  // namespace
}  // namespace arbiter

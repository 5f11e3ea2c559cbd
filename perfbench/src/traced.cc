// The traced run: per-layer numbers for one workload, same seed and
// inputs as the end-to-end run.
//
// Phase 0  a short untraced socket run gives the client-observed median
//          latency (for server.transport_us).
// Pass 1   the workload's clients call BeliefServer::ExecuteBatch
//          in-process, each batch framed, decoded with ReadFrame and
//          answered with RenderOutcome + WriteReply.  It records every
//          batch's epoch and outcomes; it runs twice over the same
//          batches, with spans on and off (trace.overhead_frac).
// Pass 2   replays pass 1's log serially by epoch and checks every
//          outcome.  Each statement is split into the public calls the
//          server makes: ParseServerStatement; for a change,
//          OperatorCacheKey, OperatorResultCache::Lookup, on a miss the
//          registry operator or DistanceBackend::Change and Insert, then
//          BeliefStore::Apply (which now hits the cache, so its span is
//          the store's own work); Query* for reads.  Solver counts come
//          from one extra direct call to the aggregator's solve function,
//          recorded under the "trace" layer.
//
// Spans carry a request id, call, start, end and parent; they stay in
// memory and are written out (--spans-out) at exit.  A layer's self
// time is its spans' time minus their children's.

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "change/backend.h"
#include "change/registry.h"
#include "change/result_cache.h"
#include "driver.h"
#include "logic/parser.h"
#include "logic/vocabulary.h"
#include "report.h"
#include "server/frame.h"
#include "server/server.h"
#include "solve/arbitration_sat.h"
#include "solve/dalal_sat.h"
#include "solve/sum_sat.h"
#include "store/belief_store.h"
#include "wire.h"

namespace perfbench {

namespace {

namespace server = arbiter::server;
using arbiter::BeliefStore;
using arbiter::Formula;
using arbiter::Result;
using arbiter::Status;

/// Largest result a backend-served Apply may hold (the store's own
/// limit, src/store/belief_store.cc).
constexpr int64_t kStoreMaxModels = 4096;

/// Pass 1 stops after this many timed batches in all, so pass 2's spans
/// stay within a few tens of MiB on the fast workloads.
constexpr uint64_t kPass1MaxBatches = 16000;

enum Call : uint8_t {
  kExecute,      // server: BeliefServer::ExecuteBatch (pass 1)
  kFrameDecode,  // server: ReadFrame (pass 1)
  kReplyEncode,  // server: RenderOutcome + WriteReply (pass 1)
  kBatch,        // server: one replayed batch (pass 2 root)
  kParse,        // server: ParseServerStatement
  kSnapshotCopy, // store: BeliefStore copy for a write batch
  kBind,         // store: binding psi and mu as the store does
  kApply,        // store: BeliefStore::Apply, result cached
  kQuery,        // store: Query* (reads and asserts)
  kStoreOther,   // store: Define / Undo / SetBackend / SetWeight
  kCanonical,    // logic: OperatorCacheKey
  kCacheLookup,  // change: OperatorResultCache::Lookup
  kCacheInsert,  // change: OperatorResultCache::Insert
  kEnumOperator, // change: MakeOperator(op, metric)->Apply
  kBackend,      // change: DistanceBackend::Change
  kCountProbe,   // trace: the extra solve call that yields counts
  kNumCalls,
};

const char* const kCallName[kNumCalls] = {
    "execute", "frame_decode", "reply_encode", "batch", "parse",
    "snapshot_copy", "bind", "apply", "query", "store_other",
    "canonical", "cache_lookup", "cache_insert", "enum_operator",
    "backend", "count_probe"};
const char* const kCallLayer[kNumCalls] = {
    "server", "server", "server", "server", "server", "store",
    "store", "store", "store", "store", "logic", "change",
    "change", "change", "change", "trace"};
const char* const kLayers[] = {"server", "store", "logic", "change", "trace"};

struct Span {
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint8_t call;
  uint8_t tag;  // kBackend: the DistanceAggregator
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One thread's spans.  A null log records nothing.
class SpanLog {
 public:
  int32_t Begin(Call call, uint64_t request) {
    spans_.push_back(Span{request, NowNs(), 0, current_, call, 0});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(index)].parent;
  }
  void Tag(int32_t index, uint8_t tag) {
    spans_[static_cast<size_t>(index)].tag = tag;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

class Scoped {
 public:
  Scoped(SpanLog* log, Call call, uint64_t request)
      : log_(log), index_(log != nullptr ? log->Begin(call, request) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->End(index_);
  }
  void Tag(uint8_t tag) {
    if (log_ != nullptr) log_->Tag(index_, tag);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

double DurationUs(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
}

// ---------------------------------------------------------------------
// Pass 1

struct P1Record {
  int client = 0;
  uint64_t seq = 0;
  std::string store;
  uint64_t epoch = 0;
  bool writes = false;
  bool timed = false;
  std::vector<std::string> outcomes;
  double execute_us = 0;
};

struct Pass1 {
  std::vector<P1Record> records;
  std::vector<uint64_t> timed_per_client;
  std::vector<SpanLog> logs;  // one per client
  double timed_wall_s = 0;
  std::map<std::string, int64_t> stats_before, stats_after;
};

std::map<std::string, int64_t> ServerStats(server::BeliefServer* srv) {
  server::BatchResult r = srv->ExecuteBatch("__perfbench_stats", {"stats"});
  if (r.outcomes.size() != 1) return {};
  return ParseStats(r.outcomes[0].text);
}

/// Runs set-up and the timed phase in-process.  The timed
/// phase ends after `seconds` (or kPass1MaxBatches) when `limits` is
/// empty; otherwise client c runs exactly limits[c] timed batches.
Pass1 RunPass1(const Workload& workload, double seconds, bool spans,
               const std::vector<uint64_t>& limits) {
  Pass1 out;
  server::BeliefServer srv;
  const std::vector<Batch> setup = workload.SetupBatches();
  for (size_t i = 0; i < setup.size(); ++i) {
    server::BatchResult r = srv.ExecuteBatch(setup[i].store, setup[i].lines);
    out.records.push_back(P1Record{kSetupClient, i, setup[i].store, r.epoch,
                                   setup[i].writes, false,
                                   RenderLines(r.outcomes), 0});
  }
  const int clients = workload.clients();
  std::vector<std::vector<P1Record>> per_client(static_cast<size_t>(clients));
  out.stats_before = ServerStats(&srv);

  out.logs.resize(static_cast<size_t>(clients));
  out.timed_per_client.assign(static_cast<size_t>(clients), 0);
  std::vector<double> last_done(static_cast<size_t>(clients), 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const uint64_t per_client_cap = kPass1MaxBatches / static_cast<uint64_t>(clients);
  auto timed = [&](int c) {
    const size_t ci = static_cast<size_t>(c);
    SpanLog* log = spans ? &out.logs[ci] : nullptr;
    for (uint64_t k = 0;; ++k) {
      if (limits.empty()) {
        if (k >= per_client_cap || Clock::now() >= deadline) break;
      } else if (k >= limits[ci]) {
        break;
      }
      const uint64_t seq = k;
      const Batch b = workload.Next(c, seq);
      std::istringstream in(RenderFrame(std::to_string(seq), b));
      std::ostringstream reply;
      server::Frame frame;
      std::string error;
      {
        Scoped s(log, kFrameDecode, seq);
        server::ReadFrame(in, &frame, &error);
      }
      const int64_t t0 = NowNs();
      server::BatchResult r;
      {
        Scoped s(log, kExecute, seq);
        r = srv.ExecuteBatch(frame.store, frame.statements);
      }
      const double execute_us = static_cast<double>(NowNs() - t0) / 1000.0;
      std::vector<std::string> lines;
      {
        Scoped s(log, kReplyEncode, seq);
        lines.reserve(r.outcomes.size());
        for (const server::StatementOutcome& o : r.outcomes) {
          lines.push_back(server::RenderOutcome(o));
        }
        server::WriteReply(reply, frame.id, r.epoch, lines);
      }
      for (std::string& line : lines) line = server::FlattenLine(line);
      per_client[ci].push_back(P1Record{c, seq, b.store, r.epoch, b.writes,
                                        true, std::move(lines), execute_us});
      out.timed_per_client[ci] = k + 1;
      last_done[ci] = std::chrono::duration<double>(Clock::now() - start).count();
    }
  };
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(timed, c);
    for (std::thread& t : threads) t.join();
  }
  for (double d : last_done) out.timed_wall_s = std::max(out.timed_wall_s, d);
  out.stats_after = ServerStats(&srv);
  for (auto& recs : per_client) {
    for (P1Record& r : recs) out.records.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------
// Pass 2

struct SolveCounts {
  uint64_t min_calls = 0, min_sat_calls = 0;
  uint64_t max_calls = 0, max_iterations = 0;
  uint64_t sum_calls = 0, sum_components = 0, sum_cache_hits = 0;
};

struct Pass2 {
  SpanLog log;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t unverifiable = 0;
  std::string detail;
  double traced_wall_us = 0;  // around each timed batch, harness included
  uint64_t canonical_keys = 0, canonical_skipped = 0;
  uint64_t unsplit_changes = 0;   // changes Apply ran without the split
  uint64_t apply_cache_misses = 0;  // split changes Apply did not find
  std::vector<double> history_depth;  // per timed write batch
  std::map<uint64_t, double> batch_us;  // timed write batches, by record
  SolveCounts solve;

  void Problem(const std::string& what) {
    if (detail.size() < 2048) detail += what + "\n";
  }
};

/// What pass 2 knows about one store while replaying it.
struct StoreState {
  BeliefStore store;
  /// Current formula of each base, for stores past the enumeration
  /// limit where Get() cannot return it: the define text or the result
  /// just computed, bound against the store's vocabulary.
  std::map<std::string, Formula> known;
};

server::StatementOutcome Ok() { return {}; }
server::StatementOutcome Err(const Status& status) {
  server::StatementOutcome o;
  o.kind = server::StatementOutcome::Kind::kError;
  o.code = status.code();
  o.text = status.message();
  return o;
}
server::StatementOutcome Val(std::string text) {
  server::StatementOutcome o;
  o.kind = server::StatementOutcome::Kind::kValue;
  o.text = std::move(text);
  return o;
}

class Replayer {
 public:
  Replayer(Pass2* out, uint64_t request, bool traced)
      : out_(out), request_(request), log_(traced ? &out->log : nullptr) {}

  /// Replays one batch against `state`; returns the outcomes and, if
  /// the batch committed, the next state.
  std::vector<server::StatementOutcome> Run(
      const StoreState& state, const std::vector<std::string>& lines,
      std::optional<StoreState>* next) {
    Scoped root(log_, kBatch, request_);
    std::vector<Result<server::ServerStatement>> parsed;
    bool writes = false;
    for (const std::string& line : lines) {
      Scoped s(log_, kParse, request_);
      parsed.push_back(server::ParseServerStatement(line));
      if (parsed.back().ok() && server::StatementMutates(*parsed.back())) {
        writes = true;
      }
    }
    std::optional<StoreState> working;
    if (writes) {
      if (log_ != nullptr) {
        double depth = 0;
        for (const std::string& name : state.store.Names()) {
          depth += state.store.HistoryDepth(name);
        }
        out_->history_depth.push_back(depth);
      }
      Scoped s(log_, kSnapshotCopy, request_);
      working.emplace(state);
    }
    const BeliefStore& reader = writes ? working->store : state.store;
    bool mutated = false;
    std::vector<server::StatementOutcome> outcomes;
    for (const Result<server::ServerStatement>& stmt : parsed) {
      if (!stmt.ok()) {
        outcomes.push_back(Err(stmt.status()));
        continue;
      }
      outcomes.push_back(
          One(*stmt, reader, writes ? &*working : nullptr, &mutated));
    }
    if (mutated) *next = std::move(working);
    return outcomes;
  }

 private:
  server::StatementOutcome One(const server::ServerStatement& stmt,
                               const BeliefStore& reader, StoreState* write,
                               bool* mutated) {
    using K = server::ServerStatement::Kind;
    switch (stmt.kind) {
      case K::kNoop:
        return Ok();
      case K::kScript:
        return Script(stmt.script, reader, write, mutated);
      case K::kQueryEntails:
      case K::kQueryConsistent:
      case K::kQueryEquivalent: {
        Result<bool> held = Status::Internal("unset");
        {
          Scoped s(log_, kQuery, request_);
          held = stmt.kind == K::kQueryEntails
                     ? reader.QueryEntails(stmt.base, stmt.formula)
                 : stmt.kind == K::kQueryConsistent
                     ? reader.QueryConsistentWith(stmt.base, stmt.formula)
                     : reader.QueryEquivalentTo(stmt.base, stmt.formula);
        }
        if (!held.ok()) return Err(held.status());
        return Val(*held ? "true" : "false");
      }
      case K::kQueryModels: {
        Result<std::string> models = Status::Internal("unset");
        {
          Scoped s(log_, kQuery, request_);
          models = reader.QueryModels(stmt.base);
        }
        if (!models.ok()) return Err(models.status());
        return Val(*models);
      }
      case K::kQueryDist: {
        Result<std::string> dist = Status::Internal("unset");
        {
          Scoped s(log_, kQuery, request_);
          dist = reader.QueryDistance(stmt.base, stmt.op_name, stmt.formula);
        }
        if (!dist.ok()) return Err(dist.status());
        return Val(*dist);
      }
      case K::kStats:
        return Err(Status::Unsupported("no cache counters in this execution"));
    }
    return Err(Status::Internal("unreachable statement kind"));
  }

  server::StatementOutcome Script(const arbiter::ScriptStatement& stmt,
                                  const BeliefStore& reader,
                                  StoreState* write, bool* mutated) {
    using K = arbiter::ScriptStatement::Kind;
    auto mutating = [&](const Status& status) {
      if (write == nullptr) {
        return Err(Status::Unsupported(
            "mutating statement reached a read-only execution"));
      }
      if (!status.ok()) return Err(status);
      *mutated = true;
      return Ok();
    };
    switch (stmt.kind) {
      case K::kDefine: {
        if (write == nullptr) return mutating(Status::OK());
        Status status;
        {
          Scoped s(log_, kStoreOther, request_);
          status = write->store.Define(stmt.base, stmt.formula);
        }
        if (status.ok()) Remember(write, stmt.base, stmt.formula);
        return mutating(status);
      }
      case K::kChange:
        if (write == nullptr) return mutating(Status::OK());
        return mutating(Change(write, stmt));
      case K::kUndo: {
        if (write == nullptr) return mutating(Status::OK());
        write->known.erase(stmt.base);
        Scoped s(log_, kStoreOther, request_);
        return mutating(write->store.Undo(stmt.base));
      }
      case K::kSetBackend: {
        if (write == nullptr) return mutating(Status::OK());
        Scoped s(log_, kStoreOther, request_);
        return mutating(write->store.SetBackend(stmt.formula));
      }
      case K::kAssertEntails:
      case K::kAssertConsistent:
      case K::kAssertEquivalent: {
        Result<bool> held = Status::Internal("unset");
        {
          Scoped s(log_, kQuery, request_);
          held = stmt.kind == K::kAssertEntails
                     ? reader.QueryEntails(stmt.base, stmt.formula)
                 : stmt.kind == K::kAssertConsistent
                     ? reader.QueryConsistentWith(stmt.base, stmt.formula)
                     : reader.QueryEquivalentTo(stmt.base, stmt.formula);
        }
        if (!held.ok()) return Err(held.status());
        if (*held) return Ok();
        server::StatementOutcome o;
        o.kind = server::StatementOutcome::Kind::kFailed;
        o.text = "assertion failed: " + arbiter::RenderStatement(stmt);
        return o;
      }
      case K::kSetWeight:
      case K::kConditional:
        // No workload sends these; a pass-1 outcome they would have to
        // match shows up as a mismatch rather than a silent skip.
        return Err(Status::Unsupported("not split by the traced run"));
    }
    return Err(Status::Internal("unreachable statement kind"));
  }

  /// Records a base's formula past the enumeration limit.
  void Remember(StoreState* st, const std::string& base,
                const std::string& text) {
    if (st->store.vocabulary().size() <= arbiter::kMaxEnumTerms) return;
    arbiter::Vocabulary vocab = st->store.vocabulary();
    Result<Formula> f = arbiter::Parse(text, &vocab);
    if (f.ok()) {
      st->known[base] = *f;
    } else {
      st->known.erase(base);
    }
  }

  /// A change split into the calls Apply makes: bind, key, lookup, on a
  /// miss compute and insert, then Apply itself (a cache hit).
  Status Change(StoreState* st, const arbiter::ScriptStatement& stmt) {
    BeliefStore& store = st->store;
    const std::shared_ptr<arbiter::OperatorResultCache>& cache =
        store.result_cache();
    std::optional<Formula> psi, mu;
    arbiter::Vocabulary scratch = store.vocabulary();
    {
      Scoped s(log_, kBind, request_);
      Result<Formula> parsed = arbiter::Parse(stmt.formula, &scratch);
      if (parsed.ok()) mu = *parsed;
      if (scratch.size() <= arbiter::kMaxEnumTerms) {
        Result<arbiter::KnowledgeBase> kb = store.Get(stmt.base);
        if (kb.ok()) psi = kb->formula();
      } else if (auto it = st->known.find(stmt.base); it != st->known.end()) {
        psi = it->second;
      }
    }
    if (cache == nullptr || !psi || !mu) {
      ++out_->unsplit_changes;
      Scoped s(log_, kApply, request_);
      Status status = store.Apply(stmt.base, stmt.op_name, stmt.formula);
      st->known.erase(stmt.base);
      return status;
    }
    const std::vector<int64_t> metric;  // no workload sets weights
    const int n = scratch.size();
    Result<std::string> key = Status::Internal("unset");
    {
      Scoped s(log_, kCanonical, request_);
      key = arbiter::OperatorCacheKey(store.backend_name(), stmt.op_name,
                                      metric, scratch, *psi, *mu);
    }
    if (log_ != nullptr) {
      ++out_->canonical_keys;
      if (!key.ok()) ++out_->canonical_skipped;
    }
    std::optional<Formula> result;
    if (key.ok()) {
      std::optional<arbiter::OperatorResultCache::Value> hit;
      {
        Scoped s(log_, kCacheLookup, request_);
        hit = cache->Lookup(*key);
      }
      if (hit.has_value()) {
        result = hit->result;
      } else if (std::optional<arbiter::OperatorResultCache::Value> value =
                     Compute(store, stmt, *psi, *mu, n, metric)) {
        result = value->result;
        Scoped s(log_, kCacheInsert, request_);
        cache->Insert(*key, std::move(*value));
      }
    }
    const uint64_t hits_before = cache->stats().hits;
    Status status;
    {
      Scoped s(log_, kApply, request_);
      status = store.Apply(stmt.base, stmt.op_name, stmt.formula);
    }
    if (key.ok() && result.has_value() && status.ok() &&
        cache->stats().hits == hits_before) {
      ++out_->apply_cache_misses;
    }
    if (status.ok() && result.has_value() &&
        store.vocabulary().size() > arbiter::kMaxEnumTerms) {
      st->known[stmt.base] = *result;
    } else {
      st->known.erase(stmt.base);
    }
    return status;
  }

  /// The computation Apply would run on a miss; nullopt when Apply
  /// would fail or not cache (Apply then reports that itself).
  std::optional<arbiter::OperatorResultCache::Value> Compute(
      const BeliefStore& store, const arbiter::ScriptStatement& stmt,
      const Formula& psi, const Formula& mu, int n,
      const std::vector<int64_t>& metric) {
    auto enumerate = [&]() -> std::optional<arbiter::OperatorResultCache::Value> {
      Scoped s(log_, kEnumOperator, request_);
      auto op = arbiter::MakeOperator(stmt.op_name, metric);
      if (!op.ok()) return std::nullopt;
      return arbiter::OperatorResultCache::Value{
          (*op)->Apply(arbiter::KnowledgeBase(psi, n),
                       arbiter::KnowledgeBase(mu, n))
              .formula(),
          ""};
    };
    if (store.backend_name() == "enum") return enumerate();
    Result<arbiter::BackendOperatorSpec> spec =
        arbiter::BackendOperatorFor(stmt.op_name, metric);
    if (!spec.ok() || n == 0) {
      if (n <= arbiter::kMaxEnumTerms) return enumerate();
      return std::nullopt;
    }
    const Formula backend_psi = spec->arbitration ? arbiter::Or(psi, mu) : psi;
    const Formula goal = spec->arbitration ? Formula::True() : mu;
    // The server's write copy starts with a fresh backend; so does
    // each replayed batch.
    if (backend_ == nullptr) {
      backend_ = *arbiter::MakeDistanceBackend(store.backend_name());
    }
    Result<arbiter::DistanceChangeResult> changed =
        Status::Internal("unset");
    {
      Scoped s(log_, kBackend, request_);
      s.Tag(static_cast<uint8_t>(spec->semantics.aggregator));
      changed = backend_->Change(spec->semantics, backend_psi, goal, n,
                                 kStoreMaxModels);
    }
    if (log_ != nullptr) {
      Scoped s(log_, kCountProbe, request_);
      Probe(spec->semantics.aggregator, backend_psi, goal, n);
    }
    if (!changed.ok() || changed->truncated || changed->models_omitted) {
      return std::nullopt;
    }
    return arbiter::OperatorResultCache::Value{changed->models.ToFormula(),
                                               changed->optimal};
  }

  void Probe(arbiter::DistanceAggregator aggregator, const Formula& psi,
             const Formula& mu, int n) {
    SolveCounts& c = out_->solve;
    switch (aggregator) {
      case arbiter::DistanceAggregator::kMin: {
        auto r = arbiter::solve::SatDalalRevise(psi, mu, n, kStoreMaxModels);
        ++c.min_calls;
        c.min_sat_calls += static_cast<uint64_t>(r.num_sat_calls);
        break;
      }
      case arbiter::DistanceAggregator::kMax: {
        auto r = arbiter::solve::CegarMaxFitting(psi, mu, n, kStoreMaxModels);
        ++c.max_calls;
        c.max_iterations += static_cast<uint64_t>(r.iterations);
        break;
      }
      case arbiter::DistanceAggregator::kSum: {
        auto r = arbiter::solve::SatSumFitting(psi, mu, n, kStoreMaxModels);
        ++c.sum_calls;
        c.sum_components += r.count_components;
        c.sum_cache_hits += r.count_cache_hits;
        break;
      }
      case arbiter::DistanceAggregator::kWeightedSum:
        break;
    }
  }

  Pass2* out_;
  uint64_t request_;
  SpanLog* log_;
  std::shared_ptr<arbiter::DistanceBackend> backend_;
};

Pass2 RunPass2(const Workload& workload, const Pass1& p1,
               size_t cache_capacity) {
  Pass2 out;
  std::map<std::string, std::vector<size_t>> by_store;
  for (size_t i = 0; i < p1.records.size(); ++i) {
    by_store[p1.records[i].store].push_back(i);
  }
  auto cache = std::make_shared<arbiter::OperatorResultCache>(cache_capacity);
  for (auto& [name, idx] : by_store) {
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      const P1Record& x = p1.records[a];
      const P1Record& y = p1.records[b];
      return std::tie(x.epoch, x.client, x.seq) <
             std::tie(y.epoch, y.client, y.seq);
    });
    StoreState state;
    state.store.SetResultCache(cache);
    uint64_t epoch = 0;
    size_t i = 0;
    while (i < idx.size()) {
      if (p1.records[idx[i]].epoch != epoch) {
        out.unverifiable += idx.size() - i;
        out.Problem("store " + name + ": no replayed batch committed epoch " +
                    std::to_string(epoch));
        break;
      }
      size_t j = i;
      while (j < idx.size() && p1.records[idx[j]].epoch == epoch) ++j;
      std::optional<StoreState> next;
      for (size_t k = i; k < j; ++k) {
        const P1Record& rec = p1.records[idx[k]];
        const int64_t t0 = NowNs();
        const Batch batch = rec.client == kSetupClient
                                ? workload.SetupBatches().at(rec.seq)
                                : workload.Next(rec.client, rec.seq);
        std::optional<StoreState> committed;
        Replayer replayer(&out, idx[k], rec.timed);
        const int32_t root = rec.timed
                                 ? static_cast<int32_t>(out.log.spans().size())
                                 : -1;
        std::vector<std::string> lines =
            RenderLines(replayer.Run(state, batch.lines, &committed));
        ++out.checked;
        if (lines != rec.outcomes) {
          ++out.mismatches;
          out.Problem("store " + name + " epoch " + std::to_string(epoch) +
                      " client " + std::to_string(rec.client) + " seq " +
                      std::to_string(rec.seq) + ": pass 2 differs from pass 1");
        }
        if (committed.has_value()) {
          if (next.has_value()) {
            ++out.mismatches;
            out.Problem("store " + name + ": two commits at epoch " +
                        std::to_string(epoch));
          }
          next = std::move(committed);
        }
        if (rec.timed) {
          out.traced_wall_us += static_cast<double>(NowNs() - t0) / 1000.0;
          if (rec.writes) {
            // The serial replay's own time: the batch minus the extra
            // solve calls made only for counts.
            const std::vector<Span>& spans = out.log.spans();
            double us = DurationUs(spans[static_cast<size_t>(root)]);
            for (size_t s = static_cast<size_t>(root); s < spans.size(); ++s) {
              if (spans[s].call == kCountProbe) us -= DurationUs(spans[s]);
            }
            out.batch_us[idx[k]] = us;
          }
        }
      }
      if (!next.has_value()) {
        if (j < idx.size()) {
          out.unverifiable += idx.size() - j;
          out.Problem("store " + name + ": nothing committed epoch " +
                      std::to_string(epoch));
        }
        break;
      }
      state = std::move(*next);
      ++epoch;
      i = j;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Reporting

std::vector<double> Durations(const std::vector<Span>& spans, Call call,
                              int tag = -1) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.call == call && (tag < 0 || s.tag == tag)) {
      out.push_back(DurationUs(s));
    }
  }
  return out;
}

double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Median(v);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Self time per layer: each span's duration minus its children's.
std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += DurationUs(s);
  }
  std::map<std::string, double> self;
  for (const char* layer : kLayers) self[layer] = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[kCallLayer[spans[i].call]] += DurationUs(spans[i]) - child_us[i];
  }
  return self;
}

void WriteSpans(const std::string& path, const Pass1& p1, const Pass2& p2) {
  std::ofstream out(path);
  out << "pass\trequest\tlayer\tcall\ttag\tstart_ns\tend_ns\tparent\n";
  auto dump = [&](int pass, const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      out << pass << '\t' << s.request << '\t' << kCallLayer[s.call] << '\t'
          << kCallName[s.call] << '\t' << int{s.tag} << '\t' << s.start_ns
          << '\t' << s.end_ns << '\t' << s.parent << '\n';
    }
  };
  for (const SpanLog& log : p1.logs) dump(1, log.spans());
  dump(2, p2.log.spans());
}

/// Client-observed latency of each timed batch, by (client, seq), over
/// a short untraced socket run (set-up included, as in the end-to-end
/// run).  Empty if the server could not be started.
std::map<std::pair<int, uint64_t>, double> SocketLatencies(
    const RunOptions& opt, const Workload& workload) {
  std::map<std::pair<int, uint64_t>, double> out;
  const std::string socket_path = opt.socket_dir + "/perfbench-trace-" +
                                  std::to_string(::getpid()) + ".sock";
  std::string error;
  std::unique_ptr<ServerProcess> srv =
      ServerProcess::Start(opt.server_binary, socket_path, &error);
  if (srv == nullptr) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return out;
  }
  {
    std::unique_ptr<Connection> conn = Connection::Open(socket_path, &error);
    const std::vector<Batch> setup = workload.SetupBatches();
    for (size_t i = 0; i < setup.size() && conn != nullptr; ++i) {
      uint64_t epoch = 0;
      std::vector<std::string> outcomes;
      conn->Call(RenderFrame("s" + std::to_string(i), setup[i]), &epoch,
                 &outcomes, &error);
    }
  }
  const int clients = workload.clients();
  std::vector<StreamRun> runs(static_cast<size_t>(clients));
  {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        runs[static_cast<size_t>(c)] =
            RunStream(socket_path, workload, c, start, stop, -1);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds * 0.15));
    stop = true;
    for (std::thread& t : threads) t.join();
  }
  for (const StreamRun& r : runs) {
    for (const Record& rec : r.records) {
      if (rec.replied) out[{rec.client, rec.seq}] = rec.latency_us;
    }
  }
  srv->Stop();
  return out;
}

}  // namespace

int RunTraced(const RunOptions& opt) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(opt.workload, opt.seed, opt.quick);

  const std::map<std::pair<int, uint64_t>, double> socket_us =
      SocketLatencies(opt, *workload);
  if (socket_us.empty()) return 1;

  // Pass 1 with spans on and off over the same batches.  Which one runs
  // first (and so sets the batch count) alternates with the seed, so
  // order effects cancel in the median over seeds.
  const double pass1_seconds = opt.seconds * 0.2;
  Pass1 p1, p1_off;
  if (opt.seed % 2 == 0) {
    p1 = RunPass1(*workload, pass1_seconds, true, {});
    p1_off = RunPass1(*workload, pass1_seconds, false, p1.timed_per_client);
  } else {
    p1_off = RunPass1(*workload, pass1_seconds, false, {});
    p1 = RunPass1(*workload, pass1_seconds, true, p1_off.timed_per_client);
  }

  const int64_t capacity = p1.stats_after.count("capacity") != 0
                               ? p1.stats_after.at("capacity")
                               : 1024;
  const int64_t t2 = NowNs();
  Pass2 p2 = RunPass2(*workload, p1, static_cast<size_t>(capacity));
  const double pass2_total_s = static_cast<double>(NowNs() - t2) / 1e9;

  // Pass-1 numbers, timed batches only.
  std::vector<Span> p1_spans;
  for (const SpanLog& log : p1.logs) {
    p1_spans.insert(p1_spans.end(), log.spans().begin(), log.spans().end());
  }
  std::vector<double> execute_us, writer_wait_us, transport_us;
  uint64_t attempted = 0, failed = 0;
  for (size_t i = 0; i < p1.records.size(); ++i) {
    const P1Record& r = p1.records[i];
    if (!r.timed) continue;
    ++attempted;
    bool err = false;
    for (const std::string& line : r.outcomes) err |= IsErrorOutcome(line);
    if (err) ++failed;
    execute_us.push_back(r.execute_us);
    if (auto it = socket_us.find({r.client, r.seq}); it != socket_us.end()) {
      transport_us.push_back(it->second - r.execute_us);
    }
    if (auto it = p2.batch_us.find(i); it != p2.batch_us.end()) {
      writer_wait_us.push_back(r.execute_us - it->second);
    }
  }
  auto stat = [](const std::map<std::string, int64_t>& m, const char* key) {
    auto it = m.find(key);
    return it == m.end() ? uint64_t{0} : static_cast<uint64_t>(it->second);
  };
  const uint64_t hits = stat(p1.stats_after, "hits") - stat(p1.stats_before, "hits");
  const uint64_t misses =
      stat(p1.stats_after, "misses") - stat(p1.stats_before, "misses");
  const uint64_t evictions =
      stat(p1.stats_after, "evictions") - stat(p1.stats_before, "evictions");

  const std::vector<Span>& s2 = p2.log.spans();
  std::vector<double> cache_us = Durations(s2, kCacheLookup);
  for (double d : Durations(s2, kCacheInsert)) cache_us.push_back(d);
  const std::map<std::string, double> self_us = SelfTimesUs(s2);
  double attributed_us = 0;
  for (const auto& [layer, us] : self_us) attributed_us += us;
  const double unattributed_us = p2.traced_wall_us - attributed_us;
  const SolveCounts& sc = p2.solve;
  const double overhead =
      p1_off.timed_wall_s > 0 ? p1.timed_wall_s / p1_off.timed_wall_s - 1 : 0;

  const bool correct = p2.mismatches == 0 && p2.unverifiable == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: pass 2 disagrees with pass 1\n%s",
                 p2.detail.c_str());
  }
  if (!opt.spans_out.empty()) WriteSpans(opt.spans_out, p1, p2);

  JsonObject samples;
  for (int c = 0; c < kNumCalls; ++c) {
    const std::vector<Span>& spans = c <= kReplyEncode ? p1_spans : s2;
    samples.Int(kCallName[c],
                static_cast<int64_t>(Durations(spans, static_cast<Call>(c)).size()));
  }
  samples.Int("transport_pairs", static_cast<int64_t>(transport_us.size()))
      .Int("writer_wait", static_cast<int64_t>(writer_wait_us.size()))
      .Int("history_depth", static_cast<int64_t>(p2.history_depth.size()));
  JsonObject self;
  for (const auto& [layer, us] : self_us) self.Num(layer, us / 1000.0);
  self.Num("unattributed", unattributed_us / 1000.0);
  JsonObject check;
  check.Int("pass2_batches", static_cast<int64_t>(p2.checked))
      .Int("mismatches", static_cast<int64_t>(p2.mismatches))
      .Int("unverifiable", static_cast<int64_t>(p2.unverifiable))
      .Int("unsplit_changes", static_cast<int64_t>(p2.unsplit_changes))
      .Int("apply_cache_misses", static_cast<int64_t>(p2.apply_cache_misses))
      .Num("pass1_on_s", p1.timed_wall_s)
      .Num("pass1_off_s", p1_off.timed_wall_s)
      .Num("pass2_total_s", pass2_total_s)
      .Str("problems", p2.detail);
  JsonObject detail;
  detail.Raw("context", ContextJson(opt, *workload, capacity))
      .Raw("samples", samples.str())
      .Raw("pass2_self_ms", self.str())
      .Raw("check", check.str());

  auto agg = [](arbiter::DistanceAggregator a) { return static_cast<int>(a); };
  PrintResult(
      detail.str(), correct, attempted, failed,
      {{"server.execute_us", MedianOr0(execute_us), "us"},
       {"server.transport_us", MedianOr0(transport_us), "us"},
       {"server.frame_decode_us", MedianOr0(Durations(p1_spans, kFrameDecode)), "us"},
       {"server.reply_encode_us", MedianOr0(Durations(p1_spans, kReplyEncode)), "us"},
       {"server.parse_us", MedianOr0(Durations(s2, kParse)), "us"},
       {"server.writer_wait_us", MedianOr0(writer_wait_us), "us"},
       {"store.snapshot_copy_us", MedianOr0(Durations(s2, kSnapshotCopy)), "us"},
       {"store.history_depth",
        p2.history_depth.empty()
            ? 0.0
            : std::accumulate(p2.history_depth.begin(), p2.history_depth.end(), 0.0) /
                  static_cast<double>(p2.history_depth.size()),
        "count"},
       {"store.apply_self_us", MedianOr0(Durations(s2, kApply)), "us"},
       {"store.query_us", MedianOr0(Durations(s2, kQuery)), "us"},
       {"logic.canonical_us", MedianOr0(Durations(s2, kCanonical)), "us"},
       {"logic.canonical_skip_ratio", Ratio(p2.canonical_skipped, p2.canonical_keys), "ratio"},
       {"logic.canonical_keys", static_cast<double>(p2.canonical_keys), "count"},
       {"logic.canonical_skipped", static_cast<double>(p2.canonical_skipped), "count"},
       {"change.cache_us", MedianOr0(cache_us), "us"},
       {"change.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
       {"change.cache_hits", static_cast<double>(hits), "count"},
       {"change.cache_lookups", static_cast<double>(hits + misses), "count"},
       {"change.cache_evictions", static_cast<double>(evictions), "count"},
       {"change.enum_operator_ms", MedianOr0(Durations(s2, kEnumOperator)) / 1000, "ms"},
       {"change.backend_ms", MedianOr0(Durations(s2, kBackend)) / 1000, "ms"},
       {"solve.min_ms",
        MedianOr0(Durations(s2, kBackend, agg(arbiter::DistanceAggregator::kMin))) / 1000, "ms"},
       {"solve.max_ms",
        MedianOr0(Durations(s2, kBackend, agg(arbiter::DistanceAggregator::kMax))) / 1000, "ms"},
       {"solve.sum_ms",
        MedianOr0(Durations(s2, kBackend, agg(arbiter::DistanceAggregator::kSum))) / 1000, "ms"},
       {"solve.min_calls", static_cast<double>(sc.min_calls), "count"},
       {"solve.min_sat_calls", Ratio(sc.min_sat_calls, sc.min_calls), "count"},
       {"solve.max_calls", static_cast<double>(sc.max_calls), "count"},
       {"solve.max_cegar_iterations", Ratio(sc.max_iterations, sc.max_calls), "count"},
       {"solve.sum_calls", static_cast<double>(sc.sum_calls), "count"},
       {"solve.sum_components", Ratio(sc.sum_components, sc.sum_calls), "count"},
       {"solve.sum_count_cache_hit_ratio",
        Ratio(sc.sum_cache_hits, sc.sum_cache_hits + sc.sum_components), "ratio"},
       {"solve.sum_count_cache_hits", static_cast<double>(sc.sum_cache_hits), "count"},
       {"solve.sum_count_lookups",
        static_cast<double>(sc.sum_cache_hits + sc.sum_components), "count"},
       {"trace.overhead_frac", overhead, "ratio"},
       {"trace.pass2_wall_ms", p2.traced_wall_us / 1000, "ms"},
       {"trace.unattributed_ms", unattributed_us / 1000, "ms"},
       {"server.self_ms", self_us.at("server") / 1000, "ms"},
       {"store.self_ms", self_us.at("store") / 1000, "ms"},
       {"logic.self_ms", self_us.at("logic") / 1000, "ms"},
       {"change.self_ms", self_us.at("change") / 1000, "ms"},
       {"trace.self_ms", self_us.at("trace") / 1000, "ms"}});
  return correct ? 0 : 1;
}

}  // namespace perfbench

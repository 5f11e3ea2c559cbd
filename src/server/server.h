#ifndef ARBITER_SERVER_SERVER_H_
#define ARBITER_SERVER_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "change/result_cache.h"
#include "store/belief_store.h"
#include "store/script.h"
#include "util/sync.h"

/// \file server.h
/// BeliefServer: many named BeliefStores behind a batch API, built for
/// concurrent sessions.
///
/// ## Epoch consistency model
///
/// Each hosted store is published as an immutable snapshot — a
/// `shared_ptr<const BeliefStore>` tagged with a monotonically
/// increasing epoch.  Read-only batches grab the current snapshot
/// pointer (a lock held only for the copy of one pointer) and run
/// every query against that frozen state; concurrent writers never
/// affect a read in flight.  Write batches serialize per store on a
/// writer mutex, deep-copy the current snapshot, apply their
/// statements to the copy, and — only if something actually changed —
/// publish it as epoch+1.  A failed statement leaves the copy exactly
/// as it was (the BeliefStore strong error guarantee), so a batch that
/// fails halfway still publishes a meaningful state; a batch in which
/// nothing committed publishes nothing.
///
/// Every BatchResult reports the epoch it observed, which makes the
/// model testable: replaying the same statements serially against the
/// same epoch's snapshot must reproduce the same outcomes bit for bit
/// (src/test_support/server_differential.h does exactly that under ThreadSanitizer).
///
/// ## Batching
///
/// A batch is N statements in the `.belief` statement language plus
/// server-only query forms (see ParseServerStatement).  The whole
/// batch is parsed up front, classified read-only vs. writing, and
/// runs against one snapshot/copy — one parse pass and one store setup
/// amortized over N statements, with one outcome per statement in
/// order.
///
/// ## Result cache
///
/// All hosted stores share one OperatorResultCache (canonical-form
/// keys, LRU).  Repeated traffic — the same revision against the same
/// base, modulo conjunct order / duplicate clauses / vocabulary
/// permutation — is served from the cache instead of the solver.

namespace arbiter::server {

/// Outcome of one statement in a batch.
struct StatementOutcome {
  enum class Kind {
    kOk,      ///< executed; no value to report
    kValue,   ///< executed; `text` is the value (query results, stats)
    kFailed,  ///< executed; an assertion did not hold (`text` explains)
    kError,   ///< rejected; `code`/`text` carry the structured error
  };
  Kind kind = Kind::kOk;
  std::string text;
  StatusCode code = StatusCode::kOk;
};

/// Renders an outcome as its protocol line:
/// `ok` | `val <text>` | `fail <text>` | `err <code> <text>`.
std::string RenderOutcome(const StatementOutcome& outcome);

/// Result of one executed batch.
struct BatchResult {
  /// Epoch of the snapshot the batch observed (writers: the epoch the
  /// copy was taken from; a commit publishes epoch+1).
  uint64_t epoch = 0;
  /// True iff the batch published a new epoch.
  bool committed = false;
  std::vector<StatementOutcome> outcomes;  ///< one per statement, in order
};

/// One parsed server statement: either a `.belief` script statement or
/// a server-only read form.
struct ServerStatement {
  enum class Kind {
    kScript,           ///< payload in `script`
    kQueryEntails,     ///< query <base> entails <formula>
    kQueryConsistent,  ///< query <base> consistent-with <formula>
    kQueryEquivalent,  ///< query <base> equivalent-to <formula>
    kQueryModels,      ///< query <base> models
    kQueryDist,        ///< query <base> dist <op> <formula>
    kStats,            ///< stats — cache counters
    kNoop,             ///< blank line or comment
  };
  Kind kind = Kind::kNoop;
  ScriptStatement script;  ///< kScript only
  std::string base;
  std::string op_name;     ///< kQueryDist only
  std::string formula;
};

/// Parses one statement line (server query forms first, then the
/// `.belief` script grammar).
Result<ServerStatement> ParseServerStatement(const std::string& line);

/// True iff executing the statement can change store state (including
/// conditionals whose guarded statement writes).
bool StatementMutates(const ServerStatement& statement);

class BeliefServer {
 public:
  struct Options {
    size_t cache_capacity = 1024;
  };

  BeliefServer() : BeliefServer(Options()) {}
  explicit BeliefServer(Options options);

  /// Executes `statements` against the named store (created empty on
  /// first use).  Thread-safe: read-only batches run lock-free against
  /// a snapshot; writing batches serialize per store.
  BatchResult ExecuteBatch(const std::string& store_name,
                           const std::vector<std::string>& statements);

  /// Shared operator-result cache counters.
  OperatorResultCache::Stats CacheStats() const;

  /// Names of all hosted stores, sorted.
  std::vector<std::string> StoreNames() const;

  /// Save() of the named store's current snapshot.
  Result<std::string> SaveStore(const std::string& store_name) const;

  /// Current epoch of the named store (0 if never used).
  uint64_t StoreEpoch(const std::string& store_name) const;

 private:
  /// One hosted store.  The capability split is the epoch model
  /// itself: `writer_mu` is the *right to produce the next epoch*
  /// (held across the whole copy-apply-publish cycle, guards no field
  /// directly), while `ptr_mu` guards the published snapshot/epoch
  /// pair and is only ever held for a pointer copy.  A writer
  /// therefore acquires writer_mu before ptr_mu — the
  /// ACQUIRED_BEFORE edge below and LockRank (kStoreWriter <
  /// kStorePtr) both pin that order.
  struct Hosted {
    /// Serializes writing batches.
    Mutex writer_mu ACQUIRED_BEFORE(ptr_mu){LockRank::kStoreWriter,
                                            "Hosted::writer_mu"};
    /// Guards the published snapshot/epoch pair.
    mutable Mutex ptr_mu{LockRank::kStorePtr, "Hosted::ptr_mu"};
    std::shared_ptr<const BeliefStore> snapshot GUARDED_BY(ptr_mu);
    uint64_t epoch GUARDED_BY(ptr_mu) = 0;
  };

  /// Returned Hosted pointers stay valid for the server's lifetime:
  /// stores_ maps to unique_ptr slots and entries are never erased, so
  /// callers may use a Hosted (through its own mutexes) after
  /// stores_mu_ is released.
  Hosted* GetOrCreate(const std::string& name);
  const Hosted* FindHosted(const std::string& name) const;

  mutable Mutex stores_mu_{LockRank::kStores, "BeliefServer::stores_mu_"};
  std::map<std::string, std::unique_ptr<Hosted>> stores_
      GUARDED_BY(stores_mu_);
  /// Set in the constructor, immutable afterwards; the cache itself is
  /// internally synchronized (its own kResultCache-ranked mutex).
  std::shared_ptr<OperatorResultCache> cache_;
};

/// Executes already-parsed statement lines against a store.  This is
/// the single statement engine: the live server and the serial replay
/// used by the differential test both call it, so their outcomes can
/// be compared bit for bit.
///
/// `write` may be null for read-only execution (mutating statements
/// then report kUnsupported); `server` supplies `stats` counters and
/// may be null (then `stats` reports kUnsupported).  `*mutated` is set
/// if any statement changed `*write`.
std::vector<StatementOutcome> ExecuteStatements(
    const BeliefStore& snapshot, BeliefStore* write,
    const std::vector<std::string>& lines, const BeliefServer* server,
    bool* mutated);

/// Serial-replay helper: copies `snapshot`, runs `lines` against the
/// copy with the same engine as ExecuteBatch, and (optionally) returns
/// the resulting state.  `committed` mirrors the live server's rule:
/// true iff some statement mutated the copy.
BatchResult ReplayBatch(const BeliefStore& snapshot,
                        const std::vector<std::string>& lines,
                        BeliefStore* final_state = nullptr);

}  // namespace arbiter::server

#endif  // ARBITER_SERVER_SERVER_H_

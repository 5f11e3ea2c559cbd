#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/server.h"
#include "workload.h"

/// \file replay.h
/// The correctness check behind every end-to-end run: each recorded
/// reply is reproduced by a serial replay of the same batches, in epoch
/// order per store, through server::ReplayBatch (writes) and
/// server::ExecuteStatements (reads) — the rule src/server/differential.h
/// applies in-process.

namespace perfbench {

/// Client id of the serial set-up batches (their seq indexes
/// Workload::SetupBatches()).
inline constexpr int kSetupClient = -1;

/// One batch as the client saw it.  The statements are not kept: they
/// are regenerated from (client, seq).
struct Record {
  int client = 0;
  uint64_t seq = 0;
  std::string store;
  uint64_t epoch = 0;
  uint64_t outcome_hash = 0;  ///< HashOutcomes of the reply lines
  double latency_us = 0;
  double done_s = 0;  ///< reply time, seconds after the timed phase began
  bool writes = false;
  bool timed = false;    ///< sent in the timed phase
  bool replied = false;  ///< a REPLY frame arrived
  bool failed = false;   ///< err outcome, ERR frame, lost or no reply
};

/// Regenerates a recorded batch.
Batch BatchFor(const Workload& workload, const Record& record);

struct ReplayReport {
  uint64_t checked = 0;     ///< batches reproduced
  uint64_t mismatches = 0;  ///< replies the replay disagrees with
  uint64_t unverifiable = 0;  ///< batches that could not be replayed
  std::string detail;       ///< first few problems
  double seconds = 0;

  bool ok() const { return mismatches == 0 && unverifiable == 0; }
};

/// Replays every record that got a reply, without a result cache;
/// stores are independent, so up to `threads` stores replay at once.
ReplayReport ReplayCheck(const Workload& workload,
                         const std::vector<Record>& records, int threads);

/// Rendered, flattened outcome lines, exactly as the server sends them.
std::vector<std::string> RenderLines(
    const std::vector<arbiter::server::StatementOutcome>& outcomes);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_

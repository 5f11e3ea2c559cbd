#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "replay.h"
#include "workload.h"

/// \file driver.h
/// Pieces shared by the end-to-end run (driver.cc) and the traced run
/// (traced.cc).

namespace perfbench {

struct RunOptions {
  std::string mode = "e2e";  ///< e2e | trace | stream
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool quick = false;
  std::string server_binary;
  std::string socket_dir = ".";
  std::string commit = "unknown";
  std::string spans_out;       ///< traced run: where spans are written
  int64_t corrupt_seq = -1;    ///< self-test: corrupt this timed reply
  uint64_t stream_count = 50;  ///< stream mode: batches per client
};

/// The context block every result carries: what was measured, on what
/// build, and whether it may be compared with other runs.
std::string ContextJson(const RunOptions& options, const Workload& workload,
                        int64_t cache_capacity);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the detail line (context, sample counts, checks) and then,
/// as the last line, the result object the benchmark contract fixes.
void PrintResult(const std::string& detail_json, bool correct,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

using Clock = std::chrono::steady_clock;

/// Closed-loop client: sends `client`'s batches from seq 0 over one
/// connection, each only after the previous reply arrived, and sends no
/// batch once `stop` is set.  One Record per batch attempted, timed
/// from `start`; a lost connection is reopened before the next batch.
struct StreamRun {
  std::vector<Record> records;
  double last_completion_s = 0;  ///< seconds after `start`
};
StreamRun RunStream(const std::string& socket_path, const Workload& workload,
                    int client, Clock::time_point start,
                    const std::atomic<bool>& stop, int64_t corrupt_seq);

/// Cache counters parsed from the `stats` verb ("hits=... misses=...").
std::map<std::string, int64_t> ParseStats(const std::string& text);

/// True iff an outcome line reports a failure (`err ...`).
bool IsErrorOutcome(const std::string& line);

/// Traced run (traced.cc).
int RunTraced(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_

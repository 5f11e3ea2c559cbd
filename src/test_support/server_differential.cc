#include "test_support/server_differential.h"

#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include "server/server.h"
#include "store/belief_store.h"
#include "util/random.h"
#include "util/sync.h"

namespace arbiter::server {

namespace {

const char* const kAtoms[] = {"a", "b", "c", "d", "e"};
const char* const kBases[] = {"k0", "k1", "k2"};
const char* const kOps[] = {"dalal", "revesz-max", "arbitration-max",
                            "winslett"};

std::string RandomFormula(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBool(0.4)) {
    std::string atom = kAtoms[rng->NextBelow(std::size(kAtoms))];
    return rng->NextBool(0.3) ? "!" + atom : atom;
  }
  const char* op = rng->NextBool(0.5) ? " & " : (rng->NextBool(0.5) ? " | "
                                                                    : " -> ");
  return "(" + RandomFormula(rng, depth - 1) + op +
         RandomFormula(rng, depth - 1) + ")";
}

std::string RandomWriteLine(Rng* rng) {
  const std::string base = kBases[rng->NextBelow(std::size(kBases))];
  switch (rng->NextBelow(8)) {
    case 0:
    case 1:
      return "define " + base + " := " + RandomFormula(rng, 2);
    case 2:
    case 3:
    case 4:
      return "change " + base + " by " +
             kOps[rng->NextBelow(std::size(kOps))] + " with " +
             RandomFormula(rng, 2);
    case 5:
      return "undo " + base;
    case 6:
      return "if " + base + " entails " + RandomFormula(rng, 1) +
             " then change " + base + " by dalal with " +
             RandomFormula(rng, 1);
    default:
      // Deliberately broken lines exercise the per-statement error
      // path without aborting the batch.
      return rng->NextBool(0.5) ? "change " + base + " by"
                                : "define " + base + " := ((a &";
  }
}

std::string RandomReadLine(Rng* rng) {
  const std::string base = kBases[rng->NextBelow(std::size(kBases))];
  switch (rng->NextBelow(6)) {
    case 0:
      return "assert " + base + " entails " + RandomFormula(rng, 2);
    case 1:
      return "query " + base + " entails " + RandomFormula(rng, 2);
    case 2:
      return "query " + base + " consistent-with " + RandomFormula(rng, 2);
    case 3:
      return "query " + base + " models";
    case 4:
      return "query " + base + " dist dalal " + RandomFormula(rng, 2);
    default:
      return "query " + base + " equivalent-to " + RandomFormula(rng, 2);
  }
}

struct BatchRecord {
  std::string store;
  std::vector<std::string> lines;
  uint64_t epoch = 0;
  bool committed = false;
  std::vector<std::string> outcomes;
};

std::vector<std::string> RenderAll(const BatchResult& result) {
  std::vector<std::string> out;
  out.reserve(result.outcomes.size());
  for (const StatementOutcome& outcome : result.outcomes) {
    out.push_back(RenderOutcome(outcome));
  }
  return out;
}

class Mismatches {
 public:
  void Add(const std::string& what) {
    ++count_;
    if (count_ <= 5) {
      detail_ += what;
      detail_ += '\n';
    }
  }
  int count() const { return count_; }
  const std::string& detail() const { return detail_; }

 private:
  int count_ = 0;
  std::string detail_;
};

void CompareOutcomes(const BatchRecord& record,
                     const std::vector<std::string>& replayed,
                     Mismatches* mismatches) {
  if (record.outcomes == replayed) return;
  std::string what = "store " + record.store + " epoch " +
                     std::to_string(record.epoch) + ": outcome divergence";
  for (size_t i = 0; i < record.lines.size(); ++i) {
    const std::string& live =
        i < record.outcomes.size() ? record.outcomes[i] : "<missing>";
    const std::string& serial = i < replayed.size() ? replayed[i]
                                                    : "<missing>";
    if (live != serial) {
      what += "\n  stmt: " + record.lines[i] + "\n  live:   " + live +
              "\n  serial: " + serial;
    }
  }
  mismatches->Add(what);
}

}  // namespace

ServerFuzzReport RunServerInterleavingFuzz(const ServerFuzzOptions& options) {
  BeliefServer live;
  // kLeaf: acquired only after ExecuteBatch returns, with nothing
  // held.  The worker threads below run batches with LockRank active
  // (when enabled), so every recorded interleaving also validates the
  // full acquisition order — the tsan CI job builds with
  // -DARBITER_LOCK_RANK=ON to get both checks in one run.
  Mutex record_mu{LockRank::kLeaf, "RunServerInterleavingFuzz::record_mu"};
  std::vector<BatchRecord> records;

  auto run_worker = [&](uint64_t seed, bool writer, int batches) {
    Rng rng(seed);
    for (int b = 0; b < batches; ++b) {
      BatchRecord record;
      record.store =
          "s" + std::to_string(rng.NextBelow(
                    static_cast<uint64_t>(options.stores < 1
                                              ? 1
                                              : options.stores)));
      for (int i = 0; i < options.statements_per_batch; ++i) {
        record.lines.push_back(writer ? RandomWriteLine(&rng)
                                      : RandomReadLine(&rng));
      }
      BatchResult result = live.ExecuteBatch(record.store, record.lines);
      record.epoch = result.epoch;
      record.committed = result.committed;
      record.outcomes = RenderAll(result);
      MutexLock lock(&record_mu);
      records.push_back(std::move(record));
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < options.writers; ++w) {
    threads.emplace_back(run_worker, options.seed * 7919 + w * 2 + 1, true,
                         options.batches_per_writer);
  }
  for (int r = 0; r < options.readers; ++r) {
    threads.emplace_back(run_worker, options.seed * 104729 + r * 2 + 2,
                         false, options.batches_per_reader);
  }
  for (std::thread& t : threads) t.join();

  ServerFuzzReport report;
  report.batches = static_cast<int>(records.size());
  Mismatches mismatches;

  // Serial replay, one store at a time.
  std::map<std::string, std::vector<const BatchRecord*>> by_store;
  for (const BatchRecord& record : records) {
    by_store[record.store].push_back(&record);
  }
  for (const auto& [store_name, store_records] : by_store) {
    // Committed batches must occupy distinct, contiguous epochs: each
    // ran under the store's writer lock, copied epoch e, and published
    // e+1.
    std::map<uint64_t, const BatchRecord*> commits;
    for (const BatchRecord* record : store_records) {
      if (!record->committed) continue;
      if (!commits.emplace(record->epoch, record).second) {
        mismatches.Add("store " + store_name + ": two commits observed epoch " +
                       std::to_string(record->epoch));
      }
    }

    std::map<uint64_t, std::string> saves;
    saves[0] = BeliefStore().Save();
    uint64_t epoch = 0;
    while (commits.count(epoch) != 0) {
      const BatchRecord* record = commits[epoch];
      Result<BeliefStore> snapshot = BeliefStore::Load(saves[epoch]);
      if (!snapshot.ok()) {
        mismatches.Add("store " + store_name + ": epoch " +
                       std::to_string(epoch) +
                       " snapshot failed to load: " +
                       snapshot.status().ToString());
        break;
      }
      BeliefStore final_state;
      BatchResult replayed =
          ReplayBatch(*snapshot, record->lines, &final_state);
      CompareOutcomes(*record, RenderAll(replayed), &mismatches);
      if (!replayed.committed) {
        mismatches.Add("store " + store_name + ": epoch " +
                       std::to_string(epoch) +
                       " committed live but not serially");
      }
      saves[epoch + 1] = final_state.Save();
      ++epoch;
    }
    if (!commits.empty() && commits.rbegin()->first >= epoch) {
      mismatches.Add("store " + store_name +
                     ": commit epochs are not contiguous (gap before " +
                     std::to_string(commits.rbegin()->first) + ")");
    }

    // The live server's final state must match the last serial state.
    Result<std::string> live_save = live.SaveStore(store_name);
    if (!live_save.ok()) {
      mismatches.Add("store " + store_name +
                     ": SaveStore failed: " + live_save.status().ToString());
    } else if (*live_save != saves[epoch]) {
      mismatches.Add("store " + store_name +
                     ": final state diverges from serial replay");
    }

    // Non-committing batches (reads and failed writes) replay against
    // the snapshot of the epoch they observed.
    for (const BatchRecord* record : store_records) {
      if (record->committed) continue;
      auto it = saves.find(record->epoch);
      if (it == saves.end()) {
        mismatches.Add("store " + store_name + ": batch observed epoch " +
                       std::to_string(record->epoch) +
                       " but replay produced no such snapshot");
        continue;
      }
      Result<BeliefStore> snapshot = BeliefStore::Load(it->second);
      if (!snapshot.ok()) {
        mismatches.Add("store " + store_name + ": epoch " +
                       std::to_string(record->epoch) +
                       " snapshot failed to load: " +
                       snapshot.status().ToString());
        continue;
      }
      BatchResult replayed = ReplayBatch(*snapshot, record->lines);
      CompareOutcomes(*record, RenderAll(replayed), &mismatches);
      if (replayed.committed) {
        mismatches.Add("store " + store_name +
                       ": batch committed serially but not live");
      }
    }
  }

  report.mismatches = mismatches.count();
  report.detail = mismatches.detail();
  return report;
}

}  // namespace arbiter::server

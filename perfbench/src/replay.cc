#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "server/frame.h"
#include "store/belief_store.h"
#include "wire.h"

namespace perfbench {

namespace server = arbiter::server;

namespace {

constexpr int kMaxDetailLines = 5;

struct StoreReport {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t unverifiable = 0;
  std::vector<std::string> problems;

  void Problem(std::string what) {
    if (problems.size() < kMaxDetailLines) problems.push_back(std::move(what));
  }
};

std::string Describe(const Record& r) {
  return "store " + r.store + " epoch " + std::to_string(r.epoch) +
         " client " + std::to_string(r.client) + " seq " +
         std::to_string(r.seq);
}

/// Replays one store's records in epoch order.  At each epoch every
/// batch that observed it runs against the same state; the one write
/// that commits (the server's writer lock allows exactly one per
/// epoch) produces the next state.
///
/// The replay runs without a result cache, so a clean pass also shows
/// that the server's cache changed no answer.  A batch that got no
/// reply is not replayed: a read changed nothing, and a write that
/// committed anyway leaves an epoch no replayed batch commits, which
/// makes the rest of the store unverifiable.
void ReplayStore(const Workload& workload,
                 const std::vector<const Record*>& recs, StoreReport* out) {
  arbiter::BeliefStore state;
  uint64_t epoch = 0;
  size_t i = 0;
  while (i < recs.size()) {
    if (recs[i]->epoch != epoch) {
      out->unverifiable += recs.size() - i;
      out->Problem(Describe(*recs[i]) + ": no replayed batch committed epoch " +
                   std::to_string(epoch));
      return;
    }
    size_t j = i;
    while (j < recs.size() && recs[j]->epoch == epoch) ++j;
    std::optional<arbiter::BeliefStore> next;
    for (size_t k = i; k < j; ++k) {
      const Record& r = *recs[k];
      const Batch batch = BatchFor(workload, r);
      std::vector<std::string> lines;
      if (batch.writes) {
        arbiter::BeliefStore final_state;
        server::BatchResult result =
            server::ReplayBatch(state, batch.lines, &final_state);
        lines = RenderLines(result.outcomes);
        if (result.committed) {
          if (next.has_value()) {
            ++out->mismatches;
            out->Problem(Describe(r) + ": a second batch committed this epoch");
          }
          next = std::move(final_state);
        }
      } else {
        bool mutated = false;
        lines = RenderLines(server::ExecuteStatements(
            state, nullptr, batch.lines, nullptr, &mutated));
      }
      ++out->checked;
      if (HashOutcomes(lines) != r.outcome_hash) {
        ++out->mismatches;
        std::string what = Describe(r) + ": reply differs from serial replay";
        for (size_t s = 0; s < batch.lines.size() && s < 3; ++s) {
          what += "\n    " + batch.lines[s] + "  =>  " +
                  (s < lines.size() ? lines[s] : "<none>");
        }
        out->Problem(what);
      }
    }
    if (!next.has_value()) {
      if (j < recs.size()) {
        out->unverifiable += recs.size() - j;
        out->Problem(Describe(*recs[j]) + ": no replayed batch committed epoch " +
                     std::to_string(epoch));
      }
      return;
    }
    state = std::move(*next);
    ++epoch;
    i = j;
  }
}

}  // namespace

Batch BatchFor(const Workload& workload, const Record& record) {
  if (record.client == kSetupClient) {
    return workload.SetupBatches().at(record.seq);
  }
  return workload.Next(record.client, record.seq);
}

std::vector<std::string> RenderLines(
    const std::vector<server::StatementOutcome>& outcomes) {
  std::vector<std::string> lines;
  lines.reserve(outcomes.size());
  for (const server::StatementOutcome& o : outcomes) {
    lines.push_back(server::FlattenLine(server::RenderOutcome(o)));
  }
  return lines;
}

ReplayReport ReplayCheck(const Workload& workload,
                         const std::vector<Record>& records, int threads) {
  const auto start = std::chrono::steady_clock::now();
  std::map<std::string, std::vector<const Record*>> by_store;
  for (const Record& r : records) {
    if (r.replied) by_store[r.store].push_back(&r);
  }
  std::vector<std::vector<const Record*>*> jobs;
  for (auto& [name, recs] : by_store) {
    std::sort(recs.begin(), recs.end(), [](const Record* a, const Record* b) {
      return std::tie(a->epoch, a->client, a->seq) <
             std::tie(b->epoch, b->client, b->seq);
    });
    jobs.push_back(&recs);
  }
  // Heaviest stores first, so one long store does not start last.
  std::stable_sort(jobs.begin(), jobs.end(), [](const auto* a, const auto* b) {
    return a->size() > b->size();
  });

  std::atomic<size_t> next{0};
  std::mutex mu;
  ReplayReport report;
  auto worker = [&] {
    for (size_t i = next++; i < jobs.size(); i = next++) {
      StoreReport store_report;
      ReplayStore(workload, *jobs[i], &store_report);
      std::lock_guard<std::mutex> lock(mu);
      report.checked += store_report.checked;
      report.mismatches += store_report.mismatches;
      report.unverifiable += store_report.unverifiable;
      for (const std::string& p : store_report.problems) {
        if (report.detail.size() < 4096) report.detail += p + "\n";
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return report;
}

}  // namespace perfbench

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file workload.h
/// Deterministic request streams for the belief_serve benchmark.
///
/// Every batch is a pure function of (seed, client, seq): the driver
/// can regenerate any batch for the serial replay instead of keeping
/// the statement text of a whole run in memory, and two runs with the
/// same seed send byte-identical frames.  The generators use their own
/// PRNG (SplitMix64) so a change to the program's utilities cannot
/// change the inputs it is measured on.

namespace perfbench {

struct Batch {
  std::string store;
  std::vector<std::string> lines;
  /// True iff some statement mutates the store (a "write" batch for
  /// the latency split; the server classifies it the same way).
  bool writes = false;
};

/// SplitMix64: tiny, fast, and fully specified here.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  bool Chance(double p) { return (Next() >> 11) * 0x1.0p-53 < p; }

 private:
  uint64_t state_;
};

/// Mixes the parts of a batch identity into one seed.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c, uint64_t d);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual int clients() const = 0;

  /// Batches sent serially on one connection before any client starts:
  /// store declarations, initial bases and any cache warm-up.
  virtual std::vector<Batch> SetupBatches() const = 0;

  /// The seq-th batch of `client`'s stream.
  virtual Batch Next(int client, uint64_t seq) const = 0;
};

/// "hot_repeat", "cold_solve" or "iterated_writes"; nullptr otherwise.
/// `quick` shrinks sizes so the self-test runs in seconds.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool quick);

std::vector<std::string> WorkloadNames();

/// The request frame the client sends for `batch`.
std::string RenderFrame(const std::string& id, const Batch& batch);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

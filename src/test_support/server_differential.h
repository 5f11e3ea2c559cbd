#ifndef ARBITER_TEST_SUPPORT_SERVER_DIFFERENTIAL_H_
#define ARBITER_TEST_SUPPORT_SERVER_DIFFERENTIAL_H_

#include <cstdint>
#include <string>

/// \file server_differential.h
/// Concurrent-session differential harness: the executable form of the
/// server's epoch consistency model.
///
/// Phase 1 (concurrent): N writer and M reader threads fire randomized
/// batches at shared named stores through a live BeliefServer,
/// recording for every batch the statements sent, the epoch observed,
/// whether it committed, and the rendered outcomes.
///
/// Phase 2 (serial replay): per store, the committed write batches are
/// ordered by observed epoch — the single-writer lock makes that order
/// total and contiguous — and replayed one by one through the shared
/// statement engine, snapshotting Save() at every epoch.  Every
/// recorded batch (committed writes, failed writes, and reads alike)
/// must then reproduce its outcomes bit for bit against the snapshot
/// of the epoch it observed, and the live server's final state must
/// equal the last serial snapshot.
///
/// The replay runs without the server's result cache, so a pass also
/// certifies that the cache changed no answer.  Run the fixed-seed
/// smoke under ThreadSanitizer (the tsan CI job does) and data races
/// get caught in the same net.

namespace arbiter::server {

struct ServerFuzzOptions {
  uint64_t seed = 1;
  int writers = 2;
  int readers = 2;
  int stores = 2;
  int batches_per_writer = 6;
  int batches_per_reader = 6;
  int statements_per_batch = 4;
};

struct ServerFuzzReport {
  int batches = 0;     ///< concurrent batches executed
  int mismatches = 0;  ///< divergences between live and serial replay
  std::string detail;  ///< first few mismatch descriptions

  bool ok() const { return mismatches == 0; }
};

/// Runs one concurrent-vs-serial differential case.
ServerFuzzReport RunServerInterleavingFuzz(const ServerFuzzOptions& options);

}  // namespace arbiter::server

#endif  // ARBITER_TEST_SUPPORT_SERVER_DIFFERENTIAL_H_

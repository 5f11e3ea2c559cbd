// Concurrent-session differential tests: randomized writer/reader
// threads against a live BeliefServer, then a serial replay that must
// reproduce every batch's outcomes bit for bit against the epoch it
// observed (src/test_support/server_differential.h).  The tsan CI job
// builds this binary under ThreadSanitizer, so the same net catches
// data races.

#include "test_support/server_differential.h"

#include <gtest/gtest.h>

namespace arbiter::server {
namespace {

TEST(ServerConcurrencyTest, FixedSeedSmoke) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    ServerFuzzOptions options;
    options.seed = seed;
    ServerFuzzReport report = RunServerInterleavingFuzz(options);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.detail;
    EXPECT_GT(report.batches, 0);
  }
}

TEST(ServerConcurrencyTest, WriterHeavyInterleaving) {
  ServerFuzzOptions options;
  options.seed = 11;
  options.writers = 4;
  options.readers = 1;
  options.stores = 1;  // all writers contend on one store
  options.batches_per_writer = 8;
  ServerFuzzReport report = RunServerInterleavingFuzz(options);
  EXPECT_TRUE(report.ok()) << report.detail;
}

TEST(ServerConcurrencyTest, ReaderHeavyInterleaving) {
  ServerFuzzOptions options;
  options.seed = 23;
  options.writers = 1;
  options.readers = 6;
  options.batches_per_reader = 8;
  ServerFuzzReport report = RunServerInterleavingFuzz(options);
  EXPECT_TRUE(report.ok()) << report.detail;
}

}  // namespace
}  // namespace arbiter::server

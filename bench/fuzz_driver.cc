// Standalone differential fuzz driver: the long-running counterpart of
// tests/differential_fuzz_test.cc.  Runs N randomized cases through the
// cross-implementation checks in src/test_support/differential.cc and
// exits nonzero on any divergence, printing each one with its case
// seed so it can be replayed.
//
//   fuzz_driver [--cases N] [--seed S] [--min-terms N] [--max-terms N]
//               [--large-terms N] [--no-store] [--no-kernels]
//               [--server-cases N] [--proof-cases N]
//
// --server-cases additionally runs N concurrent-session interleaving
// cases through the belief server's differential harness
// (src/test_support/server_differential.h): randomized writer/reader
// threads, then a serial replay that must reproduce every batch bit for
// bit.
//
// --proof-cases additionally runs N random CNF instances through both
// solving pipelines with DRAT recording on
// (src/test_support/proof_fuzz.h): every UNSAT verdict must come back
// with a refutation the independent checker accepts, and every SAT
// model must satisfy the instance.
//
// CI runs a small fixed-seed tier (see bench/CMakeLists.txt); nightly
// or manual runs can push --cases into the millions.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "test_support/differential.h"
#include "test_support/server_differential.h"
#include "test_support/proof_fuzz.h"

namespace {

uint64_t ParseU64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "fuzz_driver: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return static_cast<uint64_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  arbiter::test_support::DifferentialOptions options;
  int server_cases = 0;
  int proof_cases = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz_driver: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--cases") {
      options.num_cases = static_cast<int>(ParseU64(next(), "--cases"));
    } else if (arg == "--seed") {
      options.seed = ParseU64(next(), "--seed");
    } else if (arg == "--min-terms") {
      options.min_terms = static_cast<int>(ParseU64(next(), "--min-terms"));
    } else if (arg == "--max-terms") {
      options.max_terms = static_cast<int>(ParseU64(next(), "--max-terms"));
    } else if (arg == "--large-terms") {
      options.large_terms =
          static_cast<int>(ParseU64(next(), "--large-terms"));
    } else if (arg == "--no-store") {
      options.check_store = false;
    } else if (arg == "--no-kernels") {
      options.check_kernels = false;
    } else if (arg == "--server-cases") {
      server_cases = static_cast<int>(ParseU64(next(), "--server-cases"));
    } else if (arg == "--proof-cases") {
      proof_cases = static_cast<int>(ParseU64(next(), "--proof-cases"));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fuzz_driver [--cases N] [--seed S] [--min-terms N] "
          "[--max-terms N] [--large-terms N] [--no-store] [--no-kernels] "
          "[--server-cases N] [--proof-cases N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "fuzz_driver: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  const arbiter::test_support::DifferentialReport report =
      arbiter::test_support::RunDifferentialFuzz(options);
  std::printf("fuzz_driver: %s (seed 0x%llx)\n", report.Summary().c_str(),
              static_cast<unsigned long long>(options.seed));
  if (!report.ok()) {
    for (const auto& d : report.divergences) {
      std::fprintf(stderr, "DIVERGENCE %s\n", d.ToString().c_str());
    }
    return 1;
  }

  for (int c = 0; c < server_cases; ++c) {
    arbiter::server::ServerFuzzOptions server_options;
    server_options.seed = options.seed + static_cast<uint64_t>(c);
    const arbiter::server::ServerFuzzReport server_report =
        arbiter::server::RunServerInterleavingFuzz(server_options);
    if (!server_report.ok()) {
      std::fprintf(stderr,
                   "SERVER DIVERGENCE case %d (seed 0x%llx), %d mismatched "
                   "batches:\n%s\n",
                   c,
                   static_cast<unsigned long long>(server_options.seed),
                   server_report.mismatches, server_report.detail.c_str());
      return 1;
    }
  }
  if (server_cases > 0) {
    std::printf("fuzz_driver: %d server interleaving cases, 0 mismatches\n",
                server_cases);
  }

  if (proof_cases > 0) {
    arbiter::test_support::ProofFuzzOptions proof_options;
    proof_options.seed = options.seed;
    proof_options.cases = proof_cases;
    proof_options.stop_on_failure = false;
    const arbiter::test_support::ProofFuzzResult proof_report =
        arbiter::test_support::RunProofFuzz(proof_options);
    std::printf(
        "fuzz_driver: %d proof cases (%d unsat certified, %d sat), "
        "%d failures\n",
        proof_report.cases_run, proof_report.unsat_cases,
        proof_report.sat_cases, proof_report.failures);
    if (proof_report.failures > 0) {
      std::fprintf(stderr, "PROOF FAILURE %s\n",
                   proof_report.first_failure.c_str());
      return 1;
    }
  }
  return 0;
}

// perfbench_driver — the belief_serve benchmark.
//
//   perfbench_driver --server <belief_serve> --workload <name> --seed <n>
//                    --seconds <s> [--mode e2e|trace|stream] [--quick]
//
// e2e     spawns belief_serve on an AF_UNIX socket, runs set-up (any
//         cache warm-up included) several times, drives the timed
//         closed loop, then checks every reply against a serial replay.
// trace   the traced run (traced.cc): in-process, per-layer spans.
// stream  prints the request frames of the first --count batches of
//         every client (determinism self-test).
//
// The last line of stdout is the result object; the line before it
// carries the context block and sample counts.  run.py builds this
// binary and is the usual entry point.

#include "driver.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#include "report.h"
#include "util/sync.h"
#include "wire.h"

namespace perfbench {

namespace {

/// Stores replayed at once: the server has exited by then, so the
/// replay may use every core of the machine the bounds were set on.
constexpr int kReplayThreads = 4;

/// Set-ups per run (one in quick mode); setup_s is their median.
constexpr int kSetups = 7;

/// The p99 latencies are the median of the p99s of consecutive blocks
/// of this many batches, in completion order: ten samples lie beyond
/// each block's p99.
constexpr size_t kTailBlock = 1000;

/// Hypervisor steal is sampled over windows of the timed phase.  A
/// window in which the hypervisor took more than kMaxStealShare of the
/// machine's CPU time measured the host, not the program, so it is left
/// out, and the timed phase runs on until `seconds` of unstolen windows
/// are measured, but for no longer than kMaxStretch x `seconds` (the
/// program cannot cause steal: its own stalls stay in).  When fewer
/// than a quarter of `seconds` are unstolen by then, every window
/// counts.
constexpr double kWindowS = 0.5;
constexpr double kMaxStealShare = 0.02;
constexpr double kMaxStretch = 1.5;

/// Episodes of steal last from seconds to minutes.  So the timed phase
/// starts only after kQuietWindows unstolen windows in a row, or after
/// kMaxQuietWaitS seconds of waiting for them.
constexpr int kQuietWindows = 2;
constexpr double kMaxQuietWaitS = 10;

const char* SanitizerName() {
#if defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#else
  return PERFBENCH_SANITIZE;
#endif
}

/// Executes the statements of a batch on `conn` and fills `rec`.
bool Exchange(Connection* conn, const std::string& id, const Batch& batch,
              Record* rec, bool corrupt) {
  uint64_t epoch = 0;
  std::vector<std::string> outcomes;
  std::string error;
  const Clock::time_point t0 = Clock::now();
  const Connection::Reply reply =
      conn->Call(RenderFrame(id, batch), &epoch, &outcomes, &error);
  rec->latency_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  if (reply != Connection::Reply::kOk) {
    rec->failed = true;
    return false;
  }
  if (corrupt && !outcomes.empty()) outcomes[0] += " [corrupted]";
  rec->replied = true;
  rec->epoch = epoch;
  rec->outcome_hash = HashOutcomes(outcomes);
  for (const std::string& line : outcomes) {
    if (IsErrorOutcome(line)) rec->failed = true;
  }
  return true;
}

/// Machine-wide CPU ticks from /proc/stat: {stolen, all}; zeros where
/// there is no /proc/stat.
std::pair<double, double> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double all = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    all += v;
    if (field == 7) steal = v;
  }
  return {steal, all};
}

/// True iff the hypervisor took at most kMaxStealShare of the machine's
/// CPU time between two CpuTicks() readings.
bool Unstolen(const std::pair<double, double>& from,
              const std::pair<double, double>& to) {
  const double all = to.second - from.second;
  return all <= 0 || (to.first - from.first) / all <= kMaxStealShare;
}

/// Waits until kQuietWindows windows in a row were unstolen, for at
/// most `max_s` seconds; returns the seconds waited.
double WaitForQuiet(double max_s) {
  const Clock::time_point start = Clock::now();
  std::pair<double, double> ticks = CpuTicks();
  int quiet = 0;
  double waited = 0;
  while (quiet < kQuietWindows && waited < max_s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kWindowS));
    const std::pair<double, double> now = CpuTicks();
    quiet = Unstolen(ticks, now) ? quiet + 1 : 0;
    ticks = now;
    waited = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return waited;
}

std::map<std::string, int64_t> QueryStats(const std::string& socket_path) {
  std::string error;
  std::unique_ptr<Connection> conn = Connection::Open(socket_path, &error);
  if (conn == nullptr) return {};
  uint64_t epoch = 0;
  std::vector<std::string> outcomes;
  Batch stats{"__perfbench_stats", {"stats"}, false};
  if (conn->Call(RenderFrame("stats", stats), &epoch, &outcomes, &error) !=
          Connection::Reply::kOk ||
      outcomes.size() != 1) {
    return {};
  }
  return ParseStats(outcomes[0]);
}

int RunEndToEnd(const RunOptions& opt) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(opt.workload, opt.seed, opt.quick);
  const std::string socket_path = opt.socket_dir + "/perfbench-" +
                                  std::to_string(::getpid()) + ".sock";
  const std::vector<Batch> setup = workload->SetupBatches();
  const int clients = workload->clients();

  // Set-up, repeated: each repetition spawns a fresh server and sends
  // the set-up batches (stores, bases, any warm-up).  The last server
  // is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::vector<Record> records;
  const int setups = opt.quick ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    if (server != nullptr) server->Stop();
    records.clear();
    const Clock::time_point t0 = Clock::now();
    std::string error;
    server = ServerProcess::Start(opt.server_binary, socket_path, &error);
    if (server == nullptr) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    std::unique_ptr<Connection> conn = Connection::Open(socket_path, &error);
    if (conn == nullptr) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    for (size_t i = 0; i < setup.size(); ++i) {
      Record rec{kSetupClient, i, setup[i].store};
      rec.writes = setup[i].writes;
      Exchange(conn.get(), "s" + std::to_string(i), setup[i], &rec, false);
      records.push_back(std::move(rec));
    }
    conn.reset();
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    for (const Record& r : records) {
      if (r.failed) {
        std::fprintf(stderr,
                     "perfbench: set-up batch failed (client %d seq %llu)\n",
                     r.client, static_cast<unsigned long long>(r.seq));
        return 1;
      }
    }
  }

  const std::map<std::string, int64_t> before = QueryStats(socket_path);

  const double quiet_wait_s = WaitForQuiet(opt.quick ? 0 : kMaxQuietWaitS);

  // Timed phase: every client in a closed loop, while this thread
  // samples steal per window.
  std::vector<StreamRun> runs(static_cast<size_t>(clients));
  std::vector<bool> unstolen;  // per window
  double unstolen_s = 0;
  const std::pair<double, double> ticks_first = CpuTicks();
  std::pair<double, double> ticks = ticks_first;
  {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        runs[static_cast<size_t>(c)] =
            RunStream(socket_path, *workload, c, start, stop,
                      c == 0 ? opt.corrupt_seq : -1);
      });
    }
    do {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          kWindowS * static_cast<double>(unstolen.size() + 1))));
      const std::pair<double, double> now = CpuTicks();
      unstolen.push_back(Unstolen(ticks, now));
      if (unstolen.back()) unstolen_s += kWindowS;
      ticks = now;
    } while (unstolen_s < opt.seconds &&
             kWindowS * static_cast<double>(unstolen.size() + 1) <=
                 kMaxStretch * opt.seconds);
    stop = true;
    for (std::thread& t : threads) t.join();
  }
  const double all_ticks = ticks.second - ticks_first.second;
  const double steal_frac =
      all_ticks > 0 ? (ticks.first - ticks_first.first) / all_ticks : 0;
  const double monitored_s = kWindowS * static_cast<double>(unstolen.size());
  const bool steal_filtered = unstolen_s >= opt.seconds / 4;
  const double measured_s = steal_filtered ? unstolen_s : monitored_s;
  auto counted = [&](double t) {
    const size_t w = static_cast<size_t>(std::max(0.0, t) / kWindowS);
    return w < unstolen.size() && (unstolen[w] || !steal_filtered);
  };
  double wall_s = 0;
  for (StreamRun& run : runs) {
    wall_s = std::max(wall_s, run.last_completion_s);
    records.insert(records.end(), run.records.begin(), run.records.end());
  }

  const std::map<std::string, int64_t> after = QueryStats(socket_path);
  const double rss_mb = server->PeakRssMiB();
  const bool clean_exit = server->Stop();
  server.reset();

  auto stat = [](const std::map<std::string, int64_t>& m, const char* key) {
    auto it = m.find(key);
    return it == m.end() ? int64_t{0} : it->second;
  };
  const int64_t capacity = stat(after, "capacity");
  const ReplayReport replay = ReplayCheck(*workload, records, kReplayThreads);

  // Failures count over the whole timed phase; throughput counts the
  // replies that arrived in counted windows, and the latencies those
  // batches that lay wholly inside them.
  uint64_t attempted = 0, failed = 0, completed = 0, counted_replies = 0;
  std::vector<std::pair<double, double>> timed_reads, timed_writes;  // done, ms
  for (const Record& r : records) {
    if (!r.timed) continue;
    ++attempted;
    if (r.failed) ++failed;
    if (!r.replied) continue;
    ++completed;
    if (!counted(r.done_s)) continue;
    ++counted_replies;
    bool inside = true;
    for (double t = r.done_s - r.latency_us / 1e6; t < r.done_s && inside;
         t += kWindowS) {
      inside = counted(t);
    }
    if (inside) {
      (r.writes ? timed_writes : timed_reads)
          .emplace_back(r.done_s, r.latency_us / 1000.0);
    }
  }
  auto in_completion_order = [](std::vector<std::pair<double, double>> v) {
    std::sort(v.begin(), v.end());
    std::vector<double> out;
    for (const auto& [done, ms] : v) out.push_back(ms);
    return out;
  };
  const std::vector<double> reads = in_completion_order(timed_reads);
  const std::vector<double> writes = in_completion_order(timed_writes);
  const int64_t hits = stat(after, "hits") - stat(before, "hits");
  const int64_t misses = stat(after, "misses") - stat(before, "misses");

  // Completions in each second of the timed phase, for telling a stall
  // of the machine from one of the program.
  std::vector<int64_t> per_second(static_cast<size_t>(std::ceil(wall_s)), 0);
  for (const Record& r : records) {
    if (r.timed && r.replied && r.done_s < wall_s) {
      ++per_second[static_cast<size_t>(r.done_s)];
    }
  }
  std::string timeline = "[";
  for (size_t i = 0; i < per_second.size(); ++i) {
    timeline += (i > 0 ? ", " : "") + std::to_string(per_second[i]);
  }
  timeline += "]";
  JsonObject samples;
  samples.Int("timed_batches", static_cast<int64_t>(attempted))
      .Int("completed", static_cast<int64_t>(completed))
      .Int("read_batches", static_cast<int64_t>(reads.size()))
      .Int("write_batches", static_cast<int64_t>(writes.size()))
      .Int("setups", static_cast<int64_t>(setup_s.size()))
      .Num("wall_s", wall_s)
      .Num("quiet_wait_s", quiet_wait_s)
      .Num("machine_steal_frac", steal_frac)
      .Num("unstolen_s", unstolen_s)
      .Int("stolen_windows",
           static_cast<int64_t>(std::count(unstolen.begin(), unstolen.end(), false)))
      .Bool("steal_filtered", steal_filtered)
      .Num("measured_s", measured_s)
      .Num("whole_run_rps", static_cast<double>(completed) / wall_s)
      .Num("whole_run_read_p99_ms", Percentile(reads, 0.99))
      .Num("whole_run_write_p99_ms", Percentile(writes, 0.99))
      .Raw("completed_per_second", timeline);
  JsonObject cache;
  cache.Int("hits", hits)
      .Int("misses", misses)
      .Int("evictions", stat(after, "evictions") - stat(before, "evictions"))
      .Int("skipped", stat(after, "skipped") - stat(before, "skipped"))
      .Num("hit_ratio", hits + misses > 0
                            ? static_cast<double>(hits) /
                                  static_cast<double>(hits + misses)
                            : 0.0);
  JsonObject check;
  check.Int("replayed", static_cast<int64_t>(replay.checked))
      .Int("mismatches", static_cast<int64_t>(replay.mismatches))
      .Int("unverifiable", static_cast<int64_t>(replay.unverifiable))
      .Num("replay_s", replay.seconds)
      .Bool("server_clean_exit", clean_exit)
      .Str("problems", replay.detail);
  JsonObject detail;
  detail.Raw("context", ContextJson(opt, *workload, capacity))
      .Raw("samples", samples.str())
      .Raw("timed_cache", cache.str())
      .Raw("check", check.str());
  if (!replay.ok()) {
    std::fprintf(stderr, "perfbench: replay check FAILED\n%s",
                 replay.detail.c_str());
  }

  const double total = static_cast<double>(attempted);
  PrintResult(detail.str(), replay.ok(), attempted, failed,
              {{"setup_s", Median(setup_s), "s"},
               {"throughput_rps", static_cast<double>(counted_replies) / measured_s,
                "batches/s"},
               {"read_p50_ms", Percentile(reads, 0.50), "ms"},
               {"read_p99_ms", BlockMedianPercentile(reads, 0.99, kTailBlock), "ms"},
               {"write_p50_ms", Percentile(writes, 0.50), "ms"},
               {"write_p99_ms", BlockMedianPercentile(writes, 0.99, kTailBlock), "ms"},
               {"success_frac", total > 0 ? (total - static_cast<double>(failed)) / total : 0.0,
                "ratio"},
               {"server_rss_mb", rss_mb, "MiB"}});
  return replay.ok() ? 0 : 1;
}

int RunStreamDump(const RunOptions& opt) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(opt.workload, opt.seed, opt.quick);
  std::string out;
  const std::vector<Batch> setup = workload->SetupBatches();
  for (size_t i = 0; i < setup.size(); ++i) {
    out += RenderFrame("s" + std::to_string(i), setup[i]);
  }
  for (int c = 0; c < workload->clients(); ++c) {
    for (uint64_t seq = 0; seq < opt.stream_count; ++seq) {
      out += RenderFrame("c" + std::to_string(c) + "." + std::to_string(seq),
                         workload->Next(c, seq));
    }
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --server <belief_serve> --workload "
               "<name> [--seed n] [--seconds s] [--mode e2e|trace|stream] "
               "[--quick] [--socket-dir d] [--commit c] "
               "[--spans-out f] [--corrupt-seq k] [--count n]\n");
  return 2;
}

}  // namespace

bool IsErrorOutcome(const std::string& line) { return line.rfind("err ", 0) == 0; }

std::map<std::string, int64_t> ParseStats(const std::string& text) {
  std::map<std::string, int64_t> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(' ', pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = std::atoll(token.c_str() + eq + 1);
    }
    pos = end + 1;
  }
  return out;
}

StreamRun RunStream(const std::string& socket_path, const Workload& workload,
                    int client, Clock::time_point start,
                    const std::atomic<bool>& stop, int64_t corrupt_seq) {
  StreamRun run;
  std::string error;
  std::unique_ptr<Connection> conn = Connection::Open(socket_path, &error);
  for (uint64_t seq = 0; !stop.load(); ++seq) {
    const Batch batch = workload.Next(client, seq);
    Record rec{client, seq, batch.store};
    rec.writes = batch.writes;
    rec.timed = true;
    if (conn == nullptr) conn = Connection::Open(socket_path, &error);
    if (conn == nullptr) {
      rec.failed = true;
      run.records.push_back(std::move(rec));
      break;  // the server is gone; nothing more can complete
    }
    const bool corrupt = static_cast<int64_t>(seq) == corrupt_seq;
    if (!Exchange(conn.get(), std::to_string(seq), batch, &rec, corrupt)) {
      conn.reset();
    }
    run.last_completion_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    rec.done_s = run.last_completion_s;
    run.records.push_back(std::move(rec));
  }
  return run;
}

std::string ContextJson(const RunOptions& options, const Workload& workload,
                        int64_t cache_capacity) {
  const char* threads_env = std::getenv("ARBITER_THREADS");
  const std::string sanitizer = SanitizerName();
  const bool comparable = !arbiter::kLockRankEnabled && sanitizer.empty();
  JsonObject clients;
  for (const std::string& name : WorkloadNames()) {
    clients.Int(name, MakeWorkload(name, options.seed, options.quick)->clients());
  }
  JsonObject context;
  context.Str("workload", workload.name())
      .Str("mode", options.mode)
      .Int("seed", static_cast<int64_t>(options.seed))
      .Num("seconds", options.seconds)
      .Bool("quick", options.quick)
      .Str("commit", options.commit)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Bool("lock_rank_enabled", arbiter::kLockRankEnabled)
      .Str("sanitizer", sanitizer)
      .Raw("arbiter_threads",
           threads_env != nullptr ? JsonQuote(threads_env) : "null")
      .Int("cache_capacity", cache_capacity)
      .Int("clients", workload.clients())
      .Raw("clients_per_workload", clients.str())
      .Bool("comparable", comparable);
  if (!comparable) {
    context.Str("not_comparable_because",
                sanitizer.empty() ? "LockRank is compiled in"
                                  : "built with a sanitizer");
  }
  return context.str();
}

void PrintResult(const std::string& detail_json, bool correct,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  JsonObject values;
  for (const Metric& m : metrics) {
    values.Raw(m.name,
               JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", static_cast<int64_t>(attempted))
      .Int("failed", static_cast<int64_t>(failed))
      .Raw("metrics", values.str());
  std::printf("%s\n%s\n", detail_json.c_str(), result.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--mode") {
      opt.mode = value();
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--server") {
      opt.server_binary = value();
    } else if (arg == "--socket-dir") {
      opt.socket_dir = value();
    } else if (arg == "--commit") {
      opt.commit = value();
    } else if (arg == "--spans-out") {
      opt.spans_out = value();
    } else if (arg == "--corrupt-seq") {
      opt.corrupt_seq = std::atoll(value().c_str());
    } else if (arg == "--count") {
      opt.stream_count = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--quick") {
      opt.quick = true;
    } else {
      return perfbench::Usage();
    }
  }
  if (perfbench::MakeWorkload(opt.workload, opt.seed, opt.quick) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return perfbench::Usage();
  }
  if (opt.mode == "stream") return perfbench::RunStreamDump(opt);
  if (opt.server_binary.empty() || !(opt.seconds > 0)) return perfbench::Usage();
  if (opt.mode == "e2e") return perfbench::RunEndToEnd(opt);
  if (opt.mode == "trace") return perfbench::RunTraced(opt);
  return perfbench::Usage();
}

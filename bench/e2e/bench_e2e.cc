// End-to-end benchmark of the FileSystem client through the whole stack:
// Master namespace locks and fsync'd segmented journal, MOOP placement,
// the streaming write pipeline, and disk-backed block stores, on the
// paper's 9-worker cluster in one process.
//
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//             --out DIR --work DIR [--git-sha SHA]
//
// One run: set the workload up at least three times (the median is
// setup_s; the last set-up is kept), start 3 closed-loop client threads and 1
// control-loop thread, warm up, then measure for S seconds. With --trace 0
// the window is untraced and gives the end-to-end metrics. With --trace 1
// the first half is an untraced reference and the second half replays
// every op through TracedClient, giving the per-layer split and the
// tracing overhead. Afterwards the cluster is destroyed, a fresh Master
// recovers the namespace from the metadata directory, and it must equal
// every file the clients saw acknowledged.
//
// The last line of stdout is {"correct","attempted","failed","metrics"};
// the full result (host facts, sample counts, every metric) goes to
// DIR/<workload>-seed<N>-trace<T>.json and the spans to
// DIR/<workload>-seed<N>.trace.json. Exits 1 on a wrong byte, a lost
// acknowledged file or a control-plane error.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/tiering_engine.h"
#include "trace.h"
#include "traced_client.h"
#include "workload.h"

namespace octo::e2e {
namespace {

// Set-up repeats at least kMinSetupReps times and until kMinSetupSeconds
// have been spent, so even a few-millisecond set-up yields a steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 50;
constexpr double kMinSetupSeconds = 1.0;
constexpr int64_t kHeartbeatPeriodNs = 100'000'000;
constexpr int64_t kMonitorPeriodNs = 1'000'000'000;
constexpr int64_t kTieringPeriodNs = 1'000'000'000;
constexpr int64_t kCheckpointPeriodNs = 5'000'000'000;
constexpr size_t kTraceSpansWrittenPerThread = 20'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// -- command line -------------------------------------------------------------

struct Options {
  Workload workload = Workload::kDfsioWrite;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string out_dir;
  std::string work_dir;
  std::string git_sha = "unknown";
};

bool ParseOptions(int argc, char** argv, Options* opts) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      auto w = ParseWorkload(value);
      if (!w.ok()) {
        std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
        return false;
      }
      opts->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts->trace = value == "1";
    } else if (key == "--out") {
      opts->out_dir = value;
    } else if (key == "--work") {
      opts->work_dir = value;
    } else if (key == "--git-sha") {
      opts->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || !have_workload || opts->seconds <= 0 ||
      opts->out_dir.empty() || opts->work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload W --seed N --seconds S "
                 "--trace 0|1 --out DIR --work DIR [--git-sha SHA]\n");
    return false;
  }
  return true;
}

// -- process and host facts ---------------------------------------------------

struct ProcCounters {
  int64_t rchar = 0;
  int64_t wchar = 0;
  double cpu_s = 0;
};

ProcCounters ReadProcCounters() {
  ProcCounters c;
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "rchar:") c.rchar = value;
    if (key == "wchar:") c.wchar = value;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const timeval& user = usage.ru_utime;
  const timeval& sys = usage.ru_stime;
  c.cpu_s = static_cast<double>(user.tv_sec + sys.tv_sec) +
            static_cast<double>(user.tv_usec + sys.tv_usec) / 1e6;
  return c;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

std::string KernelRelease() {
  utsname u{};
  return uname(&u) == 0 ? u.release : "unknown";
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

// -- JSON ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

// -- the run ------------------------------------------------------------------

struct OpRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t bytes = 0;
  OpKind kind = OpKind::kStat;
  bool ok = false;
};

struct ClientState {
  std::vector<OpRecord> records;
  Tally tally;
  int64_t wrong_reads = 0;
  int64_t blocks_read = 0;         // traced reads only
  int64_t memory_blocks_read = 0;  // of which served by a memory replica
};

/// A timed control-plane event: when it ended, how long it took, and what
/// it did (commands executed, or promotions and bytes promoted).
struct ControlEvent {
  int64_t end_ns = 0;
  double ms = 0;
  int64_t count = 0;
  int64_t bytes = 0;
};

struct ControlLog {
  std::vector<ControlEvent> heartbeats, monitors, ticks, checkpoints;
  int64_t errors = 0;
};

void RunControlLoop(Cluster* cluster, TieringEngine* engine,
                    const std::atomic<bool>* stop, ControlLog* log) {
  Master* master = cluster->master();
  const int64_t start = NowNs();
  int64_t next_hb = start;
  int64_t next_monitor = start + kMonitorPeriodNs;
  int64_t next_tick = start + kTieringPeriodNs;
  int64_t next_checkpoint = start + kCheckpointPeriodNs;
  auto timed = [log](SpanName name, std::vector<ControlEvent>* events,
                     auto&& body) {
    ControlEvent event;
    const int64_t t0 = NowNs();
    {
      ScopedOp scope(name, 0);
      Status st = body(&event);
      if (!st.ok()) {
        ++log->errors;
        std::fprintf(stderr, "%s failed: %s\n", SpanNameString(name),
                     st.ToString().c_str());
      }
    }
    event.end_ns = NowNs();
    event.ms = static_cast<double>(event.end_ns - t0) / 1e6;
    events->push_back(event);
  };
  while (!stop->load(std::memory_order_relaxed)) {
    int64_t now = NowNs();
    if (now >= next_hb) {
      timed(SpanName::kControlHeartbeatRound, &log->heartbeats,
            [&](ControlEvent* e) {
              Result<int> executed = cluster->PumpHeartbeats();
              if (executed.ok()) e->count = *executed;
              return executed.status();
            });
      next_hb = std::max(next_hb + kHeartbeatPeriodNs, now);
    }
    if (now >= next_monitor) {
      timed(SpanName::kControlMonitorRound, &log->monitors,
            [&](ControlEvent*) {
              master->RunReplicationMonitor();
              return Status::OK();
            });
      next_monitor = std::max(next_monitor + kMonitorPeriodNs, now);
    }
    if (engine != nullptr && now >= next_tick) {
      timed(SpanName::kTieringTick, &log->ticks, [&](ControlEvent* e) {
        Result<TieringTickReport> report = engine->Tick();
        if (report.ok()) {
          e->count = report->promotions;
          e->bytes = report->bytes_promoted;
        }
        return report.status();
      });
      next_tick = std::max(next_tick + kTieringPeriodNs, now);
    }
    if (engine != nullptr && now >= next_checkpoint) {
      timed(SpanName::kCheckpoint, &log->checkpoints, [&](ControlEvent*) {
        return master->WriteCheckpoint().status();
      });
      next_checkpoint = std::max(next_checkpoint + kCheckpointPeriodNs, now);
    }
    int64_t wake = std::min(next_hb, next_monitor);
    if (engine != nullptr) {
      wake = std::min({wake, next_tick, next_checkpoint});
    }
    SleepUntil(wake);
  }
}

void RunClient(Cluster* cluster, const Params& params, int client,
               bool traceable, const std::atomic<bool>* stop,
               ClientState* state) {
  OpStream stream(params, client);
  const NetworkLocation where = ClientLocation(params, client, false);
  FsClient fs(cluster, where);
  std::unique_ptr<TracedClient> traced;
  if (traceable) traced = std::make_unique<TracedClient>(cluster, where);
  std::string content;
  std::string read_out;
  const int64_t op_base = static_cast<int64_t>(client + 1) << 40;
  for (int64_t n = 0; !stop->load(std::memory_order_relaxed); ++n) {
    Op op = stream.Next();
    if (op.kind == OpKind::kWrite) {
      FillContent(params.seed, op.path, op.bytes, &content);
    }
    OpRecord record;
    record.kind = op.kind;
    record.start_ns = NowNs();
    Status st;
    {
      ScopedOp scope(RootSpan(op.kind), op_base + n);
      Client* c = &fs;
      if (scope.recording() && traced != nullptr) c = traced.get();
      st = ExecuteOp(c, op, params, content, &read_out);
    }
    record.end_ns = NowNs();
    record.ok = st.ok();
    if (!st.ok()) {
      std::fprintf(stderr, "op on %s failed: %s\n", op.path.c_str(),
                   st.ToString().c_str());
    } else if (op.kind == OpKind::kWrite) {
      record.bytes = op.bytes;
    } else if (op.kind == OpKind::kRead) {
      record.bytes = static_cast<int64_t>(read_out.size());
      if (!ContentMatches(params.seed, op.path, read_out)) {
        ++state->wrong_reads;
        std::fprintf(stderr, "wrong bytes read from %s\n", op.path.c_str());
      }
    }
    state->tally.Apply(op, record.ok);
    state->records.push_back(record);
  }
  if (traced != nullptr) {
    state->blocks_read = traced->blocks_read();
    state->memory_blocks_read = traced->memory_blocks_read();
  }
}

/// Runs every client's share of setup on its own thread.
int64_t RunSetup(Cluster* cluster, const Params& params,
                 std::vector<ClientState>* states) {
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      FsClient client(cluster, ClientLocation(params, c, /*setup=*/true));
      std::string content;
      std::string unused;
      for (const Op& op : OpStream(params, c).SetupOps()) {
        if (op.kind == OpKind::kWrite) {
          FillContent(params.seed, op.path, op.bytes, &content);
        }
        Status st = ExecuteOp(&client, op, params, content, &unused);
        if (!st.ok()) {
          failed.fetch_add(1);
          std::fprintf(stderr, "setup op on %s failed: %s\n", op.path.c_str(),
                       st.ToString().c_str());
        }
        (*states)[static_cast<size_t>(c)].tally.Apply(op, st.ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return failed.load();
}

struct Snapshot {
  int64_t t_ns = 0;
  int64_t journal_records = 0;
  int64_t journal_syncs = 0;
  RepairStats repair;
  ProcCounters proc;
};

Snapshot TakeSnapshot(Master* master) {
  Snapshot s;
  s.t_ns = NowNs();
  s.journal_records = master->edit_log()->size();
  s.journal_syncs = master->edit_log()->sync_count();
  s.repair = master->repair_stats();
  s.proc = ReadProcCounters();
  return s;
}

/// Client operations completed in [from, to).
struct WindowOps {
  std::vector<const OpRecord*> ops;
  int64_t failed = 0;
};

WindowOps OpsIn(const std::vector<ClientState>& states, int64_t from,
                int64_t to) {
  WindowOps w;
  for (const ClientState& s : states) {
    for (const OpRecord& r : s.records) {
      if (r.end_ns < from || r.end_ns >= to) continue;
      w.ops.push_back(&r);
      if (!r.ok) ++w.failed;
    }
  }
  return w;
}

std::vector<double> LatenciesMs(const WindowOps& w, bool (*keep)(OpKind)) {
  std::vector<double> out;
  for (const OpRecord* r : w.ops) {
    if (r->ok && keep(r->kind)) {
      out.push_back(static_cast<double>(r->end_ns - r->start_ns) / 1e6);
    }
  }
  return out;
}

bool AnyOp(OpKind) { return true; }
bool WriteOp(OpKind k) { return k == OpKind::kWrite; }
bool ReadOp(OpKind k) { return k == OpKind::kRead; }
bool MetaOp(OpKind k) { return k != OpKind::kWrite && k != OpKind::kRead; }

int64_t OkBytes(const WindowOps& w, bool (*keep)(OpKind)) {
  int64_t total = 0;
  for (const OpRecord* r : w.ops) {
    if (r->ok && keep(r->kind)) total += r->bytes;
  }
  return total;
}

int64_t OkCount(const WindowOps& w) {
  return static_cast<int64_t>(w.ops.size()) - w.failed;
}

struct EventStats {
  double mean_ms = 0;
  int64_t n = 0;
  int64_t count = 0;
  int64_t bytes = 0;
};

EventStats EventsIn(const std::vector<ControlEvent>& events, int64_t from,
                    int64_t to) {
  EventStats s;
  double total = 0;
  for (const ControlEvent& e : events) {
    if (e.end_ns < from || e.end_ns >= to) continue;
    ++s.n;
    total += e.ms;
    s.count += e.count;
    s.bytes += e.bytes;
  }
  s.mean_ms = s.n > 0 ? total / static_cast<double>(s.n) : 0;
  return s;
}

/// Bytes the journal wrote for records [from, to): each record is framed
/// as "<len>\t<crc32c hex8>\t<payload>\n".
int64_t JournalBytes(EditLog* log, int64_t from, int64_t to) {
  std::vector<std::string> records;
  const int64_t first = log->ReadEntries(from, &records);
  int64_t bytes = 0;
  for (int64_t txid = first; txid < to; ++txid) {
    const size_t i = static_cast<size_t>(txid - first);
    if (i >= records.size()) break;
    bytes += static_cast<int64_t>(records[i].size() +
                                  std::to_string(records[i].size()).size() +
                                  11);
  }
  return bytes;
}

/// Recovers a fresh Master from `metadata_dir` and checks that its files
/// are exactly `expected`, paths in `uncertain` left out on both sides.
bool RecoveredMatches(const std::string& metadata_dir, uint64_t seed,
                      std::map<std::string, int64_t> expected,
                      const std::set<std::string>& uncertain) {
  MasterOptions options;
  options.metadata_dir = metadata_dir;
  options.seed = seed;
  Master recovered(options, SystemClock::Default());
  const Status recovery = recovered.RecoverFromLocalStorage();
  std::map<std::string, int64_t> found;
  for (const auto& [path, length] : ListNamespace(recovered)) {
    if (length >= 0) found[path] = length;
  }
  for (const std::string& path : uncertain) {
    expected.erase(path);
    found.erase(path);
  }
  if (recovery.ok() && found == expected) return true;
  std::fprintf(stderr, "recovery: %s; %zu files expected, %zu recovered\n",
               recovery.ToString().c_str(), expected.size(), found.size());
  for (const auto& [path, length] : expected) {
    auto it = found.find(path);
    if (it == found.end() || it->second != length) {
      std::fprintf(stderr, "  acked %s (%lld bytes) not recovered intact\n",
                   path.c_str(), static_cast<long long>(length));
      break;
    }
  }
  return false;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) return 2;
  const Params params = BenchParams(opts.workload, opts.seed);
  const std::string name = WorkloadName(opts.workload);
  const bool tiered = opts.workload == Workload::kMixedTiered;
  // The tiering engine needs a few ticks to promote the hot set.
  const double warmup_s = tiered ? 3.0 : 1.0;
  const std::string root = opts.work_dir + "/" + name + "-" +
                           std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opts.out_dir.c_str());
    return 2;
  }
  // Removes the cluster's files however the run ends.
  struct WorkDirGuard {
    std::string dir;
    ~WorkDirGuard() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } guard{root};

  // -- setup, repeated; the last one is kept ----------------------------------
  std::vector<double> setup_times;
  double setup_total_s = 0;
  std::unique_ptr<Cluster> cluster;
  std::vector<ClientState> states;
  std::string cluster_dir;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || setup_total_s < kMinSetupSeconds);
       ++rep) {
    if (cluster != nullptr) {
      cluster.reset();
      std::filesystem::remove_all(cluster_dir, ec);
    }
    cluster_dir = root + "/setup" + std::to_string(rep);
    states.assign(static_cast<size_t>(kClients), ClientState{});
    const int64_t t0 = NowNs();
    auto created = MakeCluster(cluster_dir, params);
    if (!created.ok()) {
      std::fprintf(stderr, "cluster: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    cluster = std::move(created).value();
    if (opts.trace) InstallTimedPolicies(cluster->master());
    const int64_t setup_failed = RunSetup(cluster.get(), params, &states);
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total_s += setup_times.back();
    if (setup_failed > 0) {
      std::fprintf(stderr, "%lld setup ops failed\n",
                   static_cast<long long>(setup_failed));
      return 1;
    }
  }
  for (ClientState& s : states) s.records.reserve(size_t{1} << 20);
  Master* master = cluster->master();

  // -- warm-up and measurement ------------------------------------------------
  std::unique_ptr<TieringEngine> engine;
  if (tiered) {
    TieringOptions tiering;
    tiering.levels = {TierLevel{kMemoryTier, 0.25, 3.0}};
    engine = std::make_unique<TieringEngine>(master, tiering);
  }
  std::atomic<bool> stop{false};
  ControlLog control;
  std::thread control_thread(RunControlLoop, cluster.get(), engine.get(),
                             &stop, &control);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, cluster.get(), std::cref(params), c,
                         opts.trace, &stop, &states[static_cast<size_t>(c)]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const Snapshot start = TakeSnapshot(master);
  Snapshot mid = start;
  if (opts.trace) {
    SleepUntil(start.t_ns + static_cast<int64_t>(opts.seconds / 2 * 1e9));
    mid = TakeSnapshot(master);
    SetTracing(true);
  }
  SleepUntil(start.t_ns + static_cast<int64_t>(opts.seconds * 1e9));
  SetTracing(false);
  const Snapshot end = TakeSnapshot(master);
  stop.store(true);
  for (std::thread& t : clients) t.join();
  control_thread.join();
  engine.reset();
  const double peak_rss_mb = PeakRssMb();

  // -- outputs checked: acked files survive recovery --------------------------
  std::map<std::string, int64_t> expected;
  std::set<std::string> uncertain;
  int64_t wrong_reads = 0;
  for (const ClientState& s : states) {
    expected.insert(s.tally.files.begin(), s.tally.files.end());
    uncertain.insert(s.tally.uncertain.begin(), s.tally.uncertain.end());
    wrong_reads += s.wrong_reads;
  }
  int64_t live_bytes = 0;
  for (const auto& [path, length] : expected) live_bytes += length;
  const int64_t stored_bytes = DirectoryBytes(cluster_dir + "/blocks");
  const int64_t journal_bytes = JournalBytes(
      master->edit_log(), mid.journal_records, end.journal_records);
  cluster.reset();
  const bool verify_ok = RecoveredMatches(cluster_dir + "/meta", params.seed,
                                          expected, uncertain);
  const bool correct = verify_ok && wrong_reads == 0 && control.errors == 0;

  // -- metrics ----------------------------------------------------------------
  const int64_t window_start = start.t_ns;
  const int64_t measure_start = opts.trace ? mid.t_ns : start.t_ns;
  const WindowOps window = OpsIn(states, window_start, end.t_ns);
  const WindowOps measured = OpsIn(states, measure_start, end.t_ns);
  const double measured_s =
      static_cast<double>(end.t_ns - measure_start) / 1e9;
  const double setup_s = Percentile(setup_times, 0.5);

  Metrics gate;      // BENCHMARK.json's: end-to-end untraced, layers traced
  Metrics detail;    // every metric this run measured
  std::map<std::string, int64_t> samples;
  auto add = [](Metrics* m, const std::string& n, double v, const char* u) {
    m->push_back(Metric{n, v, u});
  };

  const std::vector<double> all_ms = LatenciesMs(measured, AnyOp);
  const std::vector<double> write_ms = LatenciesMs(measured, WriteOp);
  const std::vector<double> read_ms = LatenciesMs(measured, ReadOp);
  const std::vector<double> meta_ms = LatenciesMs(measured, MetaOp);
  samples["op"] = static_cast<int64_t>(all_ms.size());
  samples["write_file"] = static_cast<int64_t>(write_ms.size());
  samples["read_file"] = static_cast<int64_t>(read_ms.size());
  samples["meta_op"] = static_cast<int64_t>(meta_ms.size());
  samples["setup"] = static_cast<int64_t>(setup_times.size());
  const double ops_per_s = static_cast<double>(OkCount(measured)) / measured_s;

  // The gated end-to-end set is defined for every workload. p90 is the
  // highest percentile with >= 10 samples beyond it on every workload
  // (dfsio_write completes ~230 files per 15 s window). The median, p99
  // and peak RSS vary too much between runs on a shared host to gate
  // (README.md), so they are reported only.
  Metrics e2e;
  add(&e2e, "setup_s", setup_s, "s");
  add(&e2e, "ops_per_s", ops_per_s, "ops/s");
  add(&e2e, "op_p90_ms", Percentile(all_ms, 0.9), "ms");
  detail = e2e;
  add(&detail, "op_p50_ms", Percentile(all_ms, 0.5), "ms");
  add(&detail, "op_p99_ms", Percentile(all_ms, 0.99), "ms");
  add(&detail, "peak_rss_mb", peak_rss_mb, "MB");
  if (!write_ms.empty()) {
    add(&detail, "write_mbps", OkBytes(measured, WriteOp) / measured_s / 1e6,
        "MB/s");
    add(&detail, "write_file_p50_ms", Percentile(write_ms, 0.5), "ms");
    add(&detail, "write_file_p90_ms", Percentile(write_ms, 0.9), "ms");
    add(&detail, "space_amp",
        Ratio(static_cast<double>(stored_bytes),
              static_cast<double>(live_bytes)),
        "ratio");
  }
  if (!read_ms.empty()) {
    add(&detail, "read_mbps", OkBytes(measured, ReadOp) / measured_s / 1e6,
        "MB/s");
    add(&detail, "read_file_p50_ms", Percentile(read_ms, 0.5), "ms");
    add(&detail, "read_file_p99_ms", Percentile(read_ms, 0.99), "ms");
  }
  if (!meta_ms.empty()) {
    add(&detail, "meta_ops_per_s",
        static_cast<double>(meta_ms.size()) / measured_s, "ops/s");
    add(&detail, "meta_op_p50_us", Percentile(meta_ms, 0.5) * 1e3, "us");
    add(&detail, "meta_op_p99_us", Percentile(meta_ms, 0.99) * 1e3, "us");
  }
  add(&detail, "failed_op_frac",
      Ratio(static_cast<double>(window.failed),
            static_cast<double>(window.ops.size())),
      "ratio");

  if (!opts.trace) {
    gate = e2e;
  } else {
    // Per-layer split of the traced half; overhead against the untraced
    // half before it.
    const WindowOps reference = OpsIn(states, start.t_ns, mid.t_ns);
    const double reference_ops_per_s =
        static_cast<double>(OkCount(reference)) /
        (static_cast<double>(mid.t_ns - start.t_ns) / 1e9);
    const TraceSummary trace = SummarizeTraces();
    std::map<std::string, double> layer_self_us;
    std::map<std::string, int64_t> layer_calls;
    std::map<std::string, double> layer_total_us;
    double op_us = 0;
    int64_t traced_ops = 0;
    for (int i = 0; i < kNumSpanNames; ++i) {
      const SpanName span = static_cast<SpanName>(i);
      const SpanStats& s = trace.by_name[static_cast<size_t>(i)];
      const std::string layer = SpanLayer(span);
      layer_self_us[layer] += s.self_us;
      layer_calls[layer] += s.calls;
      layer_total_us[layer] += s.total_us;
      if (layer == "client") {
        op_us += s.total_us;
        traced_ops += s.calls;
      }
    }
    const double per_op = traced_ops > 0 ? 1.0 / traced_ops : 0;
    const double client_thread_us = measured_s * 1e6 * kClients;
    int64_t blocks_read = 0;
    int64_t memory_blocks_read = 0;
    for (const ClientState& s : states) {
      blocks_read += s.blocks_read;
      memory_blocks_read += s.memory_blocks_read;
    }
    const int64_t records = end.journal_records - mid.journal_records;
    const double wchar = static_cast<double>(end.proc.wchar - mid.proc.wchar);
    const double rchar = static_cast<double>(end.proc.rchar - mid.proc.rchar);
    const double cpu_s = end.proc.cpu_s - mid.proc.cpu_s;
    const int64_t ops = OkCount(measured);
    const EventStats heartbeats =
        EventsIn(control.heartbeats, measure_start, end.t_ns);
    const EventStats monitors =
        EventsIn(control.monitors, measure_start, end.t_ns);

    add(&gate, "trace.op_mean_us", op_us * per_op, "us");
    for (const char* layer :
         {"client", "master", "placement", "retrieval", "worker"}) {
      add(&gate, std::string(layer) + ".self_frac",
          Ratio(layer_self_us[layer], op_us), "frac");
    }
    add(&gate, "master.calls_per_op", layer_calls["master"] * per_op, "count");
    add(&gate, "worker.calls_per_op", layer_calls["worker"] * per_op, "count");
    add(&gate, "io.write_kb_per_op", Ratio(wchar / 1024, ops), "KB");
    add(&gate, "io.read_kb_per_op", Ratio(rchar / 1024, ops), "KB");
    add(&gate, "journal.records_per_op", Ratio(records, ops), "count");
    add(&gate, "journal.flushes_per_record",
        Ratio(static_cast<double>(end.journal_syncs - mid.journal_syncs),
              static_cast<double>(records)),
        "ratio");
    add(&gate, "journal.bytes_per_record",
        Ratio(static_cast<double>(journal_bytes), static_cast<double>(records)),
        "B");
    add(&gate, "tiering.mem_read_frac",
        Ratio(static_cast<double>(memory_blocks_read),
              static_cast<double>(blocks_read)),
        "frac");
    add(&gate, "control.heartbeat_round.mean_ms", heartbeats.mean_ms, "ms");
    add(&gate, "control.monitor_round.mean_ms", monitors.mean_ms, "ms");
    add(&gate, "proc.cpu_ms_per_op", Ratio(cpu_s * 1e3, ops), "ms");
    add(&gate, "trace.overhead_pct",
        Ratio(reference_ops_per_s - ops_per_s, reference_ops_per_s) * 100,
        "%");

    detail.insert(detail.end(), gate.begin(), gate.end());
    for (int i = 0; i < kNumSpanNames; ++i) {
      const SpanStats& s = trace.by_name[static_cast<size_t>(i)];
      if (s.calls == 0) continue;
      const std::string n = SpanNameString(static_cast<SpanName>(i));
      std::vector<double> durations(s.durations_us.begin(),
                                    s.durations_us.end());
      add(&detail, n + ".calls", static_cast<double>(s.calls), "count");
      add(&detail, n + ".mean_us", s.total_us / s.calls, "us");
      add(&detail, n + ".self_us", s.self_us / s.calls, "us");
      add(&detail, n + ".p99_us", Percentile(durations, 0.99), "us");
      samples[n] = s.calls;
    }
    const auto calls = [&trace](SpanName n) {
      return static_cast<double>(trace.by_name[static_cast<int>(n)].calls);
    };
    add(&detail, "placement.calls_per_block",
        Ratio(calls(SpanName::kPlacementPlace),
              calls(SpanName::kMasterAddBlock)),
        "count");
    add(&detail, "retrieval.calls_per_open",
        Ratio(calls(SpanName::kRetrievalOrder),
              calls(SpanName::kMasterGetBlockLocations)),
        "count");
    add(&detail, "master.busy_frac",
        Ratio(layer_total_us["master"], client_thread_us), "frac");
    add(&detail, "worker.busy_frac",
        Ratio(layer_total_us["worker"], client_thread_us), "frac");
    const double written = static_cast<double>(OkBytes(measured, WriteOp));
    const double read = static_cast<double>(OkBytes(measured, ReadOp));
    if (written > 0) add(&detail, "store.write_amp", wchar / written, "ratio");
    if (read > 0) add(&detail, "store.read_amp", rchar / read, "ratio");
    add(&detail, "proc.cpu_util",
        cpu_s / (measured_s * std::thread::hardware_concurrency()), "frac");
    add(&detail, "control.commands_executed",
        static_cast<double>(heartbeats.count), "count");
    add(&detail, "repair.copies_completed",
        static_cast<double>(end.repair.copies_completed -
                            mid.repair.copies_completed),
        "count");
    if (tiered) {
      const EventStats ticks = EventsIn(control.ticks, measure_start, end.t_ns);
      const EventStats checkpoints =
          EventsIn(control.checkpoints, measure_start, end.t_ns);
      add(&detail, "tiering.tick.mean_ms", ticks.mean_ms, "ms");
      add(&detail, "tiering.promotions", static_cast<double>(ticks.count),
          "count");
      add(&detail, "tiering.bytes_promoted_mb",
          static_cast<double>(ticks.bytes) / (1 << 20), "MB");
      add(&detail, "checkpoint.mean_ms", checkpoints.mean_ms, "ms");
      add(&detail, "checkpoint.count", static_cast<double>(checkpoints.n),
          "count");
    }
    add(&detail, "trace.spans", static_cast<double>(trace.spans), "count");
    add(&detail, "trace.dropped_spans", static_cast<double>(trace.dropped),
        "count");
    const std::string trace_path = opts.out_dir + "/" + name + "-seed" +
                                   std::to_string(opts.seed) + ".trace.json";
    Status written_trace =
        WriteChromeTrace(trace_path, kTraceSpansWrittenPerThread);
    if (!written_trace.ok()) {
      std::fprintf(stderr, "%s\n", written_trace.ToString().c_str());
    }
  }

  // -- report -----------------------------------------------------------------
  std::string samples_json = "{";
  for (const auto& [key, n] : samples) {
    samples_json += (samples_json.size() > 1 ? ", " : "") + Quote(key) + ": " +
                    std::to_string(n);
  }
  samples_json += "}";
  const std::string host =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"kernel\": " + Quote(KernelRelease()) +
      ", \"filesystem\": " + Quote(FilesystemType(opts.work_dir)) +
      ", \"build_type\": " + Quote(E2E_BUILD_TYPE) +
      ", \"git_sha\": " + Quote(opts.git_sha) + "}";
  const std::string run =
      "{\"workload\": " + Quote(name) + ", \"seed\": " +
      std::to_string(opts.seed) + ", \"trace\": " + (opts.trace ? "1" : "0") +
      ", \"flush_policy\": \"fsync\", \"window_s\": " + Num(opts.seconds) +
      ", \"warmup_s\": " + Num(warmup_s) + ", \"clients\": " +
      std::to_string(kClients) + ", \"control_threads\": 1}";
  const std::string head =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(window.ops.size()) +
      ", \"failed\": " + std::to_string(window.failed);
  const std::string full = head + ", \"verify_ok\": " +
                           (verify_ok ? "true" : "false") +
                           ", \"wrong_reads\": " + std::to_string(wrong_reads) +
                           ", \"host\": " + host + ", \"run\": " + run +
                           ", \"samples\": " + samples_json +
                           ", \"metrics\": " + MetricsJson(gate) +
                           ", \"detail\": " + MetricsJson(detail) + "}\n";
  const std::string result_path = opts.out_dir + "/" + name + "-seed" +
                                  std::to_string(opts.seed) + "-trace" +
                                  (opts.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fputs(full.c_str(), f);
    std::fclose(f);
  }
  std::printf("%s, \"metrics\": %s}\n", head.c_str(),
              MetricsJson(gate).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace octo::e2e

int main(int argc, char** argv) { return octo::e2e::Main(argc, argv); }

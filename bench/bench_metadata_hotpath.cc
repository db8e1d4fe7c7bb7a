// Micro-benchmark for the Master's concurrent metadata plane: how many
// namespace operations per second the fine-grained locking sustains, at
// 1/2/4/8 client threads, against a >=1M-file namespace.
//
// Sections:
//   read_scaling   read-mostly mix (stat/open/ls) over 1024 dirs x 1024
//                  files; reads take only shared locks, so throughput
//                  should scale with threads on multi-core hosts.
//   slive          per-operation-type S-Live throughput at each thread
//                  count (fresh Master per run, identical op set).
//   group_commit   create throughput at 8 threads against a
//                  metadata_dir-backed master (segmented journal), at
//                  page-cache and fsync durability, plus flushes per
//                  journal record.
//   allocations    heap allocations per op on the resolve (path lookup)
//                  and journal-append hot paths.
//   checkpoint_stall  single-mutator create throughput against a
//                  metadata_dir-backed master, steady-state vs while a
//                  fuzzy WriteCheckpoint() serializes the 1M-file
//                  namespace; the ratio is the §14 non-stalling claim
//                  and is gated at >= 0.8 by check_bench_regression.py.
//
// Single-core hosts cannot show wall-clock parallel speedup, so the JSON
// reports, next to the measured rates, an Amdahl-style model:
// modeled_speedup(T) = T * (ops_T / ops_1). On one core ops_T/ops_1 is
// the locking efficiency under full contention (1.0 = no overhead), and
// T of those time-sliced threads would run concurrently on T cores.
// host_cores in the JSON says which regime produced the numbers.
//
// Emits BENCH_metadata.json (path overridable via argv[1]).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cluster/master.h"
#include "common/logging.h"
#include "common/units.h"
#include "namespacefs/edit_log.h"
#include "workload/slive.h"

// ---------------------------------------------------------------------------
// Global allocation counter (bench binary only).

static std::atomic<uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace octo {
namespace {

const UserContext kUser{"root", {}};
constexpr int kDirs = 1024;
constexpr int kFilesPerDir = 1024;  // kDirs * kFilesPerDir = 1,048,576 files

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// -- Section A: read-mostly scaling over a 1M-file namespace ---------------

void FillBigNamespace(Master* master) {
  auto start = std::chrono::steady_clock::now();
  OCTO_CHECK_OK(master->Mkdirs("/meta", kUser));
  ReplicationVector rv = ReplicationVector::OfTotal(3);
  for (int d = 0; d < kDirs; ++d) {
    std::string dir = "/meta/d" + std::to_string(d);
    OCTO_CHECK_OK(master->Mkdirs(dir, kUser));
    for (int f = 0; f < kFilesPerDir; ++f) {
      std::string path = dir + "/f" + std::to_string(f);
      OCTO_CHECK_OK(master->Create(path, rv, 128 * kMiB, false, kUser,
                                   "bench"));
      OCTO_CHECK_OK(master->CompleteFile(path, "bench"));
    }
  }
  std::printf("built %d-file namespace in %.1fs\n", kDirs * kFilesPerDir,
              Seconds(start));
}

std::unique_ptr<Master> BuildBigNamespace(SystemClock* clock) {
  auto master = std::make_unique<Master>(MasterOptions{}, clock);
  FillBigNamespace(master.get());
  return master;
}

struct ReadScalingResult {
  int threads = 0;
  double ops_per_sec = 0;
  double efficiency_vs_1t = 0;   // ops_T / ops_1
  double modeled_speedup = 0;    // T * efficiency (see file comment)
};

// 48% GetFileStatus, 48% GetBlockLocations, 4% ListDirectory (a 1024-entry
// listing costs ~3 orders more than a stat; 4% keeps the mix read-mostly
// without the listings drowning out the point lookups).
double RunReadMix(Master* master, int threads, int total_ops) {
  auto one_op = [master](int i) {
    uint64_t h = Mix64(static_cast<uint64_t>(i));
    int d = static_cast<int>(h % kDirs);
    int f = static_cast<int>((h >> 10) % kFilesPerDir);
    std::string dir = "/meta/d" + std::to_string(d);
    int kind = i % 25;
    if (kind < 12) {
      auto st = master->GetFileStatus(dir + "/f" + std::to_string(f), kUser);
      OCTO_CHECK(st.ok()) << st.status().ToString();
    } else if (kind < 24) {
      auto located = master->GetBlockLocations(dir + "/f" + std::to_string(f),
                                               NetworkLocation());
      OCTO_CHECK(located.ok()) << located.status().ToString();
    } else {
      auto listing = master->ListDirectory(dir, kUser);
      OCTO_CHECK(listing.ok()) << listing.status().ToString();
    }
  };
  auto start = std::chrono::steady_clock::now();
  if (threads <= 1) {
    for (int i = 0; i < total_ops; ++i) one_op(i);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = t; i < total_ops; i += threads) one_op(i);
      });
    }
    for (std::thread& worker : pool) worker.join();
  }
  return total_ops / Seconds(start);
}

// -- Section C: group commit through the segmented journal -----------------

struct GroupCommitResult {
  std::string mode;
  std::string durability;
  int threads = 0;
  double creates_per_sec = 0;
  double flushes_per_record = 0;
  int64_t records = 0;
  int64_t flushes = 0;
};

GroupCommitResult RunGroupCommit(SystemClock* clock, bool fsync, int threads,
                                 int total_creates) {
  const std::string meta_dir = "/tmp/octo_bench_metadata_gc";
  std::filesystem::remove_all(meta_dir);
  MasterOptions options;
  options.metadata_dir = meta_dir;
  Master master(options, clock);
  if (fsync) master.edit_log()->SetFsyncOnFlush(true);
  for (int t = 0; t < threads; ++t) {
    OCTO_CHECK_OK(master.Mkdirs("/gc/d" + std::to_string(t), kUser));
  }
  ReplicationVector rv = ReplicationVector::OfTotal(3);
  int64_t records_before = master.edit_log()->size();
  int64_t flushes_before = master.edit_log()->sync_count();
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::string dir = "/gc/d" + std::to_string(t) + "/f";
      for (int i = t; i < total_creates; i += threads) {
        std::string path = dir + std::to_string(i);
        OCTO_CHECK_OK(master.Create(path, rv, 128 * kMiB, false, kUser,
                                    "bench" + std::to_string(t)));
        OCTO_CHECK_OK(master.CompleteFile(path, "bench" + std::to_string(t)));
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  double elapsed = Seconds(start);
  GroupCommitResult result;
  result.mode = "group_commit";
  result.durability = fsync ? "fsync" : "page_cache";
  result.threads = threads;
  result.creates_per_sec = total_creates / elapsed;
  result.records = master.edit_log()->size() - records_before;
  result.flushes = master.edit_log()->sync_count() - flushes_before;
  result.flushes_per_record =
      result.records > 0
          ? static_cast<double>(result.flushes) / result.records
          : 0.0;
  std::filesystem::remove_all(meta_dir);
  return result;
}

// -- Section F: mutation throughput during a fuzzy checkpoint --------------
//
// The non-stalling checkpoint (DESIGN.md §14) serializes the namespace
// in chunks under per-stripe read locks, so mutations proceed during the
// entire image write. This section measures a single mutator's create
// throughput against a metadata_dir-backed master in steady state, then
// again while WriteCheckpoint() walks and writes the 1M-file image. The
// ratio is gated at >= 0.8 by tools/check_bench_regression.py (a
// stop-the-world checkpoint would score ~0 here: the structural lock
// would park the mutator for the whole serialization).

struct CheckpointStallResult {
  double steady_ops_per_sec = 0;
  double during_ops_per_sec = 0;
  double ratio = 0;               // wall-clock; CPU-sharing-bound on 1 core
  double longest_stall_seconds = 0;
  double availability = 0;        // 1 - longest_stall / checkpoint wall time
  double checkpoint_seconds = 0;
  long long image_txid = 0;
};

CheckpointStallResult RunCheckpointStall(SystemClock* clock) {
  const std::string meta_dir = "/tmp/octo_bench_metadata_ckpt";
  std::filesystem::remove_all(meta_dir);
  MasterOptions options;
  options.metadata_dir = meta_dir;
  Master master(options, clock);
  FillBigNamespace(&master);
  // Creates round-robin over 64 directories: a mutation against the very
  // directory the walk is serializing at that instant waits for that one
  // chunk (per-stripe granularity), so an all-in-one-directory mutator
  // would measure the size of its own directory, not the checkpoint.
  constexpr int kStallDirs = 64;
  for (int d = 0; d < kStallDirs; ++d) {
    OCTO_CHECK_OK(master.Mkdirs("/stall/d" + std::to_string(d), kUser));
  }
  ReplicationVector rv = ReplicationVector::OfTotal(3);
  int64_t next = 0;
  struct Window {
    double ops_per_sec = 0;
    double longest_gap = 0;  // widest completion-to-completion gap
  };
  // One create+complete pair per op, same body for both windows.
  auto mutate_while = [&](const std::function<bool()>& keep_going) {
    int64_t before = next;
    auto start = std::chrono::steady_clock::now();
    auto last = start;
    Window w;
    do {
      std::string path = "/stall/d" +
                         std::to_string(next % kStallDirs) + "/f" +
                         std::to_string(next);
      ++next;
      OCTO_CHECK_OK(master.Create(path, rv, 128 * kMiB, false, kUser,
                                  "bench"));
      OCTO_CHECK_OK(master.CompleteFile(path, "bench"));
      auto now = std::chrono::steady_clock::now();
      double gap = std::chrono::duration<double>(now - last).count();
      if (gap > w.longest_gap) w.longest_gap = gap;
      last = now;
    } while (keep_going());
    w.ops_per_sec = (next - before) / Seconds(start);
    return w;
  };

  // Warm-up, then a fixed steady-state window.
  auto warm_start = std::chrono::steady_clock::now();
  mutate_while([&] { return Seconds(warm_start) < 0.2; });
  auto steady_start = std::chrono::steady_clock::now();
  CheckpointStallResult result;
  result.steady_ops_per_sec =
      mutate_while([&] { return Seconds(steady_start) < 1.0; }).ops_per_sec;

  // Mutate for as long as the checkpoint runs.
  std::atomic<bool> checkpointing{true};
  double checkpoint_seconds = 0;
  long long image_txid = 0;
  std::thread checkpointer([&] {
    auto start = std::chrono::steady_clock::now();
    auto txid = master.WriteCheckpoint();
    checkpoint_seconds = Seconds(start);
    OCTO_CHECK(txid.ok()) << txid.status().ToString();
    image_txid = static_cast<long long>(*txid);
    checkpointing.store(false, std::memory_order_release);
  });
  Window during = mutate_while(
      [&] { return checkpointing.load(std::memory_order_acquire); });
  checkpointer.join();
  result.during_ops_per_sec = during.ops_per_sec;
  result.checkpoint_seconds = checkpoint_seconds;
  result.image_txid = image_txid;
  result.ratio = result.steady_ops_per_sec > 0
                     ? result.during_ops_per_sec / result.steady_ops_per_sec
                     : 0.0;
  result.longest_stall_seconds = during.longest_gap;
  result.availability =
      checkpoint_seconds > 0
          ? 1.0 - during.longest_gap / checkpoint_seconds
          : 0.0;
  std::filesystem::remove_all(meta_dir);
  return result;
}

// -- Section E: allocations per op on the hot paths ------------------------

struct AllocResult {
  double resolve_allocs_per_op = 0;
  double journal_allocs_per_record = 0;
};

AllocResult RunAllocCounts(Master* master) {
  AllocResult result;
  constexpr int kOps = 100000;
  const NamespaceTree& tree = master->namespace_tree();
  const std::string path = "/meta/d7/f123";
  // Warm-up (first lookups may fault in nothing, but keep symmetry).
  for (int i = 0; i < 1000; ++i) OCTO_CHECK(tree.ExistsNormalized(path));
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kOps; ++i) {
    OCTO_CHECK(tree.ExistsNormalized(path));
  }
  uint64_t resolves =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  result.resolve_allocs_per_op = static_cast<double>(resolves) / kOps;

  EditLog log;
  log.LogMkdirs("/warmup/abcdefgh");  // size the scratch buffer
  before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kOps; ++i) {
    log.LogAddBlock(path, BlockInfo{1234567, 64 * kMiB, 42});
  }
  uint64_t appends = g_alloc_count.load(std::memory_order_relaxed) - before;
  // Each record is stored (one string copy); the formatting itself must
  // not allocate, so this should hover just above 1 (amortized vector
  // growth included).
  result.journal_allocs_per_record = static_cast<double>(appends) / kOps;
  return result;
}

}  // namespace
}  // namespace octo

int main(int argc, char** argv) {
  using namespace octo;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_metadata.json";
  const int thread_counts[] = {1, 2, 4, 8};
  SystemClock clock;
  unsigned host_cores = std::thread::hardware_concurrency();

  // Section A: read scaling.
  std::unique_ptr<Master> big = BuildBigNamespace(&clock);
  constexpr int kReadOps = 200000;
  std::vector<ReadScalingResult> read_results;
  double ops_1t = 0;
  for (int threads : thread_counts) {
    ReadScalingResult r;
    r.threads = threads;
    r.ops_per_sec = RunReadMix(big.get(), threads, kReadOps);
    if (threads == 1) ops_1t = r.ops_per_sec;
    r.efficiency_vs_1t = ops_1t > 0 ? r.ops_per_sec / ops_1t : 0;
    r.modeled_speedup = threads * r.efficiency_vs_1t;
    std::printf("read mix  %d thread(s): %10.0f ops/s  (efficiency %.2f, "
                "modeled speedup on %d cores: %.1fx)\n",
                threads, r.ops_per_sec, r.efficiency_vs_1t, threads,
                r.modeled_speedup);
    std::fflush(stdout);
    read_results.push_back(r);
  }

  // Section B: per-type S-Live at each thread count.
  struct SliveRow {
    int threads;
    workload::SliveResult result;
  };
  std::vector<SliveRow> slive_rows;
  for (int threads : thread_counts) {
    Master master(MasterOptions{}, &clock);
    workload::SliveOptions options;
    options.ops_per_type = 20000;
    options.threads = threads;
    auto result = workload::RunSlive(&master, options);
    OCTO_CHECK(result.ok()) << result.status().ToString();
    std::printf("slive     %d thread(s):", threads);
    for (const auto& [op, rate] : result->ops_per_second) {
      std::printf("  %s %.0f/s", op.c_str(), rate);
    }
    std::printf("\n");
    std::fflush(stdout);
    slive_rows.push_back(SliveRow{threads, *std::move(result)});
  }

  // Section C: group commit through the segmented journal. The
  // page-cache row shows the non-durable baseline; the fsync row is the
  // configuration group commit exists for — one fdatasync covering a
  // whole batch, with followers piling on while the leader syncs.
  const GroupCommitResult gc_rows[] = {
      RunGroupCommit(&clock, /*fsync=*/false, 8, 40000),
      RunGroupCommit(&clock, /*fsync=*/true, 8, 4000)};
  for (const GroupCommitResult& r : gc_rows) {
    std::printf("journal   %-16s %-10s 8 threads: %8.0f creates/s  "
                "%.3f flushes/record\n",
                r.mode.c_str(), r.durability.c_str(), r.creates_per_sec,
                r.flushes_per_record);
  }
  std::fflush(stdout);

  // Section E: allocation counts.
  AllocResult allocs = RunAllocCounts(big.get());
  std::printf("allocs    resolve %.3f/op  journal append %.3f/record\n",
              allocs.resolve_allocs_per_op, allocs.journal_allocs_per_record);

  // Section F: fuzzy-checkpoint stall (frees the Section A namespace
  // first — this section builds its own 1M-file master).
  big.reset();
  CheckpointStallResult stall = RunCheckpointStall(&clock);
  std::printf("ckpt      steady %8.0f ops/s  during %8.0f ops/s  "
              "ratio %.3f  longest stall %.0fms  availability %.3f  "
              "(image of txid %lld written in %.2fs)\n",
              stall.steady_ops_per_sec, stall.during_ops_per_sec, stall.ratio,
              stall.longest_stall_seconds * 1e3, stall.availability,
              stall.image_txid, stall.checkpoint_seconds);
  std::fflush(stdout);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"metadata_hotpath\",\n");
  std::fprintf(f, "  \"namespace_files\": %d,\n", kDirs * kFilesPerDir);
  std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f,
               "  \"model_note\": \"modeled_speedup = threads * (ops_T / "
               "ops_1): reads take only shared locks, so T time-sliced "
               "threads at efficiency e model T*e on T cores; on hosts with "
               ">= T cores the measured speedup itself applies\",\n");
  std::fprintf(f, "  \"read_scaling\": [\n");
  for (size_t i = 0; i < read_results.size(); ++i) {
    const auto& r = read_results[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"ops_per_sec\": %.1f, "
                 "\"efficiency_vs_1t\": %.3f, \"modeled_speedup\": %.2f}%s\n",
                 r.threads, r.ops_per_sec, r.efficiency_vs_1t,
                 r.modeled_speedup, i + 1 == read_results.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"read_scaling_1_to_8_modeled\": %.2f,\n",
               read_results.back().modeled_speedup);
  std::fprintf(f, "  \"slive\": [\n");
  for (size_t i = 0; i < slive_rows.size(); ++i) {
    const auto& row = slive_rows[i];
    std::fprintf(f, "    {\"threads\": %d", row.threads);
    for (const auto& [op, rate] : row.result.ops_per_second) {
      std::fprintf(f, ", \"%s\": %.1f", op.c_str(), rate);
    }
    std::fprintf(f, "}%s\n", i + 1 == slive_rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"group_commit\": [\n");
  for (size_t i = 0; i < std::size(gc_rows); ++i) {
    const auto& r = gc_rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"durability\": \"%s\", "
                 "\"threads\": %d, \"creates_per_sec\": %.1f, "
                 "\"flushes_per_record\": %.4f, \"records\": %lld, "
                 "\"flushes\": %lld}%s\n",
                 r.mode.c_str(), r.durability.c_str(), r.threads,
                 r.creates_per_sec, r.flushes_per_record,
                 static_cast<long long>(r.records),
                 static_cast<long long>(r.flushes),
                 i + 1 == std::size(gc_rows) ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"allocations\": {\"resolve_allocs_per_op\": %.4f, "
               "\"journal_allocs_per_record\": %.4f},\n",
               allocs.resolve_allocs_per_op,
               allocs.journal_allocs_per_record);
  std::fprintf(f,
               "  \"checkpoint_stall_note\": \"mutation_ops_per_sec_ratio "
               "is wall-clock and needs >= 2 host cores to show the "
               "non-stalling claim directly (on 1 core the checkpoint "
               "thread legitimately time-slices the CPU, see host_cores); "
               "mutation_availability = 1 - longest_stall/checkpoint_wall "
               "is host-independent: a stop-the-world checkpoint scores "
               "~0, a chunk-level stall shows up as that chunk's "
               "serialization time\",\n");
  std::fprintf(f,
               "  \"checkpoint_stall\": {\"namespace_files\": %d, "
               "\"steady_ops_per_sec\": %.1f, \"during_ops_per_sec\": %.1f, "
               "\"mutation_ops_per_sec_ratio\": %.3f, "
               "\"longest_stall_seconds\": %.4f, "
               "\"mutation_availability\": %.3f, "
               "\"checkpoint_seconds\": %.3f, \"image_txid\": %lld},\n",
               kDirs * kFilesPerDir, stall.steady_ops_per_sec,
               stall.during_ops_per_sec, stall.ratio,
               stall.longest_stall_seconds, stall.availability,
               stall.checkpoint_seconds, stall.image_txid);
  // Row shape (workers/policy keys) matches check_bench_regression.py's
  // matcher; the baseline pins the floor at 1.0 - tolerance = 0.8.
  std::fprintf(f,
               "  \"results\": [\n    {\"workers\": 1, \"policy\": "
               "\"checkpoint_stall\", \"mutation_availability\": %.3f, "
               "\"mutation_ops_per_sec_ratio\": %.3f}\n  ]\n",
               stall.availability, stall.ratio);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

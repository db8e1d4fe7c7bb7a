// Linearizability stress tests for the concurrent metadata plane:
// concurrent rename/delete racing Open/GetBlockLocations/ls over
// overlapping subtrees, exactly-once journaling of acked mutations,
// journal-replay equivalence, and group-commit durability.
//
// Runs seeded (deterministic per-thread op sequences) by default; set
// OCTO_STRESS_FREE_RUNNING=1 to let every thread loop on wall-clock time
// instead for soak testing. Designed to run under the tsan preset.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/master.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/units.h"
#include "gtest/gtest.h"
#include "namespacefs/edit_log.h"
#include "workload/slive.h"

namespace octo {
namespace {

const UserContext kUser{"root", {}};

bool FreeRunning() {
  const char* env = std::getenv("OCTO_STRESS_FREE_RUNNING");
  return env != nullptr && env[0] == '1';
}

// Iteration budget: seeded runs use fixed counts; free-running soaks use
// a larger multiple.
int Iters(int seeded) { return FreeRunning() ? seeded * 20 : seeded; }

std::unique_ptr<Master> NewMaster() {
  static SystemClock clock;
  return std::make_unique<Master>(MasterOptions{}, &clock);
}

// A reader must never observe a renamed entry in both places or neither
// place within one snapshot: every ListDirectory of the parent sees
// exactly one of src|dst, and GetFileStatus of both names yields exactly
// one hit for any pair of calls made in either order.
TEST(MetadataConcurrency, RenameNeverInBothOrNeitherLocation) {
  auto master = NewMaster();
  ASSERT_TRUE(master->Mkdirs("/race", kUser).ok());
  ASSERT_TRUE(
      master
          ->Create("/race/a", ReplicationVector::OfTotal(1), 64 * kMiB,
                   false, kUser, "w")
          .ok());
  ASSERT_TRUE(master->CompleteFile("/race/a", "w").ok());

  // The readers drive the duration (fixed snapshot count each); the
  // mutator ping-pongs until every reader is done, so on any scheduler
  // every snapshot races a live rename stream.
  std::atomic<bool> stop{false};
  const int kSnapshotsPerReader = Iters(800);

  std::thread mutator([&] {
    for (int i = 0; !stop.load(); ++i) {
      const char* src = (i % 2 == 0) ? "/race/a" : "/race/b";
      const char* dst = (i % 2 == 0) ? "/race/b" : "/race/a";
      ASSERT_TRUE(master->Rename(src, dst, kUser).ok()) << i;
    }
  });

  std::vector<std::thread> readers;
  std::atomic<int> readers_done{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kSnapshotsPerReader; ++i) {
        auto listing = master->ListDirectory("/race", kUser);
        ASSERT_TRUE(listing.ok());
        int hits = 0;
        for (const FileStatus& entry : *listing) {
          if (entry.path == "/race/a" || entry.path == "/race/b") ++hits;
        }
        // One file, two possible names: every snapshot holds exactly one.
        ASSERT_EQ(hits, 1);
      }
      if (readers_done.fetch_add(1) + 1 == 3) stop.store(true);
    });
  }
  mutator.join();
  for (std::thread& r : readers) r.join();
  // The file itself survived the ping-pong under one of its two names.
  int final_hits = (master->GetFileStatus("/race/a", kUser).ok() ? 1 : 0) +
                   (master->GetFileStatus("/race/b", kUser).ok() ? 1 : 0);
  EXPECT_EQ(final_hits, 1);
}

// Deletes racing opens: GetBlockLocations either succeeds or reports
// NotFound; nothing in between, and ls of the parent never shows a
// half-deleted entry (the path is either present or absent).
TEST(MetadataConcurrency, DeleteRacingOpenAndList) {
  auto master = NewMaster();
  ASSERT_TRUE(master->Mkdirs("/churn", kUser).ok());
  const int kRounds = Iters(1500);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::string path = "/churn/f" + std::to_string(i % 17);
      Status created = master->Create(path, ReplicationVector::OfTotal(1),
                                      64 * kMiB, false, kUser, "w");
      if (created.ok()) {
        ASSERT_TRUE(master->CompleteFile(path, "w").ok());
      }
      if (i % 3 == 2) {
        auto deleted = master->Delete(path, false, kUser);
        ASSERT_TRUE(deleted.ok() || deleted.status().IsNotFound());
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(101 + t);
      while (!stop.load()) {
        std::string path =
            "/churn/f" + std::to_string(rng.UniformRange(0, 16));
        auto located = master->GetBlockLocations(path, NetworkLocation());
        ASSERT_TRUE(located.ok() || located.status().IsNotFound())
            << located.status().ToString();
        auto listing = master->ListDirectory("/churn", kUser);
        ASSERT_TRUE(listing.ok());
        for (const FileStatus& entry : *listing) {
          EXPECT_FALSE(entry.path.empty());
        }
      }
    });
  }
  mutator.join();
  for (std::thread& r : readers) r.join();
}

// Every acknowledged mutation appears in the journal exactly once, even
// when eight writers hammer disjoint paths concurrently.
TEST(MetadataConcurrency, AckedMutationsJournaledExactlyOnce) {
  auto master = NewMaster();
  constexpr int kThreads = 8;
  const int kPerThread = Iters(400);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(master->Mkdirs("/j/d" + std::to_string(t), kUser).ok());
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string path =
            "/j/d" + std::to_string(t) + "/f" + std::to_string(i);
        ASSERT_TRUE(master
                        ->Create(path, ReplicationVector::OfTotal(1),
                                 64 * kMiB, false, kUser, "w")
                        .ok());
        ASSERT_TRUE(master->CompleteFile(path, "w").ok());
      }
    });
  }
  for (std::thread& w : writers) w.join();

  std::map<std::string, int> creates, completes;
  for (const std::string& entry : master->edit_log()->entries()) {
    size_t op_end = entry.find('\t');
    ASSERT_NE(op_end, std::string::npos) << entry;
    std::string op = entry.substr(0, op_end);
    size_t path_end = entry.find('\t', op_end + 1);
    std::string path = entry.substr(
        op_end + 1,
        path_end == std::string::npos ? std::string::npos
                                      : path_end - op_end - 1);
    if (op == "CREATE") creates[path]++;
    if (op == "COMPLETE") completes[path]++;
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string path =
          "/j/d" + std::to_string(t) + "/f" + std::to_string(i);
      EXPECT_EQ(creates[path], 1) << path;
      EXPECT_EQ(completes[path], 1) << path;
    }
  }
}

// Replaying the journal written by a concurrent mutation storm into a
// fresh tree reproduces the live namespace exactly: journal order is a
// valid linearization of what actually happened.
TEST(MetadataConcurrency, ConcurrentStormReplaysToIdenticalNamespace) {
  auto master = NewMaster();
  constexpr int kThreads = 6;
  const int kPerThread = Iters(300);
  ASSERT_TRUE(master->Mkdirs("/storm", kUser).ok());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Random rng(7 * (t + 1));
      std::string dir = "/storm/d" + std::to_string(t);
      ASSERT_TRUE(master->Mkdirs(dir, kUser).ok());
      for (int i = 0; i < kPerThread; ++i) {
        std::string path = dir + "/f" + std::to_string(i);
        switch (rng.UniformRange(0, 3)) {
          case 0:
          case 1: {
            ASSERT_TRUE(master
                            ->Create(path, ReplicationVector::OfTotal(1),
                                     64 * kMiB, false, kUser, "w")
                            .ok());
            ASSERT_TRUE(master->CompleteFile(path, "w").ok());
            break;
          }
          case 2: {
            std::string prev = dir + "/f" + std::to_string(i > 0 ? i - 1 : 0);
            Status renamed =
                master->Rename(prev, dir + "/r" + std::to_string(i), kUser);
            ASSERT_TRUE(renamed.ok() || renamed.IsNotFound())
                << renamed.ToString();
            break;
          }
          default: {
            auto deleted = master->Delete(
                dir + "/f" + std::to_string(i > 1 ? i - 2 : 0), false, kUser);
            ASSERT_TRUE(deleted.ok() || deleted.status().IsNotFound());
            break;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  SystemClock replay_clock;
  NamespaceTree replayed(&replay_clock);
  ASSERT_TRUE(
      EditLog::Replay(master->edit_log()->entries(), 0, &replayed).ok());

  auto paths_of = [](const NamespaceTree& tree) {
    std::set<std::string> paths;
    tree.Visit([&](const NamespaceTree::VisitEntry& e) {
      paths.insert(e.status.path);
    });
    return paths;
  };
  EXPECT_EQ(paths_of(master->namespace_tree()), paths_of(replayed));
}

// Group commit durability: after every mutation is acked the segmented
// journal on disk holds every record, replays cleanly, and needed no more
// than one flush per record.
TEST(MetadataConcurrency, GroupCommitDurableAndReplayable) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      "octo_metadata_concurrency_gc";
  std::filesystem::remove_all(dir);
  {
    SystemClock clock;
    MasterOptions options;
    options.metadata_dir = dir.string();
    Master master(options, &clock);
    constexpr int kThreads = 8;
    const int kPerThread = Iters(150);
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(master.Mkdirs("/gc/d" + std::to_string(t), kUser).ok());
    }
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string path =
              "/gc/d" + std::to_string(t) + "/f" + std::to_string(i);
          ASSERT_TRUE(master
                          .Create(path, ReplicationVector::OfTotal(1),
                                  64 * kMiB, false, kUser, "w")
                          .ok());
          ASSERT_TRUE(master.CompleteFile(path, "w").ok());
        }
      });
    }
    for (std::thread& w : writers) w.join();
    // Every acked mutation is already durable — no final flush needed.
    EXPECT_EQ(master.edit_log()->durable_records(),
              master.edit_log()->size());
    EXPECT_LE(master.edit_log()->sync_count(), master.edit_log()->size());
  }
  // Reopen from disk: the segments carry a full, replayable journal.
  auto reopened = EditLog::OpenSegmented(dir.string());
  ASSERT_TRUE(reopened.ok());
  SystemClock replay_clock;
  NamespaceTree replayed(&replay_clock);
  ASSERT_TRUE(EditLog::Replay((*reopened)->entries(), 0, &replayed).ok());
  int64_t files = 0;
  replayed.Visit([&](const NamespaceTree::VisitEntry& e) {
    if (!e.status.is_dir) ++files;
  });
  EXPECT_EQ(files, 8 * Iters(150));
  reopened->reset();
  std::filesystem::remove_all(dir);
}

// Mixed storm across overlapping subtrees: seeded per-thread sequences
// mixing mkdir/create/rename/delete with reads; the test passes when no
// invariant trips (readers always see well-formed snapshots) and the
// tree's file count matches a single-threaded replay of the journal.
TEST(MetadataConcurrency, MixedStormOverOverlappingSubtrees) {
  auto master = NewMaster();
  ASSERT_TRUE(master->Mkdirs("/mix/shared", kUser).ok());
  constexpr int kThreads = 8;
  const int kPerThread = Iters(250);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Random rng(31 * (t + 1));
      for (int i = 0; i < kPerThread; ++i) {
        // Half the ops target the shared subtree, half a private one —
        // plenty of genuine lock conflicts plus genuine parallelism.
        bool shared = rng.UniformRange(0, 1) == 0;
        std::string dir =
            shared ? "/mix/shared" : "/mix/t" + std::to_string(t);
        std::string path = dir + "/x" + std::to_string(t) + "_" +
                           std::to_string(rng.UniformRange(0, 49));
        switch (rng.UniformRange(0, 4)) {
          case 0: {
            Status made = master->Mkdirs(path + "_dir", kUser);
            ASSERT_TRUE(made.ok()) << made.ToString();
            break;
          }
          case 1: {
            Status created =
                master->Create(path, ReplicationVector::OfTotal(1),
                               64 * kMiB, false, kUser, "w" + path);
            ASSERT_TRUE(created.ok() || created.IsAlreadyExists() ||
                        created.IsUnavailable())
                << created.ToString();
            if (created.ok()) {
              ASSERT_TRUE(master->CompleteFile(path, "w" + path).ok());
            }
            break;
          }
          case 2: {
            Status renamed = master->Rename(path, path + "_r", kUser);
            ASSERT_TRUE(renamed.ok() || renamed.IsNotFound() ||
                        renamed.IsAlreadyExists())
                << renamed.ToString();
            break;
          }
          case 3: {
            auto deleted = master->Delete(path, true, kUser);
            ASSERT_TRUE(deleted.ok() || deleted.status().IsNotFound());
            break;
          }
          default: {
            auto listing = master->ListDirectory(dir, kUser);
            ASSERT_TRUE(listing.ok() || listing.status().IsNotFound());
            break;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  SystemClock replay_clock;
  NamespaceTree replayed(&replay_clock);
  ASSERT_TRUE(
      EditLog::Replay(master->edit_log()->entries(), 0, &replayed).ok());
  EXPECT_EQ(master->namespace_tree().NumFiles(), replayed.NumFiles());
  EXPECT_EQ(master->namespace_tree().NumDirectories(),
            replayed.NumDirectories());
}

// Lease-manager striping smoke: concurrent acquire/renew/release across
// many paths keeps the table consistent.
TEST(MetadataConcurrency, LeaseStripesUnderConcurrency) {
  SystemClock clock;
  LeaseManager leases(&clock, 60 * kMicrosPerSecond);
  constexpr int kThreads = 8;
  const int kPerThread = Iters(2000);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::string holder = "h" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        std::string path = "/lease/p" + std::to_string(i % 64);
        if (leases.Acquire(path, holder).ok()) {
          EXPECT_TRUE(leases.Renew(path, holder).ok());
          EXPECT_TRUE(leases.Release(path, holder).ok());
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(leases.num_leases(), 0);
}

// Multi-threaded S-Live is namespace-equivalent to single-threaded: same
// op set, same resulting file/dir counts.
TEST(MetadataConcurrency, MultiThreadedSliveMatchesSingleThreaded) {
  auto count = [](int threads) {
    auto master = NewMaster();
    workload::SliveOptions options;
    options.ops_per_type = 400;
    options.threads = threads;
    auto result = workload::RunSlive(master.get(), options);
    EXPECT_TRUE(result.ok());
    return std::pair<int64_t, int64_t>(master->namespace_tree().NumFiles(),
                                       master->namespace_tree()
                                           .NumDirectories());
  };
  auto single = count(1);
  auto multi = count(4);
  EXPECT_EQ(single, multi);
}

}  // namespace
}  // namespace octo

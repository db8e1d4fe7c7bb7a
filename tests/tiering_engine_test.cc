// Tests for the automated tiering engine: the closed heat-statistics
// loop (client reads -> worker heartbeats -> Master access stats ->
// Tick), up/down migration across levels, per-level budgets with
// displacement, and the lifecycle correctness that the old path-keyed
// cache manager got wrong (rename/delete racing a tick, user-edited
// replication vectors).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "cluster/tiering_engine.h"
#include "common/logging.h"
#include "common/units.h"

namespace octo {
namespace {

ClusterSpec TieredSpec() {
  ClusterSpec spec;
  spec.num_racks = 1;
  spec.workers_per_rack = 3;
  MediumSpec memory{kMemoryTier, MediaType::kMemory, 8 * kMiB,
                    FromMBps(1900), FromMBps(3200)};
  MediumSpec ssd{kSsdTier, MediaType::kSsd, 32 * kMiB, FromMBps(340),
                 FromMBps(420)};
  MediumSpec hdd{kHddTier, MediaType::kHdd, 256 * kMiB, FromMBps(126),
                 FromMBps(177)};
  spec.media_per_worker = {memory, ssd, hdd};
  return spec;
}

/// Memory + SSD levels, fed explicitly (deterministic heat).
TieringOptions TwoLevelOptions() {
  TieringOptions options;
  options.levels = {{kMemoryTier, /*capacity_fraction=*/0.8,
                     /*promote_threshold=*/3.0},
                    {kSsdTier, /*capacity_fraction=*/0.8,
                     /*promote_threshold=*/1.0}};
  options.collect_access_stats = false;
  return options;
}

class TieringEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cluster = Cluster::Create(TieredSpec());
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    fs_ = std::make_unique<FileSystem>(cluster_.get(),
                                       NetworkLocation("rack0", "node0"));
    CreateOptions options;
    options.rep_vector = ReplicationVector::Of(0, 0, 2);  // HDD only
    options.block_size = kMiB;
    for (const char* name : {"/hot", "/warm", "/cold"}) {
      ASSERT_TRUE(
          fs_->WriteFile(name, std::string(2 * kMiB, 'd'), options).ok());
    }
  }

  ReplicationVector RepVector(const std::string& path) {
    auto status = fs_->GetFileStatus(path);
    OCTO_CHECK(status.ok()) << status.status().ToString();
    return status->rep_vector;
  }

  void Settle() { ASSERT_TRUE(cluster_->RunReplicationToQuiescence().ok()); }

  void AdvanceSeconds(double seconds) {
    auto* sim = cluster_->simulation();
    sim->Schedule(seconds, [] {});
    sim->RunUntilIdle();
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<FileSystem> fs_;
};

// ---- the closed loop (tentpole) -------------------------------------------

// No manual RecordAccess anywhere: real client reads generate worker-side
// block-read statistics and metadata-path open counts, heartbeats carry
// them to the Master, and Tick turns them into a promotion.
TEST_F(TieringEngineTest, ClosedLoopPromotesFromRealReads) {
  TieringOptions options;
  options.levels = {{kMemoryTier, 0.8, 8.0}};
  options.collect_access_stats = true;
  TieringEngine engine(cluster_->master(), options);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fs_->ReadFile("/hot").ok());
  }
  ASSERT_TRUE(fs_->ReadFile("/cold").ok());
  ASSERT_TRUE(cluster_->PumpHeartbeats().ok());

  auto report = engine.Tick();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->promotions, 1);
  EXPECT_TRUE(engine.IsManaged("/hot"));
  EXPECT_FALSE(engine.IsManaged("/cold"));
  EXPECT_GT(engine.HeatOf("/hot"), engine.HeatOf("/cold"));
  Settle();
  EXPECT_EQ(RepVector("/hot"), ReplicationVector::Of(1, 0, 2));
  EXPECT_EQ(RepVector("/cold"), ReplicationVector::Of(0, 0, 2));
}

// ---- heat model boundaries ------------------------------------------------

TEST_F(TieringEngineTest, HeatExactlyAtThresholdPromotes) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  // No simulated time passes between the accesses and the tick, so the
  // heat sits exactly on the thresholds: 3.0 -> Memory, 2.0 -> SSD.
  for (int i = 0; i < 3; ++i) engine.RecordAccess("/hot");
  for (int i = 0; i < 2; ++i) engine.RecordAccess("/warm");
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->promotions, 2);
  EXPECT_EQ(engine.ManagedLevel("/hot"), 0);
  EXPECT_EQ(engine.ManagedLevel("/warm"), 1);
}

TEST_F(TieringEngineTest, HeatHalvesPerDecayInterval) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  for (int i = 0; i < 4; ++i) engine.RecordAccess("/hot");
  EXPECT_DOUBLE_EQ(engine.HeatOf("/hot"), 4.0);
  AdvanceSeconds(60.0);  // one decay interval
  EXPECT_NEAR(engine.HeatOf("/hot"), 2.0, 1e-9);
  AdvanceSeconds(30.0);  // half an interval: continuous, not stepwise
  EXPECT_NEAR(engine.HeatOf("/hot"), 2.0 / std::sqrt(2.0), 1e-9);
}

TEST_F(TieringEngineTest, LongIdleGapDecaysInOneStep) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  for (int i = 0; i < 5; ++i) engine.RecordAccess("/hot");
  // 1000 decay intervals in one jump: the lazy per-entry decay must not
  // iterate per interval, overflow, or leave residual heat.
  AdvanceSeconds(1000 * 60.0);
  EXPECT_NEAR(engine.HeatOf("/hot"), 0.0, 1e-12);
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->promotions, 0);
  // The stone-cold entry was garbage-collected.
  EXPECT_DOUBLE_EQ(engine.HeatOf("/hot"), 0.0);
}

// ---- lifecycle regressions ------------------------------------------------

// Regression: with path-keyed state, renaming a promoted file stranded
// the manager-added memory replica forever (the eviction hit NotFound
// under the old path, dropped the accounting, and the +1 memory replica
// survived under the new name).
TEST_F(TieringEngineTest, RenamedFileIsEvictedUnderItsNewPath) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  for (int i = 0; i < 5; ++i) engine.RecordAccess("/hot");
  ASSERT_TRUE(engine.Tick().ok());
  Settle();
  ASSERT_EQ(RepVector("/hot"), ReplicationVector::Of(1, 0, 2));

  ASSERT_TRUE(fs_->Rename("/hot", "/renamed").ok());
  EXPECT_TRUE(engine.IsManaged("/renamed"));
  EXPECT_FALSE(engine.IsManaged("/hot"));

  AdvanceSeconds(600.0);  // cool far below every threshold
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->evictions, 1);
  EXPECT_EQ(report->eviction_skips, 0);
  EXPECT_FALSE(engine.IsManaged("/renamed"));
  Settle();
  // The engine's replica is gone; the durable ones are intact.
  EXPECT_EQ(RepVector("/renamed"), ReplicationVector::Of(0, 0, 2));
}

TEST_F(TieringEngineTest, DirectoryRenameRekeysTheSubtree) {
  CreateOptions options;
  options.rep_vector = ReplicationVector::Of(0, 0, 2);
  options.block_size = kMiB;
  ASSERT_TRUE(
      fs_->WriteFile("/dir/f", std::string(2 * kMiB, 'd'), options).ok());
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  for (int i = 0; i < 5; ++i) engine.RecordAccess("/dir/f");
  ASSERT_TRUE(engine.Tick().ok());
  Settle();

  ASSERT_TRUE(fs_->Rename("/dir", "/dir2").ok());
  EXPECT_TRUE(engine.IsManaged("/dir2/f"));
  EXPECT_FALSE(engine.IsManaged("/dir/f"));

  AdvanceSeconds(600.0);
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->evictions, 1);
  Settle();
  EXPECT_EQ(RepVector("/dir2/f"), ReplicationVector::Of(0, 0, 2));
}

// Regression: the old eviction counted an eviction (and its bytes) even
// when it skipped the actual replica removal because the user had
// already removed the manager's replica.
TEST_F(TieringEngineTest, UserRemovedReplicaIsASkipNotAnEviction) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  for (int i = 0; i < 5; ++i) engine.RecordAccess("/hot");
  ASSERT_TRUE(engine.Tick().ok());
  Settle();
  ASSERT_EQ(RepVector("/hot"), ReplicationVector::Of(1, 0, 2));

  // The user strips the memory replica the engine added.
  ASSERT_TRUE(
      fs_->SetReplication("/hot", ReplicationVector::Of(0, 0, 2)).ok());
  Settle();

  AdvanceSeconds(600.0);
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->evictions, 0);
  EXPECT_EQ(report->bytes_evicted, 0);
  EXPECT_EQ(report->eviction_skips, 1);
  EXPECT_FALSE(engine.IsManaged("/hot"));
}

// Regression companion: when removing the engine's replica would drop
// the file's LAST replica, the engine must keep the data and report a
// skip — previously this also counted as a full eviction.
TEST_F(TieringEngineTest, LastReplicaIsNeverDropped) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  for (int i = 0; i < 5; ++i) engine.RecordAccess("/hot");
  ASSERT_TRUE(engine.Tick().ok());
  Settle();

  // The user reduces the file to just the (engine-added) memory replica.
  ASSERT_TRUE(
      fs_->SetReplication("/hot", ReplicationVector::Of(1, 0, 0)).ok());
  Settle();

  AdvanceSeconds(600.0);
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->evictions, 0);
  EXPECT_EQ(report->eviction_skips, 1);
  EXPECT_FALSE(engine.IsManaged("/hot"));
  // The last replica survives.
  EXPECT_EQ(RepVector("/hot"), ReplicationVector::Of(1, 0, 0));
}

TEST_F(TieringEngineTest, DeleteRetiresStateImmediately) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  for (int i = 0; i < 5; ++i) engine.RecordAccess("/hot");
  ASSERT_TRUE(engine.Tick().ok());
  Settle();

  ASSERT_TRUE(fs_->Delete("/hot", /*recursive=*/false,
                          /*skip_trash=*/true)
                  .ok());
  EXPECT_FALSE(engine.IsManaged("/hot"));
  // The hook-observed eviction surfaces in the next report, keeping the
  // budget accounting truthful without touching the (gone) file.
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->evictions, 1);
  EXPECT_EQ(report->bytes_evicted, 2 * kMiB);
}

// ---- migration policy -----------------------------------------------------

TEST_F(TieringEngineTest, FilesMigrateUpAndThenDown) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  for (int i = 0; i < 10; ++i) engine.RecordAccess("/hot");
  auto up = engine.Tick();
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->promotions, 1);
  EXPECT_EQ(engine.ManagedLevel("/hot"), 0);
  Settle();
  ASSERT_EQ(RepVector("/hot"), ReplicationVector::Of(1, 0, 2));

  // Two decay intervals: heat 10 -> 2.5, below Memory (3) but still
  // above SSD (1): the file steps DOWN a level instead of leaving.
  AdvanceSeconds(120.0);
  auto down = engine.Tick();
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down->demotions, 1);
  EXPECT_EQ(down->evictions, 0);
  EXPECT_EQ(engine.ManagedLevel("/hot"), 1);
  Settle();
  EXPECT_EQ(RepVector("/hot"), ReplicationVector::Of(0, 1, 2));

  // Two more intervals: heat 0.625, below SSD too: fully evicted.
  AdvanceSeconds(120.0);
  auto out = engine.Tick();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->evictions, 1);
  EXPECT_EQ(engine.ManagedLevel("/hot"), -1);
  Settle();
  EXPECT_EQ(RepVector("/hot"), ReplicationVector::Of(0, 0, 2));
}

TEST_F(TieringEngineTest, FullFastLevelSpillsToTheColderLevel) {
  TieringOptions options = TwoLevelOptions();
  // Memory budget: 3 workers x 8 MiB x fraction = one 2 MiB file.
  options.levels[0].capacity_fraction = 2.0 * kMiB / (3 * 8 * kMiB);
  TieringEngine engine(cluster_->master(), options);
  for (int i = 0; i < 10; ++i) engine.RecordAccess("/hot");
  for (int i = 0; i < 9; ++i) engine.RecordAccess("/warm");
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->promotions, 2);
  // The hottest file takes the Memory budget; the runner-up is hot
  // enough for Memory but spills to the SSD level.
  EXPECT_EQ(engine.ManagedLevel("/hot"), 0);
  EXPECT_EQ(engine.ManagedLevel("/warm"), 1);
  Settle();
  EXPECT_EQ(RepVector("/hot"), ReplicationVector::Of(1, 0, 2));
  EXPECT_EQ(RepVector("/warm"), ReplicationVector::Of(0, 1, 2));
}

TEST_F(TieringEngineTest, MarkedlyHotterFileDisplacesAColderResident) {
  TieringOptions options;
  // A single Memory level sized for one file: no spill target, so the
  // replacement policy has to displace.
  options.levels = {{kMemoryTier, 2.0 * kMiB / (3 * 8 * kMiB), 3.0}};
  options.collect_access_stats = false;
  TieringEngine engine(cluster_->master(), options);

  for (int i = 0; i < 5; ++i) engine.RecordAccess("/warm");
  ASSERT_TRUE(engine.Tick().ok());
  ASSERT_TRUE(engine.IsManaged("/warm"));

  for (int i = 0; i < 20; ++i) engine.RecordAccess("/hot");
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->promotions, 1);
  EXPECT_EQ(report->evictions, 1);  // the displaced resident
  EXPECT_TRUE(engine.IsManaged("/hot"));
  EXPECT_FALSE(engine.IsManaged("/warm"));
  Settle();
  EXPECT_EQ(RepVector("/hot"), ReplicationVector::Of(1, 0, 2));
  EXPECT_EQ(RepVector("/warm"), ReplicationVector::Of(0, 0, 2));
}

// A one-off scan touches everything once: nothing clears the admission
// thresholds, so the scan cannot flush the fast tiers.
TEST_F(TieringEngineTest, SingleScanDoesNotPolluteTheManagedSet) {
  TieringEngine engine(cluster_->master(), TwoLevelOptions());
  // An established hot file...
  for (int i = 0; i < 10; ++i) engine.RecordAccess("/hot");
  ASSERT_TRUE(engine.Tick().ok());
  ASSERT_EQ(engine.ManagedLevel("/hot"), 0);
  // ...then a full scan touching every file once (below both
  // thresholds; SSD admission needs sustained re-reads, not one pass).
  for (const char* name : {"/hot", "/warm", "/cold"}) {
    engine.RecordAccess(name, 0.9);
  }
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->promotions, 0);
  EXPECT_EQ(engine.ManagedLevel("/hot"), 0);  // undisturbed
  EXPECT_FALSE(engine.IsManaged("/warm"));
  EXPECT_FALSE(engine.IsManaged("/cold"));
}

}  // namespace
}  // namespace octo

// Tests for cluster-level services: BlockManager bookkeeping, the Backup
// Master (sync / checkpoint / failover), the Worker class, and Cluster
// control loops.

#include <gtest/gtest.h>

#include "cluster/backup_master.h"
#include "cluster/block_manager.h"
#include "cluster/cluster.h"
#include "cluster/worker.h"
#include "common/units.h"

namespace octo {
namespace {

const UserContext kRoot{"root", {}};

// ---------------------------------------------------------------------------
// BlockManager

TEST(BlockManagerTest, AddFindRemove) {
  BlockManager bm;
  BlockId id = bm.NextBlockId();
  BlockRecord record;
  record.id = id;
  record.file = "/f";
  record.length = 100;
  record.expected = ReplicationVector::OfTotal(3);
  ASSERT_TRUE(bm.AddBlock(record).ok());
  EXPECT_TRUE(bm.AddBlock(record).IsAlreadyExists());
  EXPECT_NE(bm.Find(id), nullptr);
  EXPECT_EQ(bm.NumBlocks(), 1);
  ASSERT_TRUE(bm.RemoveBlock(id).ok());
  EXPECT_TRUE(bm.RemoveBlock(id).IsNotFound());
  EXPECT_EQ(bm.Find(id), nullptr);
}

TEST(BlockManagerTest, ReplicaBookkeeping) {
  BlockManager bm;
  BlockRecord record;
  record.id = 1;
  ASSERT_TRUE(bm.AddBlock(record).ok());
  ASSERT_TRUE(bm.AddReplica(1, 10).ok());
  ASSERT_TRUE(bm.AddReplica(1, 11).ok());
  EXPECT_TRUE(bm.AddReplica(1, 10).IsAlreadyExists());
  EXPECT_TRUE(bm.AddReplica(2, 10).IsNotFound());
  EXPECT_EQ(bm.BlocksOnMedium(10), (std::vector<BlockId>{1}));
  ASSERT_TRUE(bm.RemoveReplica(1, 10).ok());
  EXPECT_TRUE(bm.RemoveReplica(1, 10).IsNotFound());
  EXPECT_TRUE(bm.BlocksOnMedium(10).empty());
}

TEST(BlockManagerTest, NextBlockIdSkipsExistingIds) {
  BlockManager bm;
  BlockRecord record;
  record.id = 100;
  ASSERT_TRUE(bm.AddBlock(record).ok());
  EXPECT_GT(bm.NextBlockId(), 100);
}

// ---------------------------------------------------------------------------
// Worker

TEST(WorkerTest, AttachAndDataPlane) {
  WorkerOptions options;
  options.location = NetworkLocation("r1", "n1");
  Worker worker(0, options, nullptr);
  MediumSpec spec{kHddTier, MediaType::kHdd, 1000, 1e8, 1e8};
  ASSERT_TRUE(worker.AttachMedium(5, spec).ok());
  EXPECT_TRUE(worker.AttachMedium(5, spec).status().IsAlreadyExists());

  ASSERT_TRUE(worker.WriteBlock(5, 1, "data").ok());
  EXPECT_TRUE(worker.HasBlock(5, 1));
  EXPECT_EQ(*worker.ReadBlock(5, 1), "data");
  EXPECT_EQ(*worker.RemainingBytes(5), 996);
  ASSERT_TRUE(worker.DeleteBlock(5, 1).ok());
  EXPECT_FALSE(worker.HasBlock(5, 1));
  EXPECT_TRUE(worker.WriteBlock(99, 1, "x").IsNotFound());
}

TEST(WorkerTest, CapacityEnforced) {
  WorkerOptions options;
  options.location = NetworkLocation("r1", "n1");
  Worker worker(0, options, nullptr);
  MediumSpec spec{kHddTier, MediaType::kHdd, 10, 1e8, 1e8};
  ASSERT_TRUE(worker.AttachMedium(0, spec).ok());
  EXPECT_TRUE(worker.WriteBlock(0, 1, "12345678901").IsNoSpace());
  ASSERT_TRUE(worker.WriteBlock(0, 1, "1234567890").ok());
}

TEST(WorkerTest, VirtualBytesCountAgainstCapacity) {
  WorkerOptions options;
  options.location = NetworkLocation("r1", "n1");
  Worker worker(0, options, nullptr);
  MediumSpec spec{kHddTier, MediaType::kHdd, 100, 1e8, 1e8};
  ASSERT_TRUE(worker.AttachMedium(0, spec).ok());
  ASSERT_TRUE(worker.AddVirtualBytes(0, 90).ok());
  EXPECT_EQ(*worker.RemainingBytes(0), 10);
  EXPECT_TRUE(worker.WriteBlock(0, 1, std::string(11, 'x')).IsNoSpace());
  ASSERT_TRUE(worker.AddVirtualBytes(0, -200).ok());  // clamps at 0
  EXPECT_EQ(*worker.RemainingBytes(0), 100);
}

TEST(WorkerTest, HeartbeatAndBlockReport) {
  WorkerOptions options;
  options.location = NetworkLocation("r1", "n1");
  Worker worker(3, options, nullptr);
  ASSERT_TRUE(
      worker.AttachMedium(0, {kHddTier, MediaType::kHdd, 100, 1e8, 1e8})
          .ok());
  ASSERT_TRUE(
      worker.AttachMedium(1, {kSsdTier, MediaType::kSsd, 200, 3e8, 4e8})
          .ok());
  ASSERT_TRUE(worker.WriteBlock(0, 7, "abc").ok());
  HeartbeatPayload hb = worker.BuildHeartbeat();
  EXPECT_EQ(hb.worker, 3);
  ASSERT_EQ(hb.media.size(), 2u);
  EXPECT_EQ(hb.media[0].remaining_bytes, 97);
  BlockReport report = worker.BuildBlockReport();
  ASSERT_EQ(report[0].size(), 1u);
  EXPECT_EQ(report[0][0].block, 7);
  EXPECT_EQ(report[0][0].length, 3);
  EXPECT_TRUE(report[0][0].finalized);
  EXPECT_TRUE(report[1].empty());
}

TEST(WorkerTest, SharedMediumSplitsUsageAcrossSharers) {
  WorkerOptions options;
  options.location = NetworkLocation("r1", "n1");
  Worker w1(0, options, nullptr);
  options.location = NetworkLocation("r1", "n2");
  Worker w2(1, options, nullptr);
  auto store = std::make_shared<MemoryBlockStore>();
  MediumSpec spec{kRemoteTier, MediaType::kRemote, 1000, 1e8, 1e8};
  ASSERT_TRUE(w1.AttachSharedMedium(10, spec, store, 2,
                                    sim::kInvalidResource,
                                    sim::kInvalidResource)
                  .ok());
  ASSERT_TRUE(w2.AttachSharedMedium(11, spec, store, 2,
                                    sim::kInvalidResource,
                                    sim::kInvalidResource)
                  .ok());
  // Writes through either worker land in the same store; each worker
  // attributes half of the shared usage to itself.
  ASSERT_TRUE(w1.WriteBlock(10, 1, std::string(100, 'x')).ok());
  EXPECT_TRUE(w2.HasBlock(11, 1));
  EXPECT_EQ(*w1.RemainingBytes(10), 950);
  EXPECT_EQ(*w2.RemainingBytes(11), 950);
}

// ---------------------------------------------------------------------------
// BackupMaster

TEST(BackupMasterTest, SyncTracksEditLog) {
  Master primary(MasterOptions{}, SystemClock::Default());
  BackupMaster backup(&primary, SystemClock::Default());
  ASSERT_TRUE(primary.Mkdirs("/a", kRoot).ok());
  ASSERT_TRUE(backup.Sync().ok());
  EXPECT_TRUE(backup.mirror().Exists("/a"));
  ASSERT_TRUE(primary.Mkdirs("/b", kRoot).ok());
  EXPECT_FALSE(backup.mirror().Exists("/b"));  // not synced yet
  ASSERT_TRUE(backup.Sync().ok());
  EXPECT_TRUE(backup.mirror().Exists("/b"));
  EXPECT_EQ(backup.synced_entries(), 2);
}

TEST(BackupMasterTest, CheckpointMarksLog) {
  Master primary(MasterOptions{}, SystemClock::Default());
  BackupMaster backup(&primary, SystemClock::Default());
  ASSERT_TRUE(primary.Mkdirs("/a", kRoot).ok());
  auto image = backup.CreateCheckpoint();
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(primary.edit_log()->checkpointed(), 1);
  EXPECT_NE(image->find("/a"), std::string::npos);
}

TEST(BackupMasterTest, TakeOverWithoutCheckpointReplaysWholeLog) {
  Master primary(MasterOptions{}, SystemClock::Default());
  BackupMaster backup(&primary, SystemClock::Default());
  ASSERT_TRUE(primary.Mkdirs("/only-in-log", kRoot).ok());
  auto replacement =
      backup.TakeOver(MasterOptions{}, SystemClock::Default());
  ASSERT_TRUE(replacement.ok());
  EXPECT_TRUE((*replacement)->GetFileStatus("/only-in-log", kRoot).ok());
}

// ---------------------------------------------------------------------------
// Cluster orchestration

TEST(ClusterTest, CreateValidatesSpec) {
  ClusterSpec bad;
  bad.num_racks = 0;
  EXPECT_TRUE(Cluster::Create(bad).status().IsInvalidArgument());
  ClusterSpec no_media;
  no_media.media_per_worker.clear();
  EXPECT_TRUE(Cluster::Create(no_media).status().IsInvalidArgument());
}

TEST(ClusterTest, PaperSpecShapesTheCluster) {
  auto cluster = Cluster::Create(PaperClusterSpec());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->worker_ids().size(), 9u);
  const ClusterState& state = (*cluster)->master()->cluster_state();
  EXPECT_EQ(state.NumActiveTiers(), 3);
  EXPECT_EQ(state.media().size(), 45u);  // 5 media x 9 workers
  // Profiled rates match Table 2 (media profiled through the simulator).
  EXPECT_NEAR(ToMBps(state.TierAvgWriteBps(kMemoryTier)), 1897.4, 0.1);
  EXPECT_NEAR(ToMBps(state.TierAvgReadBps(kHddTier)), 177.1, 0.1);
}

TEST(ClusterTest, StoppedWorkerSkippedByPump) {
  auto cluster = Cluster::Create(PaperClusterSpec());
  ASSERT_TRUE(cluster.ok());
  WorkerId victim = (*cluster)->worker_ids()[0];
  (*cluster)->StopWorker(victim);
  EXPECT_TRUE((*cluster)->IsStopped(victim));
  ASSERT_TRUE((*cluster)->PumpHeartbeats().ok());
  EXPECT_FALSE(
      (*cluster)->master()->cluster_state().FindWorker(victim)->alive);
  (*cluster)->RestartWorker(victim);
  ASSERT_TRUE((*cluster)->PumpHeartbeats().ok());
  EXPECT_TRUE(
      (*cluster)->master()->cluster_state().FindWorker(victim)->alive);
}

}  // namespace
}  // namespace octo

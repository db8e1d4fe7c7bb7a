// Tests for tier balancing (Master::BalanceTiers) and the replica-move
// protocol it shares with the repair scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/units.h"

namespace octo {
namespace {

// One rack, 4 workers, single HDD each — imbalance is easy to create by
// writing with replication 1 through a single client (client-local first
// replica piles everything on one node).
ClusterSpec SkewSpec() {
  ClusterSpec spec;
  spec.num_racks = 1;
  spec.workers_per_rack = 4;
  MediumSpec hdd{kHddTier, MediaType::kHdd, 64 * kMiB, FromMBps(126),
                 FromMBps(177)};
  spec.media_per_worker = {hdd};
  return spec;
}

// Standard deviation of the remaining fractions of a tier's live media.
double TierImbalance(const ClusterState& state, TierId tier) {
  std::vector<double> fractions;
  for (uint32_t slot : state.live_media_on_tier(tier)) {
    fractions.push_back(state.media_slab()[slot].remaining_fraction());
  }
  if (fractions.size() < 2) return 0;
  double mean = 0;
  for (double f : fractions) mean += f;
  mean /= static_cast<double>(fractions.size());
  double var = 0;
  for (double f : fractions) var += (f - mean) * (f - mean);
  return std::sqrt(var / static_cast<double>(fractions.size()));
}

// Writes six 4 MiB single-replica files, all onto node0's disk.
void WriteSkew(Cluster* cluster, const ReplicationVector& rv) {
  FileSystem fs(cluster, NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.rep_vector = rv;
  options.block_size = 4 * kMiB;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fs.WriteFile("/skew/f" + std::to_string(i),
                             std::string(4 * kMiB, 'x'), options)
                    .ok());
  }
}

// Balancing passes until one schedules nothing. Two pumps per pass: the
// first executes the queued commands, the second delivers heartbeats
// reflecting them (a worker heartbeats before executing the commands of
// the same round).
void BalanceToQuiescence(Cluster* cluster) {
  for (int pass = 0; pass < 10; ++pass) {
    auto report = cluster->master()->BalanceTiers();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(cluster->PumpHeartbeats().ok());
    ASSERT_TRUE(cluster->PumpHeartbeats().ok());
    if (report->moves_scheduled == 0) break;
  }
}

// Queued kCopyReplica commands per (worker, block).
std::map<std::pair<WorkerId, BlockId>, int> QueuedCopies(Cluster* cluster) {
  std::map<std::pair<WorkerId, BlockId>, int> copies;
  for (WorkerId w : cluster->worker_ids()) {
    for (const WorkerCommand& cmd :
         cluster->master()->QueuedCommandsForTest(w)) {
      if (cmd.kind == WorkerCommand::Kind::kCopyReplica) {
        ++copies[{w, cmd.block}];
      }
    }
  }
  return copies;
}

class RebalancerTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(SkewSpec()); }

  void Build(const ClusterSpec& spec) {
    auto cluster = Cluster::Create(spec);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    WriteSkew(cluster_.get(), ReplicationVector::OfTotal(1));
  }

  BlockId BlockOf(const std::string& path) {
    FileSystem fs(cluster_.get(), NetworkLocation("rack0", "node0"));
    auto located = fs.GetFileBlockLocations(path, 0, 1);
    OCTO_CHECK(located.ok() && !located->empty());
    return (*located)[0].block.id;
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(RebalancerTest, DetectsAndFixesImbalance) {
  Master* master = cluster_->master();
  const ClusterState& state = master->cluster_state();
  double before = TierImbalance(state, kHddTier);
  EXPECT_GT(before, 0.10);  // node0's disk is much fuller than the rest

  auto report = master->BalanceTiers();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->moves_scheduled, 0);
  EXPECT_EQ(report->overfull_media, 1);
  EXPECT_EQ(report->bytes_scheduled, report->moves_scheduled * 4 * kMiB);
  ASSERT_TRUE(cluster_->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster_->PumpHeartbeats().ok());
  BalanceToQuiescence(cluster_.get());

  double after = TierImbalance(state, kHddTier);
  EXPECT_LT(after, before);
  EXPECT_LT(after, 0.12);

  // All data remains intact and every block still has one replica.
  FileSystem fs(cluster_.get(), NetworkLocation("rack0", "node0"));
  for (int i = 0; i < 6; ++i) {
    auto data = fs.ReadFile("/skew/f" + std::to_string(i));
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(data->size(), 4u * kMiB);
  }
  master->block_manager().ForEach([](const BlockRecord& rec) {
    EXPECT_EQ(rec.locations.size(), 1u);
  });
  // Moves are repair-plane copies: each one committed, none re-replicated.
  RepairStats stats = master->repair_stats();
  EXPECT_GT(stats.migrations, 0);
  EXPECT_EQ(stats.copies_completed, stats.migrations);
  EXPECT_EQ(stats.re_replications, 0);
}

TEST_F(RebalancerTest, BalancedClusterIsLeftAlone) {
  BalanceToQuiescence(cluster_.get());
  auto idle = cluster_->master()->BalanceTiers();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->moves_scheduled, 0);
  EXPECT_EQ(idle->overfull_media, 0);
  EXPECT_TRUE(cluster_->master()->InflightCopiesForTest().empty());
}

TEST_F(RebalancerTest, MovesStayWithinTheTier) {
  // Add an (empty) SSD tier; rebalancing HDD data must not migrate there.
  ClusterSpec spec = SkewSpec();
  MediumSpec ssd{kSsdTier, MediaType::kSsd, 64 * kMiB, FromMBps(340),
                 FromMBps(420)};
  spec.media_per_worker.push_back(ssd);
  auto cluster = Cluster::Create(spec);
  ASSERT_TRUE(cluster.ok());
  WriteSkew(cluster->get(), ReplicationVector::Of(0, 0, 1));
  Master* master = (*cluster)->master();
  auto first = master->BalanceTiers();
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->moves_scheduled, 0);
  BalanceToQuiescence(cluster->get());
  master->block_manager().ForEach([&](const BlockRecord& rec) {
    for (MediumId m : rec.locations) {
      EXPECT_EQ(master->cluster_state().FindMedium(m)->tier, kHddTier);
    }
  });
}

TEST_F(RebalancerTest, RepeatedPassDoesNotMoveABlockTwice) {
  Master* master = cluster_->master();
  auto first = master->BalanceTiers();
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->moves_scheduled, 0);
  auto inflight = master->InflightCopiesForTest();
  // While the first pass's copies are in flight, a second pass finds the
  // same overfull medium but its quota is already on the move.
  auto second = master->BalanceTiers();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->overfull_media, 1);
  EXPECT_EQ(second->moves_scheduled, 0);
  EXPECT_EQ(master->InflightCopiesForTest(), inflight);
  for (const auto& [key, count] : QueuedCopies(cluster_.get())) {
    EXPECT_EQ(count, 1) << "block " << key.second;
  }
}

TEST_F(RebalancerTest, MoveOnlyInvalidatesSourceAfterCopyConfirms) {
  Master* master = cluster_->master();
  BlockId block = BlockOf("/skew/f0");
  const BlockRecord* record = master->block_manager().Find(block);
  ASSERT_EQ(record->locations.size(), 1u);
  MediumId source = record->locations[0];
  ASSERT_TRUE(master->BalanceTiers().ok());
  auto inflight = master->InflightCopiesForTest();
  ASSERT_FALSE(inflight.empty());
  // Until the copies confirm, every source replica is still registered
  // (no window with zero replicas).
  master->block_manager().ForEach([&](const BlockRecord& rec) {
    ASSERT_EQ(rec.locations.size(), 1u);
    EXPECT_EQ(rec.locations[0], source);
  });
  // Execute the copies; afterwards each moved replica lives elsewhere.
  ASSERT_TRUE(cluster_->PumpHeartbeats().ok());
  for (const auto& [moved, target] : inflight) {
    record = master->block_manager().Find(moved);
    ASSERT_EQ(record->locations.size(), 1u);
    EXPECT_EQ(record->locations[0], target);
  }
  EXPECT_TRUE(master->InflightCopiesForTest().empty());
}

TEST_F(RebalancerTest, MovesYieldWhenTheRepairBudgetIsFull) {
  // One in-flight repair copy per worker: the fourth move of a pass finds
  // every other worker busy and is deferred, not failed.
  ClusterSpec spec = SkewSpec();
  spec.master.repair.max_inflight_per_worker = 1;
  Build(spec);
  Master* master = cluster_->master();
  auto report = master->BalanceTiers();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->moves_scheduled, 3);
  EXPECT_EQ(report->moves_deferred, 1);
  EXPECT_EQ(master->repair_stats().deferred, 1);
  for (WorkerId w : cluster_->worker_ids()) {
    EXPECT_LE(master->RepairInflightForWorker(w), 1);
  }
  // Later passes pick the deferred moves up once the copies land.
  ASSERT_TRUE(cluster_->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster_->PumpHeartbeats().ok());
  auto next = master->BalanceTiers();
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next->moves_scheduled, 0);
}

// Regression: a balancing move used to place with only the block's
// current replicas excluded. With a re-replication copy of the same block
// in flight it could pick that copy's target again, queue a second
// kCopyReplica there and overwrite the in-flight entry; the move then
// retired the source on the repair copy's commit, leaving the block under
// replicated and needing a second re-replication.
TEST_F(RebalancerTest, MoveAvoidsTheTargetOfAnInflightRepairCopy) {
  Master* master = cluster_->master();
  BlockId block = BlockOf("/skew/f0");
  FileSystem fs(cluster_.get(), NetworkLocation("rack0", "node0"));
  ASSERT_TRUE(fs.SetReplication("/skew/f0", ReplicationVector::OfTotal(2))
                  .ok());
  ASSERT_EQ(master->InflightCopiesForTest().size(), 1u);
  MediumId repair_target = master->InflightCopiesForTest()[0].second;

  ASSERT_TRUE(master->BalanceTiers().ok());
  // Two in-flight copies of the block, to two different targets: the
  // repair copy and the move.
  std::vector<MediumId> targets;
  for (const auto& [moved, target] : master->InflightCopiesForTest()) {
    if (moved == block) targets.push_back(target);
  }
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_TRUE(targets[0] == repair_target || targets[1] == repair_target);
  for (const auto& [key, count] : QueuedCopies(cluster_.get())) {
    EXPECT_EQ(count, 1) << "block " << key.second << " on worker "
                        << key.first;
  }

  ASSERT_TRUE(cluster_->RunReplicationToQuiescence().ok());
  const BlockRecord* record = master->block_manager().Find(block);
  EXPECT_EQ(record->locations.size(), 2u);
  EXPECT_EQ(master->repair_stats().re_replications, 1);
}

// Balancing passes racing the heartbeat/command loop: BalanceTiers reads
// cluster state and block records only under the master's service lock.
// Labelled "concurrency" so the tsan stage of tools/check_sanitizers.sh
// runs it.
TEST(RebalancerConcurrencyTest, BalancingRacesHeartbeats) {
  ClusterSpec spec = SkewSpec();
  spec.with_simulation = false;
  auto cluster = Cluster::Create(spec);
  ASSERT_TRUE(cluster.ok());
  WriteSkew(cluster->get(), ReplicationVector::OfTotal(1));
  Master* master = (*cluster)->master();

  std::atomic<bool> done{false};
  std::thread balancer([&] {
    for (int pass = 0; pass < 50; ++pass) {
      auto report = master->BalanceTiers();
      EXPECT_TRUE(report.ok()) << report.status().ToString();
    }
    done.store(true);
  });
  while (!done.load()) {
    auto pumped = (*cluster)->PumpHeartbeats();
    EXPECT_TRUE(pumped.ok()) << pumped.status().ToString();
  }
  balancer.join();
  BalanceToQuiescence(cluster->get());
  ASSERT_TRUE((*cluster)->RunReplicationToQuiescence().ok());

  int blocks = 0;
  master->block_manager().ForEach([&](const BlockRecord& rec) {
    ++blocks;
    EXPECT_EQ(rec.locations.size(), 1u);
  });
  EXPECT_EQ(blocks, 6);
  EXPECT_LT(TierImbalance(master->cluster_state(), kHddTier), 0.12);
}

}  // namespace
}  // namespace octo

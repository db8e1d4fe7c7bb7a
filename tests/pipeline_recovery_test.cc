// Write-pipeline recovery tests: generation-stamp allocation, journaling
// and failover survival; mid-block pipeline repair that resumes from the
// acked offset instead of retransmitting the block; stale-replica
// exclusion from reads and re-replication; lease-driven block recovery
// (the commitBlockSynchronization analogue) reconciling divergent
// replica lengths; Hflush durability; whole-medium failure; and a seeded
// chaos property test asserting zero acked-or-hflushed byte loss under
// any single injected pipeline/writer/recovery fault.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "common/units.h"
#include "fault/fault.h"

namespace octo {
namespace {

using fault::FaultRegistry;
using fault::FaultSpec;
using fault::Site;

ClusterSpec SmallSpec() {
  ClusterSpec spec;
  spec.num_racks = 2;
  spec.workers_per_rack = 3;
  MediumSpec hdd{kHddTier, MediaType::kHdd, 256 * kMiB, FromMBps(126),
                 FromMBps(177)};
  spec.media_per_worker = {hdd, hdd};
  return spec;
}

/// Advances the cluster's simulated clock (heartbeats, leases, and the
/// command/worker timeouts all read it).
void AdvanceSim(Cluster* cluster, double seconds) {
  cluster->simulation()->Schedule(seconds, [] {});
  cluster->simulation()->RunUntilIdle();
}

WorkerId WorkerOfMedium(Cluster* cluster, MediumId medium) {
  const MediumInfo* info =
      cluster->master()->cluster_state().FindMedium(medium);
  return info != nullptr ? info->worker : kInvalidWorker;
}

struct RbwReplica {
  WorkerId worker = kInvalidWorker;
  MediumId medium = kInvalidMedium;
  ReplicaInfo info;
};

/// Finds every under-construction (RBW) replica in the cluster — the
/// pipeline of the one file a test is writing. Returns the block id via
/// `block_out` (kInvalidBlock when none found).
std::vector<RbwReplica> FindRbwReplicas(Cluster* cluster,
                                        BlockId* block_out) {
  std::vector<RbwReplica> out;
  *block_out = kInvalidBlock;
  for (WorkerId id : cluster->worker_ids()) {
    if (cluster->IsStopped(id)) continue;
    Worker* worker = cluster->worker(id);
    for (const auto& [medium, replicas] : worker->BuildBlockReport()) {
      for (const ReplicaDescriptor& r : replicas) {
        if (r.finalized) continue;
        *block_out = r.block;
        ReplicaInfo info{r.length, r.genstamp, ReplicaState::kRbw};
        out.push_back(RbwReplica{id, medium, info});
      }
    }
  }
  return out;
}

/// Asserts every registered replica of `block` matches the master's
/// record on (genstamp, length) and is finalized.
void ExpectReplicasAgree(Cluster* cluster, BlockId block) {
  const BlockRecord* record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr) << "block " << block;
  for (MediumId medium : record->locations) {
    WorkerId w = WorkerOfMedium(cluster, medium);
    ASSERT_NE(w, kInvalidWorker);
    if (cluster->IsStopped(w)) continue;
    auto info = cluster->worker(w)->GetReplicaInfo(medium, block);
    ASSERT_TRUE(info.ok()) << "block " << block << " medium " << medium
                           << ": " << info.status().ToString();
    EXPECT_EQ(info->genstamp, record->genstamp)
        << "block " << block << " medium " << medium;
    EXPECT_EQ(info->length, record->length)
        << "block " << block << " medium " << medium;
    EXPECT_EQ(info->state, ReplicaState::kFinalized)
        << "block " << block << " medium " << medium;
  }
}

// ---------------------------------------------------------------------------
// Generation stamps: allocation, journaling, failover survival

TEST(GenstampTest, MonotonicJournaledAndSurvivesFailover) {
  auto cluster = std::move(Cluster::Create(SmallSpec())).value();
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = kMiB;

  auto genstamp_of = [&](const std::string& path) -> uint64_t {
    auto located = fs.GetFileBlockLocations(path, 0, 1);
    EXPECT_TRUE(located.ok());
    return (*located)[0].block.genstamp;
  };

  ASSERT_TRUE(fs.WriteFile("/a", std::string(64 * 1024, 'a'), options).ok());
  uint64_t g1 = genstamp_of("/a");
  EXPECT_GT(g1, 0u);
  ASSERT_TRUE(fs.WriteFile("/b", std::string(64 * 1024, 'b'), options).ok());
  uint64_t g2 = genstamp_of("/b");
  EXPECT_GT(g2, g1);
  EXPECT_GE(cluster->master()->current_genstamp(), g2);

  // A promoted backup must continue the genstamp sequence above every
  // stamp the old primary handed out (like the fencing epoch): a reused
  // stamp would make a stale replica indistinguishable from a fresh one.
  ASSERT_TRUE(cluster->EnableBackup().ok());
  ASSERT_TRUE(fs.WriteFile("/c", std::string(64 * 1024, 'c'), options).ok());
  uint64_t g3 = genstamp_of("/c");
  EXPECT_GT(g3, g2);
  cluster->CrashMaster();
  ASSERT_TRUE(cluster->PromoteBackup().ok());
  ASSERT_TRUE(cluster->SendBlockReports().ok());
  EXPECT_GE(cluster->master()->current_genstamp(), g3);
  ASSERT_TRUE(fs.WriteFile("/d", std::string(64 * 1024, 'd'), options).ok());
  EXPECT_GT(genstamp_of("/d"), g3);
}

// ---------------------------------------------------------------------------
// Tentpole: mid-block pipeline failure resumes from the acked offset

TEST(PipelineRecoveryTest, MidBlockFailureResumesFromAckedOffset) {
  auto cluster = std::move(Cluster::Create(SmallSpec())).value();
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  const std::string first(512 * 1024, 'x');
  const std::string second(512 * 1024, 'y');
  const std::string content = first + second;

  CreateOptions options;
  options.block_size = kMiB;
  auto writer = fs.Create("/f", options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Write(first).ok());
  ASSERT_TRUE((*writer)->Hflush().ok());

  BlockId block = kInvalidBlock;
  std::vector<RbwReplica> pipeline = FindRbwReplicas(cluster.get(), &block);
  ASSERT_EQ(pipeline.size(), 3u);
  for (const RbwReplica& r : pipeline) {
    EXPECT_EQ(r.info.length, static_cast<int64_t>(first.size()));
  }
  uint64_t old_genstamp = pipeline[0].info.genstamp;
  const RbwReplica victim = pipeline[0];
  cluster->StopWorker(victim.worker);

  ASSERT_TRUE((*writer)->Write(second).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ((*writer)->pipeline_recoveries(), 1);
  // The acceptance bar: recovery resumed the same block from the acked
  // offset, so the retransmitted bytes stay under one block.
  EXPECT_LT((*writer)->bytes_streamed() -
                static_cast<int64_t>(content.size()),
            options.block_size);
  EXPECT_GE((*writer)->bytes_streamed(),
            static_cast<int64_t>(content.size()));
  EXPECT_EQ(*fs.ReadFile("/f"), content);

  // The recovery stamped the survivors and the replacement with a fresh
  // genstamp; the victim's replica is fenced at the old one.
  const BlockRecord* record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->genstamp, old_genstamp);
  EXPECT_EQ(record->locations.size(), 3u);
  EXPECT_EQ(std::count(record->locations.begin(), record->locations.end(),
                       victim.medium),
            0);
  ExpectReplicasAgree(cluster.get(), block);

  // The crashed worker comes back still holding the stale RBW replica;
  // its block report must get it invalidated, never adopted.
  cluster->RestartWorker(victim.worker);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster->SendBlockReports().ok());
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());  // delivers the delete
  EXPECT_TRUE(cluster->worker(victim.worker)
                  ->GetReplicaInfo(victim.medium, block)
                  .status()
                  .IsNotFound());
  record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(std::count(record->locations.begin(), record->locations.end(),
                       victim.medium),
            0);
}

// ---------------------------------------------------------------------------
// Staleness: readers skip, re-replication never copies from one

TEST(PipelineRecoveryTest, StaleReplicaIsSkippedByReaderAndInvalidated) {
  auto cluster = std::move(Cluster::Create(SmallSpec())).value();
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  const std::string content(256 * 1024, 's');
  CreateOptions options;
  options.block_size = kMiB;
  ASSERT_TRUE(fs.WriteFile("/f", content, options).ok());

  auto located = fs.GetFileBlockLocations("/f", 0, 1);
  ASSERT_TRUE(located.ok());
  BlockId block = (*located)[0].block.id;
  uint64_t genstamp = (*located)[0].block.genstamp;
  ASSERT_GT(genstamp, 0u);
  // The replica the reader would try first silently reverts to an older
  // generation (it missed a recovery): same bytes, stale stamp.
  const PlacedReplica stale = (*located)[0].locations[0];
  ASSERT_TRUE(cluster->worker(stale.worker)
                  ->WriteBlock(stale.medium, block, content, genstamp - 1)
                  .ok());

  // The read must skip the stale replica (length alone cannot betray it),
  // report it, and serve the bytes from a fresh one.
  EXPECT_EQ(*fs.ReadFile("/f"), content);
  const BlockRecord* record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(std::count(record->locations.begin(), record->locations.end(),
                       stale.medium),
            0);
  EXPECT_EQ(record->locations.size(), 2u);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence().ok());
  ExpectReplicasAgree(cluster.get(), block);
  EXPECT_EQ(cluster->master()->block_manager().Find(block)->locations.size(),
            3u);
}

TEST(PipelineRecoveryTest, StaleReplicaNeverUsedAsCopySource) {
  auto cluster = std::move(Cluster::Create(SmallSpec())).value();
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  const std::string content(256 * 1024, 'q');
  CreateOptions options;
  options.block_size = kMiB;
  options.rep_vector = ReplicationVector::OfTotal(2);
  ASSERT_TRUE(fs.WriteFile("/f", content, options).ok());

  auto located = fs.GetFileBlockLocations("/f", 0, 1);
  ASSERT_TRUE(located.ok());
  BlockId block = (*located)[0].block.id;
  uint64_t genstamp = (*located)[0].block.genstamp;
  const PlacedReplica stale = (*located)[0].locations[0];
  const PlacedReplica good = (*located)[0].locations[1];
  ASSERT_TRUE(cluster->worker(stale.worker)
                  ->WriteBlock(stale.medium, block, content, genstamp - 1)
                  .ok());

  // The good replica's worker dies; the monitor's only candidate source
  // is the stale replica the master has not yet found out about. The
  // copy executor must refuse it rather than propagate stale bytes.
  cluster->StopWorker(good.worker);
  ASSERT_GE(cluster->master()->RunReplicationMonitor(), 1);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  int fresh = 0;
  for (WorkerId id : cluster->worker_ids()) {
    if (cluster->IsStopped(id)) continue;
    for (const auto& [medium, replicas] :
         cluster->worker(id)->BuildBlockReport()) {
      for (const ReplicaDescriptor& r : replicas) {
        if (r.block == block && r.genstamp == genstamp) ++fresh;
      }
    }
  }
  EXPECT_EQ(fresh, 0) << "a copy was served from the stale replica";

  // The good worker returns; reports expose the stale replica, and the
  // monitor repairs from the fresh one.
  cluster->RestartWorker(good.worker);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster->SendBlockReports().ok());
  AdvanceSim(cluster.get(), 61.0);  // expire the dead in-flight copy
  ASSERT_TRUE(cluster->RunReplicationToQuiescence().ok());
  const BlockRecord* record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->locations.size(), 2u);
  EXPECT_EQ(std::count(record->locations.begin(), record->locations.end(),
                       stale.medium),
            0);
  ExpectReplicasAgree(cluster.get(), block);
  EXPECT_EQ(*fs.ReadFile("/f"), content);
}

// ---------------------------------------------------------------------------
// Satellite: lease-expiry block recovery reconciles divergent lengths
// (regression for the old trust-whatever-length force-complete)

TEST(LeaseRecoveryTest, DivergentLengthsReconciledToCommonPrefix) {
  auto cluster = std::move(Cluster::Create(SmallSpec())).value();
  FaultRegistry faults(5);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  const std::string flushed(100 * 1024, 'd');

  CreateOptions options;
  options.block_size = kMiB;
  auto writer = fs.Create("/f", options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Write(flushed).ok());
  ASSERT_TRUE((*writer)->Hflush().ok());

  BlockId block = kInvalidBlock;
  std::vector<RbwReplica> pipeline = FindRbwReplicas(cluster.get(), &block);
  ASSERT_EQ(pipeline.size(), 3u);
  // One straggler member takes an extra, never-acked packet — the
  // divergence a mid-fan-out writer crash leaves behind.
  const RbwReplica& straggler = pipeline[0];
  ASSERT_TRUE(cluster->worker(straggler.worker)
                  ->WritePacket(straggler.medium, block,
                                static_cast<int64_t>(flushed.size()),
                                std::string(30 * 1024, 'Z'),
                                straggler.info.genstamp)
                  .ok());

  // The writer dies without committing.
  faults.Arm({.site = Site::kWriterCrash, .max_hits = 1});
  ASSERT_TRUE((*writer)->Write("tail").ok());  // buffered, sub-packet
  EXPECT_FALSE((*writer)->Hflush().ok());

  // Lease expiry dispatches a recovery primary; the primary reconciles
  // every survivor to the minimum length (the acked prefix), stamps the
  // recovery genstamp, finalizes, and only then completes the file.
  AdvanceSim(cluster.get(), 61.0);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());

  auto status = fs.GetFileStatus("/f");
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->under_construction);
  EXPECT_EQ(status->length, static_cast<int64_t>(flushed.size()));
  // Pre-tentpole the force-complete committed the straggler's length and
  // re-replicated from an arbitrary replica; now the straggler's extra
  // bytes are truncated and exactly the hflushed bytes survive.
  EXPECT_EQ(*fs.ReadFile("/f"), flushed);
  const BlockRecord* record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->genstamp, straggler.info.genstamp);
  EXPECT_EQ(record->length, static_cast<int64_t>(flushed.size()));
  EXPECT_EQ(record->locations.size(), 3u);
  ExpectReplicasAgree(cluster.get(), block);
}

// ---------------------------------------------------------------------------
// Satellite: Hflush durability across a pipeline member crash

TEST(HflushTest, PostHflushWorkerCrashLosesNoFlushedBytes) {
  auto cluster = std::move(Cluster::Create(SmallSpec())).value();
  FaultRegistry faults(6);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  const std::string flushed(100 * 1024, 'h');

  CreateOptions options;
  options.block_size = kMiB;
  auto writer = fs.Create("/f", options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Write(flushed).ok());
  ASSERT_TRUE((*writer)->Hflush().ok());

  // A pipeline member crashes after the hflush, then the writer itself
  // dies. The flushed bytes live on the two survivors; lease recovery
  // must complete the file with every one of them.
  BlockId block = kInvalidBlock;
  std::vector<RbwReplica> pipeline = FindRbwReplicas(cluster.get(), &block);
  ASSERT_EQ(pipeline.size(), 3u);
  cluster->StopWorker(pipeline[0].worker);
  faults.Arm({.site = Site::kWriterCrash, .max_hits = 1});
  ASSERT_TRUE((*writer)->Write("unflushed tail").ok());
  EXPECT_FALSE((*writer)->Hflush().ok());

  AdvanceSim(cluster.get(), 61.0);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());

  auto status = fs.GetFileStatus("/f");
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->under_construction);
  EXPECT_EQ(status->length, static_cast<int64_t>(flushed.size()));
  EXPECT_EQ(*fs.ReadFile("/f"), flushed);
  ExpectReplicasAgree(cluster.get(), block);
  // Replication tops the reconciled block back up to three.
  ASSERT_TRUE(cluster->RunReplicationToQuiescence().ok());
  EXPECT_EQ(cluster->master()->block_manager().Find(block)->locations.size(),
            3u);
}

// ---------------------------------------------------------------------------
// Satellite: whole-medium failure

TEST(MediumFailTest, DeadMediumDroppedAndReReplicated) {
  auto cluster = std::move(Cluster::Create(SmallSpec())).value();
  FaultRegistry faults(7);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  const std::string content(256 * 1024, 'm');
  CreateOptions options;
  options.block_size = kMiB;
  ASSERT_TRUE(fs.WriteFile("/f", content, options).ok());

  auto located = fs.GetFileBlockLocations("/f", 0, 1);
  ASSERT_TRUE(located.ok());
  BlockId block = (*located)[0].block.id;
  const PlacedReplica dead = (*located)[0].locations[0];
  faults.Arm({.site = Site::kMediumFail, .worker = dead.worker,
              .medium = dead.medium});

  // The worker's next heartbeat reports the failed device; the master
  // drops its replicas and schedules repair elsewhere.
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  EXPECT_FALSE(cluster->master()->cluster_state().MediumLive(dead.medium));
  const BlockRecord* record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(std::count(record->locations.begin(), record->locations.end(),
                       dead.medium),
            0);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence().ok());
  record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->locations.size(), 3u);
  EXPECT_EQ(*fs.ReadFile("/f"), content);

  // New placements avoid the dead device.
  ASSERT_TRUE(fs.WriteFile("/g", content, options).ok());
  auto g = fs.GetFileBlockLocations("/g", 0, 1);
  ASSERT_TRUE(g.ok());
  for (const PlacedReplica& r : (*g)[0].locations) {
    EXPECT_NE(r.medium, dead.medium);
  }
}

// ---------------------------------------------------------------------------
// Recovery primary crash: the lease re-expires and a new primary retries

TEST(LeaseRecoveryTest, RecoveryPrimaryCrashRetriesWithNewPrimary) {
  auto cluster = std::move(Cluster::Create(SmallSpec())).value();
  FaultRegistry faults(8);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  const std::string flushed(100 * 1024, 'r');

  CreateOptions options;
  options.block_size = kMiB;
  auto writer = fs.Create("/f", options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Write(flushed).ok());
  ASSERT_TRUE((*writer)->Hflush().ok());
  BlockId block = kInvalidBlock;
  ASSERT_EQ(FindRbwReplicas(cluster.get(), &block).size(), 3u);
  faults.Arm({.site = Site::kWriterCrash, .max_hits = 1});
  ASSERT_TRUE((*writer)->Write("x").ok());  // buffered, sub-packet
  EXPECT_FALSE((*writer)->Hflush().ok());

  // The first recovery round's primary dies before reconciling anything.
  faults.Arm({.site = Site::kRecoveryPrimaryCrash, .max_hits = 1});
  AdvanceSim(cluster.get(), 61.0);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  EXPECT_EQ(faults.hits(Site::kRecoveryPrimaryCrash), 1);
  auto status = fs.GetFileStatus("/f");
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->under_construction);

  // The recovery lease expires in turn; the retry picks a new primary
  // from the remaining survivors, with a fresh recovery genstamp.
  AdvanceSim(cluster.get(), 61.0);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  status = fs.GetFileStatus("/f");
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->under_construction);
  EXPECT_EQ(status->length, static_cast<int64_t>(flushed.size()));
  EXPECT_EQ(*fs.ReadFile("/f"), flushed);
  ExpectReplicasAgree(cluster.get(), block);
}

// ---------------------------------------------------------------------------
// Satellite: seeded chaos property — under any single injected
// pipeline/writer/recovery fault, a completed file's bytes equal the
// bytes written, a recovered file's bytes are exactly a committed prefix
// containing every hflushed byte, and all live replicas agree on
// (genstamp, length).

struct ChaosOutcome {
  int completed = 0;
  int recovered = 0;
  size_t content_hash = 0;

  bool operator==(const ChaosOutcome& other) const {
    return completed == other.completed && recovered == other.recovered &&
           content_hash == other.content_hash;
  }
};

/// Runs the chaos rounds; a non-empty `block_dir_root` puts the HDD media
/// on DiskBlockStores under it instead of memory stores.
void RunPipelineChaos(uint64_t seed, ChaosOutcome* outcome,
                      const std::string& block_dir_root = "") {
  ClusterSpec spec = SmallSpec();
  spec.block_dir_root = block_dir_root;
  auto cluster = std::move(Cluster::Create(spec)).value();
  FaultRegistry faults(seed);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  fs.set_read_retry_options(ReadRetryOptions{});
  Random rng(seed * 131 + 7);
  const std::vector<WorkerId>& ids = cluster->worker_ids();

  std::map<std::string, std::string> finished;  // path -> expected bytes
  for (int round = 0; round < 8; ++round) {
    std::string path = "/chaos/f" + std::to_string(round);
    // Three chunks; the first is hflushed. 256 KiB blocks make most
    // files span block boundaries.
    std::string chunk1(30 * 1024 + rng.Uniform(170 * 1024), 'a' + round);
    std::string chunk2(30 * 1024 + rng.Uniform(170 * 1024), 'A' + round);
    std::string chunk3(30 * 1024 + rng.Uniform(170 * 1024), '0' + round);
    const std::string content = chunk1 + chunk2 + chunk3;

    CreateOptions options;
    options.block_size = 256 * 1024;
    auto writer = fs.Create(path, options);
    ASSERT_TRUE(writer.ok()) << path;

    // One injected fault per round (round 0 is the fault-free control).
    switch (rng.Uniform(5)) {
      case 1:
        faults.Arm({.site = Site::kPipelineNodeCrash,
                    .worker = ids[rng.Uniform(ids.size())], .max_hits = 1});
        break;
      case 2:
        faults.Arm({.site = Site::kWriterCrash, .max_hits = 1});
        break;
      case 3: {
        WorkerId w = ids[rng.Uniform(ids.size())];
        std::vector<MediumId> media = cluster->worker(w)->MediumIds();
        faults.Arm({.site = Site::kMediumFail, .worker = w,
                    .medium = media[rng.Uniform(media.size())]});
        break;
      }
      case 4:
        // A writer crash whose block recovery is itself crash-struck.
        faults.Arm({.site = Site::kWriterCrash, .max_hits = 1});
        faults.Arm({.site = Site::kRecoveryPrimaryCrash, .max_hits = 1});
        break;
      default:
        break;
    }

    int64_t hflushed = 0;
    Status st = (*writer)->Write(chunk1);
    if (st.ok()) {
      st = (*writer)->Hflush();
      if (st.ok()) hflushed = static_cast<int64_t>(chunk1.size());
    }
    if (st.ok()) st = (*writer)->Write(chunk2);
    if (st.ok()) st = (*writer)->Write(chunk3);
    if (st.ok()) st = (*writer)->Close();

    if (st.ok()) {
      auto data = fs.ReadFile(path);
      ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
      EXPECT_EQ(*data, content) << path;
      finished[path] = content;
      ++outcome->completed;
    } else {
      // The writer died; lease recovery must converge to a completed
      // file whose bytes are a prefix of what was written and contain
      // every hflushed byte.
      bool complete = false;
      for (int tries = 0; tries < 6 && !complete; ++tries) {
        AdvanceSim(cluster.get(), 61.0);
        ASSERT_TRUE(cluster->PumpHeartbeats().ok());
        ASSERT_TRUE(cluster->PumpHeartbeats().ok());
        auto status = fs.GetFileStatus(path);
        ASSERT_TRUE(status.ok()) << path;
        complete = !status->under_construction;
      }
      ASSERT_TRUE(complete) << path << " never finished block recovery";
      auto data = fs.ReadFile(path);
      ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
      ASSERT_LE(data->size(), content.size()) << path;
      EXPECT_EQ(*data, content.substr(0, data->size())) << path;
      EXPECT_GE(static_cast<int64_t>(data->size()), hflushed)
          << path << " lost hflushed bytes";
      finished[path] = *data;
      ++outcome->recovered;
    }

    // Faults clear; crashed workers return; the cluster reconverges.
    faults.ClearAll();
    for (WorkerId id : ids) {
      if (cluster->IsStopped(id)) cluster->RestartWorker(id);
    }
    ASSERT_TRUE(cluster->PumpHeartbeats().ok());
    ASSERT_TRUE(cluster->SendBlockReports().ok());
    AdvanceSim(cluster.get(), 61.0);
    ASSERT_TRUE(cluster->PumpHeartbeats().ok());
    ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  }

  // Global invariants: every committed block's live replicas agree with
  // the record on (genstamp, length, finalized), and every file reads
  // back exactly its committed bytes.
  cluster->master()->block_manager().ForEach([&](const BlockRecord& record) {
    ExpectReplicasAgree(cluster.get(), record.id);
  });
  for (const auto& [path, expected] : finished) {
    auto data = fs.ReadFile(path);
    ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
    EXPECT_EQ(*data, expected) << path;
    outcome->content_hash ^= std::hash<std::string>{}(*data) +
                             0x9e3779b97f4a7c15ULL +
                             (outcome->content_hash << 6);
  }
  EXPECT_EQ(outcome->completed + outcome->recovered, 8);
}

TEST(PipelineChaosTest, Seed11) {
  ChaosOutcome outcome;
  RunPipelineChaos(11, &outcome);
}
TEST(PipelineChaosTest, Seed22) {
  ChaosOutcome outcome;
  RunPipelineChaos(22, &outcome);
}
TEST(PipelineChaosTest, Seed33) {
  ChaosOutcome outcome;
  RunPipelineChaos(33, &outcome);
}

// The same rounds on disk stores, so every injected fault reaches
// DiskBlockStore's in-place Append, Recover and Finalize. The stores must
// be indistinguishable: each seed ends exactly as it does in memory.
void RunDiskPipelineChaos(uint64_t seed) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("octo_pipeline_chaos_" + std::to_string(::getpid()) + "_" +
       std::to_string(seed));
  std::filesystem::remove_all(dir);
  ChaosOutcome on_disk, in_memory;
  RunPipelineChaos(seed, &on_disk, dir.string());
  int replica_files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    replica_files += entry.path().filename().string().rfind("blk_", 0) == 0;
  }
  EXPECT_GT(replica_files, 0);
  std::filesystem::remove_all(dir);
  RunPipelineChaos(seed, &in_memory);
  EXPECT_TRUE(on_disk == in_memory);
}

TEST(PipelineChaosTest, DiskSeed11) { RunDiskPipelineChaos(11); }
TEST(PipelineChaosTest, DiskSeed22) { RunDiskPipelineChaos(22); }
TEST(PipelineChaosTest, DiskSeed33) { RunDiskPipelineChaos(33); }

TEST(PipelineChaosTest, SameSeedSameOutcome) {
  ChaosOutcome first, second;
  RunPipelineChaos(11, &first);
  RunPipelineChaos(11, &second);
  EXPECT_TRUE(first == second);
}

}  // namespace
}  // namespace octo

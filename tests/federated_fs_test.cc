// Tests for the client-side federation facade: routing, cross-mount
// rename rejection, independent namespaces, and aggregated tier reports.

#include <gtest/gtest.h>

#include "client/federated_file_system.h"
#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/units.h"

namespace octo {
namespace {

ClusterSpec SmallSpec() {
  ClusterSpec spec;
  spec.num_racks = 1;
  spec.workers_per_rack = 2;
  MediumSpec hdd{kHddTier, MediaType::kHdd, 64 * kMiB, FromMBps(126),
                 FromMBps(177)};
  spec.media_per_worker = {hdd, hdd};
  return spec;
}

class FederatedFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      auto cluster = Cluster::Create(SmallSpec());
      ASSERT_TRUE(cluster.ok());
      clusters_.push_back(std::move(cluster).value());
      clients_.push_back(std::make_unique<FileSystem>(
          clusters_.back().get(), NetworkLocation("rack0", "node0")));
    }
    ASSERT_TRUE(fed_.Mount("/warehouse", clients_[0].get()).ok());
    ASSERT_TRUE(fed_.Mount("/logs", clients_[1].get()).ok());
  }

  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::vector<std::unique_ptr<FileSystem>> clients_;
  FederatedFileSystem fed_;
};

TEST_F(FederatedFsTest, OperationsRouteToTheOwningCluster) {
  CreateOptions options;
  options.block_size = kMiB;
  options.rep_vector = ReplicationVector::OfTotal(2);
  ASSERT_TRUE(fed_.WriteFile("/warehouse/t1", "warehouse-data", options).ok());
  ASSERT_TRUE(fed_.WriteFile("/logs/app.log", "log-data", options).ok());

  // Each file lives only on its own cluster.
  EXPECT_TRUE(clients_[0]->Exists("/warehouse/t1"));
  EXPECT_FALSE(clients_[1]->Exists("/warehouse/t1"));
  EXPECT_TRUE(clients_[1]->Exists("/logs/app.log"));
  EXPECT_FALSE(clients_[0]->Exists("/logs/app.log"));

  EXPECT_EQ(*fed_.ReadFile("/warehouse/t1"), "warehouse-data");
  EXPECT_EQ(*fed_.ReadFile("/logs/app.log"), "log-data");
  EXPECT_EQ(fed_.GetFileStatus("/logs/app.log")->length, 8);
  EXPECT_EQ(fed_.GetFileBlockLocations("/warehouse/t1", 0, 100)->size(), 1u);
}

TEST_F(FederatedFsTest, UnmountedPathsAreNotFound) {
  EXPECT_TRUE(fed_.Mkdirs("/elsewhere/x").IsNotFound());
  EXPECT_FALSE(fed_.Exists("/elsewhere/x"));
  EXPECT_TRUE(fed_.Route("/").status().IsNotFound());
}

TEST_F(FederatedFsTest, RenameWithinMountWorksAcrossDoesNot) {
  CreateOptions options;
  options.block_size = kMiB;
  ASSERT_TRUE(fed_.WriteFile("/warehouse/a", "x", options).ok());
  ASSERT_TRUE(fed_.Rename("/warehouse/a", "/warehouse/b").ok());
  EXPECT_TRUE(fed_.Exists("/warehouse/b"));
  EXPECT_TRUE(
      fed_.Rename("/warehouse/b", "/logs/b").IsNotSupported());
}

TEST_F(FederatedFsTest, LongestPrefixWins) {
  // A third client mounted deeper inside /warehouse.
  auto cluster = Cluster::Create(SmallSpec());
  ASSERT_TRUE(cluster.ok());
  FileSystem inner(cluster->get(), NetworkLocation("rack0", "node0"));
  ASSERT_TRUE(fed_.Mount("/warehouse/archive", &inner).ok());
  CreateOptions options;
  options.block_size = kMiB;
  ASSERT_TRUE(fed_.WriteFile("/warehouse/archive/old", "cold", options).ok());
  EXPECT_TRUE(inner.Exists("/warehouse/archive/old"));
  EXPECT_FALSE(clients_[0]->Exists("/warehouse/archive/old"));
}

TEST_F(FederatedFsTest, RoutesByPathComponentsUnderARootMount) {
  auto cluster = Cluster::Create(SmallSpec());
  ASSERT_TRUE(cluster.ok());
  FileSystem root(cluster->get(), NetworkLocation("rack0", "node0"));
  ASSERT_TRUE(fed_.Mount("/", &root).ok());
  EXPECT_EQ(*fed_.Route("/tmp/x"), &root);
  EXPECT_EQ(*fed_.Route("/warehouse"), clients_[0].get());
  EXPECT_EQ(*fed_.Route("/warehouse/t1"), clients_[0].get());
  // "/warehouse2" shares a string prefix with "/warehouse" but is not
  // under it.
  EXPECT_EQ(*fed_.Route("/warehouse2"), &root);
}

TEST_F(FederatedFsTest, NamespacesAreIndependent) {
  ASSERT_TRUE(fed_.Mkdirs("/warehouse/dir").ok());
  EXPECT_TRUE(clients_[0]->Exists("/warehouse/dir"));
  EXPECT_FALSE(clients_[1]->Exists("/warehouse/dir"));
  EXPECT_TRUE(fed_.GetFileStatus("/warehouse/dir")->is_dir);
}

TEST_F(FederatedFsTest, SetReplicationRoutes) {
  CreateOptions options;
  options.block_size = kMiB;
  options.rep_vector = ReplicationVector::Of(0, 0, 1);
  ASSERT_TRUE(fed_.WriteFile("/logs/rep", "data", options).ok());
  ASSERT_TRUE(
      fed_.SetReplication("/logs/rep", ReplicationVector::Of(0, 0, 2)).ok());
  ASSERT_TRUE(clusters_[1]->RunReplicationToQuiescence().ok());
  EXPECT_EQ(fed_.GetFileBlockLocations("/logs/rep", 0, 4)
                ->at(0)
                .locations.size(),
            2u);
}

TEST_F(FederatedFsTest, TierReportsAggregateAcrossClusters) {
  auto reports = fed_.GetStorageTierReports();
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 1u);  // both clusters expose only HDD
  const StorageTierReport& hdd = (*reports)[0];
  EXPECT_EQ(hdd.num_media, 8);    // 2 clusters x 2 workers x 2 HDDs
  EXPECT_EQ(hdd.num_workers, 4);
  EXPECT_EQ(hdd.capacity_bytes, 8 * 64 * kMiB);
  EXPECT_NEAR(ToMBps(hdd.avg_write_bps), 126.0, 0.1);
}

TEST_F(FederatedFsTest, MountValidation) {
  EXPECT_TRUE(fed_.Mount("relative", clients_[0].get()).IsInvalidArgument());
  EXPECT_TRUE(fed_.Mount("/x", nullptr).IsInvalidArgument());
  EXPECT_TRUE(
      fed_.Mount("/warehouse", clients_[1].get()).IsAlreadyExists());
  ASSERT_TRUE(fed_.Unmount("/logs").ok());
  EXPECT_TRUE(fed_.Unmount("/logs").IsNotFound());
  EXPECT_EQ(fed_.MountPoints(), (std::vector<std::string>{"/warehouse"}));
}

}  // namespace
}  // namespace octo

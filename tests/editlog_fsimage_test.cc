// Tests for the edit log (journal + replay) and fsimage checkpointing,
// including a randomized property: replaying a journal reproduces the
// exact namespace.

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "namespacefs/edit_log.h"
#include "namespacefs/fsimage.h"
#include "namespacefs/lease_manager.h"
#include "namespacefs/namespace_tree.h"

namespace octo {
namespace {

const UserContext kRoot{"root", {}};

// Applies an operation to both a tree and the journal, like the Master.
class JournaledTree {
 public:
  explicit JournaledTree(Clock* clock) : tree_(clock) {}

  void Mkdirs(const std::string& p) {
    ASSERT_TRUE(tree_.Mkdirs(p, kRoot).ok());
    log_.LogMkdirs(p);
  }
  void Create(const std::string& p, const ReplicationVector& rv) {
    ASSERT_TRUE(
        tree_.CreateFile(p, rv, kDefaultBlockSize, false, kRoot).ok());
    log_.LogCreate(p, rv, kDefaultBlockSize, false);
  }
  void AddBlock(const std::string& p, BlockInfo b) {
    ASSERT_TRUE(tree_.AddBlock(p, b).ok());
    log_.LogAddBlock(p, b);
  }
  void Complete(const std::string& p) {
    ASSERT_TRUE(tree_.CompleteFile(p).ok());
    log_.LogComplete(p);
  }
  void Rename(const std::string& a, const std::string& b) {
    ASSERT_TRUE(tree_.Rename(a, b, kRoot).ok());
    log_.LogRename(a, b);
  }
  void Delete(const std::string& p) {
    ASSERT_TRUE(tree_.Delete(p, true, kRoot).ok());
    log_.LogDelete(p, true);
  }
  void SetQuota(const std::string& p, int slot, int64_t v) {
    ASSERT_TRUE(tree_.SetQuota(p, slot, v).ok());
    log_.LogSetQuota(p, slot, v);
  }
  void SetRv(const std::string& p, const ReplicationVector& rv) {
    ASSERT_TRUE(tree_.SetReplicationVector(p, rv, kRoot).ok());
    log_.LogSetReplication(p, rv);
  }

  NamespaceTree& tree() { return tree_; }
  EditLog& log() { return log_; }

 private:
  NamespaceTree tree_;
  EditLog log_;
};

TEST(EditLogTest, ReplayReconstructsNamespace) {
  ManualClock clock;
  JournaledTree jt(&clock);
  jt.Mkdirs("/a/b");
  jt.Create("/a/b/f", ReplicationVector::Of(1, 0, 2));
  jt.AddBlock("/a/b/f", BlockInfo{7, 100});
  jt.AddBlock("/a/b/f", BlockInfo{8, 50});
  jt.Complete("/a/b/f");
  jt.Rename("/a/b/f", "/a/g");
  jt.SetQuota("/a", kTotalSpaceSlot, 10000);
  jt.SetRv("/a/g", ReplicationVector::Of(0, 1, 2));

  NamespaceTree replayed(&clock);
  ASSERT_TRUE(EditLog::Replay(jt.log().entries(), 0, &replayed).ok());
  EXPECT_EQ(FsImage::Serialize(replayed), FsImage::Serialize(jt.tree()));
  auto blocks = replayed.GetBlocks("/a/g");
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 2u);
  EXPECT_EQ(replayed.GetQuotaUsage("/a")->quota[kTotalSpaceSlot], 10000);
}

TEST(EditLogTest, ReplayFromOffsetSkipsEarlierRecords) {
  ManualClock clock;
  JournaledTree jt(&clock);
  jt.Mkdirs("/early");
  int64_t offset = jt.log().size();
  jt.Mkdirs("/late");

  NamespaceTree replayed(&clock);
  // Pre-seed with the checkpointed part, then replay the tail.
  ASSERT_TRUE(replayed.Mkdirs("/early", kRoot).ok());
  ASSERT_TRUE(EditLog::Replay(jt.log().entries(), offset, &replayed).ok());
  EXPECT_TRUE(replayed.Exists("/late"));
}

TEST(EditLogTest, MalformedRecordReported) {
  ManualClock clock;
  NamespaceTree tree(&clock);
  EXPECT_TRUE(EditLog::Replay({"BOGUS\t/x"}, 0, &tree).IsCorruption());
  EXPECT_TRUE(EditLog::Replay({"MKDIR"}, 0, &tree).IsCorruption());
}

// Property: a random operation sequence replayed from the journal yields a
// byte-identical fsimage.
class JournalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JournalPropertyTest, RandomOpsReplayIdentically) {
  ManualClock clock;
  Random rng(GetParam());
  JournaledTree jt(&clock);
  std::vector<std::string> files;
  std::vector<std::string> dirs = {"/"};
  int name = 0;
  // The clock stays fixed: mtimes are not journaled (replay happens at
  // recovery time), so only a frozen clock allows byte-exact comparison.
  for (int i = 0; i < 300; ++i) {
    int op = static_cast<int>(rng.Uniform(6));
    if (op == 0 || dirs.size() < 3) {  // mkdir
      std::string parent = dirs[rng.Uniform(dirs.size())];
      std::string path = (parent == "/" ? "" : parent) + "/d" +
                         std::to_string(name++);
      jt.Mkdirs(path);
      dirs.push_back(path);
    } else if (op == 1 || files.empty()) {  // create + blocks + complete
      std::string parent = dirs[rng.Uniform(dirs.size())];
      std::string path = (parent == "/" ? "" : parent) + "/f" +
                         std::to_string(name++);
      jt.Create(path, ReplicationVector::OfTotal(
                          static_cast<uint8_t>(1 + rng.Uniform(4))));
      int blocks = static_cast<int>(rng.Uniform(3));
      for (int b = 0; b < blocks; ++b) {
        jt.AddBlock(path, BlockInfo{name * 1000 + b,
                                    static_cast<int64_t>(rng.Uniform(5000))});
      }
      jt.Complete(path);
      files.push_back(path);
    } else if (op == 2) {  // rename a file to a fresh name
      size_t idx = rng.Uniform(files.size());
      std::string target = "/renamed" + std::to_string(name++);
      jt.Rename(files[idx], target);
      files[idx] = target;
    } else if (op == 3) {  // delete a file
      size_t idx = rng.Uniform(files.size());
      jt.Delete(files[idx]);
      files.erase(files.begin() + idx);
    } else if (op == 4) {  // change replication vector
      size_t idx = rng.Uniform(files.size());
      jt.SetRv(files[idx], ReplicationVector::Of(
                               static_cast<uint8_t>(rng.Uniform(2)),
                               static_cast<uint8_t>(rng.Uniform(2)),
                               static_cast<uint8_t>(1 + rng.Uniform(2))));
    } else {  // quota on a random dir
      std::string dir = dirs[rng.Uniform(dirs.size())];
      jt.SetQuota(dir, kTotalSpaceSlot,
                  static_cast<int64_t>(1e15 + rng.Uniform(1000)));
    }
  }
  NamespaceTree replayed(&clock);
  ASSERT_TRUE(EditLog::Replay(jt.log().entries(), 0, &replayed).ok());
  EXPECT_EQ(FsImage::Serialize(replayed), FsImage::Serialize(jt.tree()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------------
// FsImage

TEST(FsImageTest, SerializeDeserializeRoundTrip) {
  ManualClock clock(500);
  NamespaceTree tree(&clock);
  ASSERT_TRUE(tree.Mkdirs("/data/raw", kRoot).ok());
  ASSERT_TRUE(tree.SetQuota("/data", kMemoryTier, 12345).ok());
  ASSERT_TRUE(tree.CreateFile("/data/f", ReplicationVector::Of(1, 1, 1),
                              64 * 1024, false, kRoot)
                  .ok());
  ASSERT_TRUE(tree.AddBlock("/data/f", BlockInfo{9, 4096}).ok());
  ASSERT_TRUE(tree.CompleteFile("/data/f").ok());
  // Leave a second file under construction.
  ASSERT_TRUE(tree.CreateFile("/data/open", ReplicationVector::OfTotal(2),
                              64 * 1024, false, kRoot)
                  .ok());

  std::string image = FsImage::Serialize(tree);
  NamespaceTree loaded(&clock);
  ASSERT_TRUE(FsImage::Deserialize(image, &loaded).ok());
  EXPECT_EQ(FsImage::Serialize(loaded), image);
  EXPECT_EQ(loaded.GetQuotaUsage("/data")->quota[kMemoryTier], 12345);
  EXPECT_TRUE(
      loaded.GetFileStatus("/data/open", kRoot)->under_construction);
  EXPECT_EQ(loaded.GetBlocks("/data/f")->size(), 1u);
}

TEST(FsImageTest, RejectsCorruptImages) {
  ManualClock clock;
  NamespaceTree tree(&clock);
  EXPECT_TRUE(FsImage::Deserialize("garbage", &tree).IsCorruption());
  NamespaceTree tree2(&clock);
  EXPECT_TRUE(FsImage::Deserialize("OCTO_FSIMAGE\t2\nZ\tbad\n", &tree2)
                  .IsCorruption());
  // Two-part (id:length) block entries are malformed.
  NamespaceTree tree3(&clock);
  EXPECT_TRUE(FsImage::Deserialize("OCTO_FSIMAGE\t2\n"
                                   "F\t/f\troot\t\t420\t0\t3\t1024\t0\t1"
                                   "\t9:4096\n",
                                   &tree3)
                  .IsCorruption());

  // Only the exact version-2 header is accepted: a valid body under any
  // other version is Corruption, not read in some guessed format.
  NamespaceTree source(&clock);
  ASSERT_TRUE(source.Mkdirs("/data", kRoot).ok());
  ASSERT_TRUE(source.CreateFile("/data/f", ReplicationVector::OfTotal(2),
                                64 * 1024, false, kRoot)
                  .ok());
  ASSERT_TRUE(source.AddBlock("/data/f", BlockInfo{9, 4096, 3}).ok());
  ASSERT_TRUE(source.CompleteFile("/data/f").ok());
  const std::string image = FsImage::Serialize(source);
  const std::string body = image.substr(FsImage::Header().size());

  NamespaceTree control(&clock);
  ASSERT_TRUE(FsImage::Deserialize(image, &control).ok());
  for (const char* header :
       {"OCTO_FSIMAGE\t1\n", "OCTO_FSIMAGE\t3\n", "OCTO_FSIMAGE\tx\n"}) {
    NamespaceTree tree(&clock);
    EXPECT_TRUE(FsImage::Deserialize(header + body, &tree).IsCorruption())
        << header;
  }
}

// ---------------------------------------------------------------------------
// Leases

TEST(LeaseManagerTest, AcquireRenewRelease) {
  ManualClock clock;
  LeaseManager leases(&clock, 1000);
  ASSERT_TRUE(leases.Acquire("/f", "w1").ok());
  EXPECT_TRUE(leases.Acquire("/f", "w2").IsAlreadyExists());
  EXPECT_EQ(*leases.Holder("/f"), "w1");
  EXPECT_TRUE(leases.Renew("/f", "w2").IsPermissionDenied());
  ASSERT_TRUE(leases.Renew("/f", "w1").ok());
  EXPECT_TRUE(leases.Release("/f", "w2").IsPermissionDenied());
  ASSERT_TRUE(leases.Release("/f", "w1").ok());
  EXPECT_FALSE(leases.IsHeld("/f"));
}

TEST(LeaseManagerTest, ExpiryAllowsTakeover) {
  ManualClock clock;
  LeaseManager leases(&clock, 1000);
  ASSERT_TRUE(leases.Acquire("/f", "w1").ok());
  clock.AdvanceMicros(1500);
  EXPECT_FALSE(leases.IsHeld("/f"));
  EXPECT_TRUE(leases.Holder("/f").status().IsNotFound());
  // Another writer can now take the lease.
  EXPECT_TRUE(leases.Acquire("/f", "w2").ok());
}

TEST(LeaseManagerTest, RenewExtendsExpiry) {
  ManualClock clock;
  LeaseManager leases(&clock, 1000);
  ASSERT_TRUE(leases.Acquire("/f", "w1").ok());
  clock.AdvanceMicros(800);
  ASSERT_TRUE(leases.Renew("/f", "w1").ok());
  clock.AdvanceMicros(800);  // 1600 total, but renewed at 800
  EXPECT_TRUE(leases.IsHeld("/f"));
}

TEST(LeaseManagerTest, ReapExpiredReturnsPaths) {
  ManualClock clock;
  LeaseManager leases(&clock, 1000);
  ASSERT_TRUE(leases.Acquire("/a", "w1").ok());
  clock.AdvanceMicros(600);
  ASSERT_TRUE(leases.Acquire("/b", "w2").ok());
  clock.AdvanceMicros(600);  // /a expired (1200 > 1000), /b not (600)
  auto expired = leases.ReapExpired();
  EXPECT_EQ(expired, (std::vector<std::string>{"/a"}));
  EXPECT_EQ(leases.num_leases(), 1);
}

TEST(LeaseManagerTest, ReacquireOwnLeaseRenews) {
  ManualClock clock;
  LeaseManager leases(&clock, 1000);
  ASSERT_TRUE(leases.Acquire("/f", "w1").ok());
  clock.AdvanceMicros(900);
  ASSERT_TRUE(leases.Acquire("/f", "w1").ok());
  clock.AdvanceMicros(900);
  EXPECT_TRUE(leases.IsHeld("/f"));
}

}  // namespace
}  // namespace octo

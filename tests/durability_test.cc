// Crash-consistency suite for the metadata durability subsystem
// (DESIGN.md §14): the segmented checksummed edit log and its torn-tail
// recovery, the CRC-trailed atomic image store, fail-stop journaling in
// the Master, fuzzy (non-stalling) checkpoints racing live mutations,
// and a seeded chaos sweep that crashes the master at every injection
// point and proves no acked edit is ever lost.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/master.h"
#include "common/clock.h"
#include "common/random.h"
#include "fault/fault.h"
#include "namespacefs/edit_log.h"
#include "namespacefs/fsimage.h"
#include "namespacefs/image_store.h"
#include "namespacefs/namespace_tree.h"
#include "namespacefs/path.h"

namespace octo {
namespace {

namespace fs = std::filesystem;

const UserContext kRoot{"root", {}};

// Fresh scratch directory per test; removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Offsets one past each complete frame (`<len>\t<crc>\t<payload>\n`) of a
// segment file, computed independently of the EditLog parser. Frame 0 is
// the segment header, frames 1.. are records.
std::vector<size_t> FrameEnds(const std::string& bytes) {
  std::vector<size_t> ends;
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t tab = bytes.find('\t', pos);
    if (tab == std::string::npos) break;
    size_t len = std::stoul(bytes.substr(pos, tab - pos));
    size_t end = tab + 1 + 8 + 1 + len + 1;  // \t crc8 \t payload \n
    if (end > bytes.size()) break;
    ends.push_back(end);
    pos = end;
  }
  return ends;
}

// ---------------------------------------------------------------------------
// Segmented edit log

TEST(SegmentedEditLogTest, SegmentLifecycleRoundTrip) {
  ScratchDir dir("octo_durability_lifecycle");
  {
    auto log = EditLog::OpenSegmented(dir.str());
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    (*log)->LogMkdirs("/a");
    (*log)->LogMkdirs("/a/b");
    auto rolled = (*log)->RollSegment();
    ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
    EXPECT_EQ(*rolled, 2);
    (*log)->LogRename("/a/b", "/c");
    ASSERT_TRUE((*log)->Commit().ok());
  }
  EXPECT_TRUE(fs::exists(dir.path() / "edits_0-1"));
  EXPECT_TRUE(fs::exists(dir.path() / "edits_inprogress_2"));
  {
    auto log = EditLog::OpenSegmented(dir.str());
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_EQ((*log)->size(), 3);
    EXPECT_EQ((*log)->entries()[0], "MKDIR\t/a");
    EXPECT_EQ((*log)->entries()[2], "RENAME\t/a/b\t/c");
    // Still appendable after reopen.
    (*log)->LogMkdirs("/d");
    ASSERT_TRUE((*log)->Commit().ok());
  }
  auto log = EditLog::OpenSegmented(dir.str());
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->size(), 4);
}

TEST(SegmentedEditLogTest, EmptyRollIsANoop) {
  ScratchDir dir("octo_durability_emptyroll");
  auto log = EditLog::OpenSegmented(dir.str());
  ASSERT_TRUE(log.ok());
  auto first = (*log)->RollSegment();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0);
  EXPECT_FALSE(fs::exists(dir.path() / "edits_0--1"));
}

TEST(SegmentedEditLogTest, PurgeKeepsTailSegments) {
  ScratchDir dir("octo_durability_purge");
  {
    auto log = EditLog::OpenSegmented(dir.str());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 4; ++i) (*log)->LogMkdirs("/p" + std::to_string(i));
    ASSERT_TRUE((*log)->RollSegment().ok());  // edits_0-3
    for (int i = 4; i < 6; ++i) (*log)->LogMkdirs("/p" + std::to_string(i));
    ASSERT_TRUE((*log)->RollSegment().ok());  // edits_4-5
    (*log)->LogMkdirs("/p6");
    ASSERT_TRUE((*log)->Commit().ok());
    ASSERT_TRUE((*log)->PurgeSegmentsBefore(4).ok());
    // In-memory records survive a purge (live Backup sync reads them).
    EXPECT_EQ((*log)->size(), 7);
    EXPECT_EQ((*log)->base_txid(), 0);
  }
  EXPECT_FALSE(fs::exists(dir.path() / "edits_0-3"));
  EXPECT_TRUE(fs::exists(dir.path() / "edits_4-5"));
  auto log = EditLog::OpenSegmented(dir.str());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->base_txid(), 4);
  EXPECT_EQ((*log)->size(), 7);
  std::vector<std::string> tail;
  EXPECT_EQ((*log)->ReadEntries(0, &tail), 4);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0], "MKDIR\t/p4");
}

// Truncate the in-progress segment at every byte offset: replay must
// recover exactly the records whose frames survived whole, and the log
// must stay appendable — the torn tail is cut, never trusted.
TEST(SegmentedEditLogTest, TornTailTruncationSweepEveryByte) {
  ScratchDir dir("octo_durability_trunc");
  {
    auto log = EditLog::OpenSegmented(dir.str());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 6; ++i) (*log)->LogMkdirs("/d" + std::to_string(i));
    ASSERT_TRUE((*log)->Commit().ok());
  }
  const fs::path seg = dir.path() / "edits_inprogress_0";
  const std::string bytes = ReadFile(seg);
  const std::vector<size_t> ends = FrameEnds(bytes);
  ASSERT_EQ(ends.size(), 7u);  // header + 6 records
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    ScratchDir copy("octo_durability_trunc_case");
    WriteFile(copy.path() / "edits_inprogress_0", bytes.substr(0, cut));
    auto log = EditLog::OpenSegmented(copy.str());
    ASSERT_TRUE(log.ok()) << "cut=" << cut << ": " << log.status().ToString();
    size_t whole_frames = 0;
    while (whole_frames < ends.size() && ends[whole_frames] <= cut) {
      ++whole_frames;
    }
    const int64_t expect =
        whole_frames == 0 ? 0 : static_cast<int64_t>(whole_frames - 1);
    ASSERT_EQ((*log)->size(), expect) << "cut=" << cut;
    for (int64_t i = 0; i < expect; ++i) {
      EXPECT_EQ((*log)->entries()[static_cast<size_t>(i)],
                "MKDIR\t/d" + std::to_string(i));
    }
    // Recovery re-opens for appending past the recovered prefix.
    (*log)->LogMkdirs("/after");
    ASSERT_TRUE((*log)->Commit().ok()) << "cut=" << cut;
    log->reset();
    auto reopened = EditLog::OpenSegmented(copy.str());
    ASSERT_TRUE(reopened.ok()) << "cut=" << cut;
    ASSERT_EQ((*reopened)->size(), expect + 1) << "cut=" << cut;
    EXPECT_EQ((*reopened)->entries()[static_cast<size_t>(expect)],
              "MKDIR\t/after");
  }
}

// Flip one bit at every byte offset of the in-progress segment: the CRC
// (or frame structure) must catch every flip, recovery must keep exactly
// the frames before the damaged one, and open must never crash or accept
// a damaged record.
TEST(SegmentedEditLogTest, BitFlipSweepRecoversLongestValidPrefix) {
  ScratchDir dir("octo_durability_flip");
  {
    auto log = EditLog::OpenSegmented(dir.str());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 5; ++i) (*log)->LogMkdirs("/f" + std::to_string(i));
    ASSERT_TRUE((*log)->Commit().ok());
  }
  const std::string bytes = ReadFile(dir.path() / "edits_inprogress_0");
  const std::vector<size_t> ends = FrameEnds(bytes);
  ASSERT_EQ(ends.size(), 6u);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ (1 << (i % 8)));
    ScratchDir copy("octo_durability_flip_case");
    WriteFile(copy.path() / "edits_inprogress_0", damaged);
    auto log = EditLog::OpenSegmented(copy.str());
    ASSERT_TRUE(log.ok()) << "flip at " << i << ": "
                          << log.status().ToString();
    size_t damaged_frame = 0;
    while (damaged_frame < ends.size() && ends[damaged_frame] <= i) {
      ++damaged_frame;
    }
    const int64_t expect =
        damaged_frame == 0 ? 0 : static_cast<int64_t>(damaged_frame - 1);
    ASSERT_EQ((*log)->size(), expect) << "flip at " << i;
    for (int64_t r = 0; r < expect; ++r) {
      EXPECT_EQ((*log)->entries()[static_cast<size_t>(r)],
                "MKDIR\t/f" + std::to_string(r));
    }
  }
}

// Finalized segments were fsynced before their rename: damage there is
// rot, not a crash artifact, and recovery must refuse it outright rather
// than silently truncate history that later segments build on.
TEST(SegmentedEditLogTest, BitFlipInFinalizedSegmentIsCorruption) {
  ScratchDir dir("octo_durability_flip_final");
  {
    auto log = EditLog::OpenSegmented(dir.str());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 3; ++i) (*log)->LogMkdirs("/g" + std::to_string(i));
    ASSERT_TRUE((*log)->RollSegment().ok());
  }
  const fs::path seg = dir.path() / "edits_0-2";
  ASSERT_TRUE(fs::exists(seg));
  const std::string bytes = ReadFile(seg);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x10);
    ScratchDir copy("octo_durability_flip_final_case");
    WriteFile(copy.path() / "edits_0-2", damaged);
    auto log = EditLog::OpenSegmented(copy.str());
    EXPECT_TRUE(!log.ok() && log.status().IsCorruption())
        << "flip at " << i << " was accepted";
  }
}

TEST(SegmentedEditLogTest, SegmentGapIsCorruption) {
  ScratchDir dir("octo_durability_gap");
  {
    auto log = EditLog::OpenSegmented(dir.str());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 4; ++i) (*log)->LogMkdirs("/h" + std::to_string(i));
    ASSERT_TRUE((*log)->RollSegment().ok());
    (*log)->LogMkdirs("/h4");
    ASSERT_TRUE((*log)->RollSegment().ok());
  }
  // Removing a *middle* segment tears a hole no replay can cross.
  // (Removing the oldest would look like a legitimate purge.)
  ASSERT_TRUE(fs::remove(dir.path() / "edits_4-4"));
  auto log = EditLog::OpenSegmented(dir.str());
  EXPECT_TRUE(!log.ok() && log.status().IsCorruption())
      << log.status().ToString();
}

TEST(SegmentedEditLogTest, MissingInProgressAfterFinalizeIsClean) {
  // Crash between finalize-rename and the next segment's creation: only
  // finalized segments on disk. Open starts a fresh in-progress tail.
  ScratchDir dir("octo_durability_nofresh");
  {
    auto log = EditLog::OpenSegmented(dir.str());
    ASSERT_TRUE(log.ok());
    (*log)->LogMkdirs("/x");
    ASSERT_TRUE((*log)->RollSegment().ok());
  }
  fs::remove(dir.path() / "edits_inprogress_1");
  auto log = EditLog::OpenSegmented(dir.str());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->size(), 1);
  (*log)->LogMkdirs("/y");
  EXPECT_TRUE((*log)->Commit().ok());
}

// ---------------------------------------------------------------------------
// Write-error handling (satellite: ENOSPC never loses an acked edit)

TEST(SegmentedEditLogTest, StickyErrorAfterInjectedDiskFull) {
  ScratchDir dir("octo_durability_enospc");
  auto opened = EditLog::OpenSegmented(dir.str());
  ASSERT_TRUE(opened.ok());
  EditLog* log = opened->get();
  std::atomic<int> failures{0};
  log->SetWriteFaultHook([&]() {
    EditLog::WriteFault fault;
    if (failures.fetch_add(1) == 0) fault.status = Status::NoSpace("disk full");
    return fault;
  });
  log->LogMkdirs("/lost");
  EXPECT_TRUE(log->Commit().IsNoSpace());
  // The failure is sticky even though the hook only fires once: the log
  // must not resume as if nothing happened.
  log->LogMkdirs("/also-lost");
  EXPECT_TRUE(log->Commit().IsNoSpace());
  EXPECT_TRUE(log->last_io_error().IsNoSpace());
  EXPECT_EQ(log->durable_records(), 0);
}

TEST(MasterDurabilityTest, InjectedDiskFullNeverLosesAckedEdit) {
  ScratchDir dir("octo_durability_master_enospc");
  fault::FaultRegistry registry(/*seed=*/1);
  ManualClock clock;
  std::vector<std::string> acked;
  {
    MasterOptions options;
    options.metadata_dir = dir.str();
    Master master(options, &clock);
    master.InstallDurabilityFaults(&registry);
    for (int i = 0; i < 5; ++i) {
      std::string path = "/acked" + std::to_string(i);
      ASSERT_TRUE(master.Mkdirs(path, kRoot).ok());
      acked.push_back(path);
    }
    fault::FaultSpec spec;
    spec.site = fault::Site::kJournalDiskFull;
    spec.code = StatusCode::kNoSpace;
    spec.max_hits = 1;
    registry.Arm(spec);
    // The op whose journal write fails is NOT acked...
    EXPECT_TRUE(master.Mkdirs("/never-acked", kRoot).IsNoSpace());
    // ...and the master fail-stops: in safe mode, rejecting everything.
    EXPECT_TRUE(master.journal_failed());
    EXPECT_TRUE(master.in_safe_mode());
    Status st = master.Mkdirs("/after-failure", kRoot);
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
    // Not even the manual safe-mode override lifts a journal fail-stop.
    master.ForceExitSafeMode();
    EXPECT_TRUE(master.in_safe_mode());
  }
  // Crash + restart: every acked edit is there; the un-acked op is not.
  MasterOptions options;
  options.metadata_dir = dir.str();
  Master recovered(options, &clock);
  ASSERT_TRUE(recovered.RecoverFromLocalStorage().ok());
  for (const std::string& path : acked) {
    EXPECT_TRUE(recovered.namespace_tree().Exists(path)) << path;
  }
  EXPECT_FALSE(recovered.namespace_tree().Exists("/never-acked"));
  EXPECT_FALSE(recovered.namespace_tree().Exists("/after-failure"));
}

// ---------------------------------------------------------------------------
// Tolerant replay (ReplayMode::kRecovery)

TEST(RecoveryReplayTest, SkipsRecordsTheImageAlreadyAbsorbed) {
  ManualClock clock;
  NamespaceTree tree(&clock);
  EditLog journal;  // in-memory: generates exactly the Master's records
  ASSERT_TRUE(tree.Mkdirs("/a/b", kRoot).ok());
  journal.LogMkdirs("/a/b");
  ASSERT_TRUE(tree.CreateFile("/a/b/f", ReplicationVector::OfTotal(1),
                              kDefaultBlockSize, false, kRoot)
                  .ok());
  journal.LogCreate("/a/b/f", ReplicationVector::OfTotal(1),
                    kDefaultBlockSize, false, "writer");
  const std::vector<std::string> entries = journal.entries();
  // A fuzzy image that already holds every op's effect...
  NamespaceTree recovered(&clock);
  ASSERT_TRUE(
      FsImage::Deserialize(FsImage::Serialize(tree), &recovered).ok());
  // ...fails strict replay but sails through recovery replay.
  EXPECT_FALSE(EditLog::Replay(entries, 0, &recovered).ok());
  EditReplayInfo info;
  ASSERT_TRUE(EditLog::Replay(entries, 0, &recovered, &info,
                              ReplayMode::kRecovery)
                  .ok());
  // MKDIR replays idempotently; only the CREATE needed skipping.
  EXPECT_EQ(info.skipped_records, 1);
  // Lease bookkeeping still happens for skipped CREATEs.
  EXPECT_EQ(info.lease_holders.at("/a/b/f"), "writer");
  EXPECT_EQ(FsImage::Serialize(recovered), FsImage::Serialize(tree));
}

TEST(RecoveryReplayTest, AddBlockIsNeverAppliedTwice) {
  ManualClock clock;
  NamespaceTree tree(&clock);
  ASSERT_TRUE(tree.CreateFile("/f", ReplicationVector::OfTotal(1),
                              kDefaultBlockSize, false, kRoot)
                  .ok());
  ASSERT_TRUE(tree.AddBlock("/f", BlockInfo{42, 100}).ok());
  NamespaceTree recovered(&clock);
  ASSERT_TRUE(
      FsImage::Deserialize(FsImage::Serialize(tree), &recovered).ok());
  EditLog journal;
  journal.LogAddBlock("/f", BlockInfo{42, 100});
  const std::vector<std::string> entries = journal.entries();
  EditReplayInfo info;
  ASSERT_TRUE(EditLog::Replay(entries, 0, &recovered, &info,
                              ReplayMode::kRecovery)
                  .ok());
  EXPECT_EQ(info.skipped_records, 1);
  auto blocks = recovered.GetBlocks("/f");
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 1u);
}

TEST(RecoveryReplayTest, RenameWithBothSidesPresentDropsStaleSource) {
  // The fuzzy walk serialized /src before the rename and the patch
  // appended /dst after it: the image holds both. Tail replay of the
  // RENAME must drop the stale pre-rename copy, not fail.
  ManualClock clock;
  NamespaceTree image(&clock);
  ASSERT_TRUE(image.Mkdirs("/src/kid", kRoot).ok());
  ASSERT_TRUE(image.Mkdirs("/dst/kid", kRoot).ok());
  EditReplayInfo info;
  ASSERT_TRUE(EditLog::Replay({"RENAME\t/src\t/dst"}, 0, &image, &info,
                              ReplayMode::kRecovery)
                  .ok());
  EXPECT_EQ(info.rename_fixups, 1);
  EXPECT_FALSE(image.Exists("/src"));
  EXPECT_TRUE(image.Exists("/dst/kid"));
}

TEST(RecoveryReplayTest, MalformedRecordStillFails) {
  ManualClock clock;
  NamespaceTree tree(&clock);
  EXPECT_TRUE(EditLog::Replay({"BOGUS\t/x"}, 0, &tree, nullptr,
                              ReplayMode::kRecovery)
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// FsImage hardening (satellite: hostile names cannot forge boundaries)

TEST(FsImageHardeningTest, ControlBytesInPathsAreRejectedAtTheGate) {
  EXPECT_FALSE(NormalizePath("/a\nb").ok());
  EXPECT_FALSE(NormalizePath("/a\tb").ok());
  EXPECT_FALSE(NormalizePath(std::string("/a\x01" "b", 4)).ok());
  EXPECT_FALSE(NormalizePath("/a\x7f").ok());
  EXPECT_TRUE(NormalizePath("/a%b").ok());  // '%' is a legal name byte
}

TEST(FsImageHardeningTest, HostileOwnerAndGroupRoundTrip) {
  ManualClock clock;
  NamespaceTree tree(&clock);
  ASSERT_TRUE(tree.Mkdirs("/d", kRoot).ok());
  // Owner/group are caller-supplied strings that never pass the path
  // gate; tabs and newlines here once forged extra image fields.
  ASSERT_TRUE(tree.SetOwner("/d", "evil\tuser", "new\nline\rgrp", kRoot).ok());
  ASSERT_TRUE(tree.Mkdirs("/pct", kRoot).ok());
  ASSERT_TRUE(tree.SetOwner("/pct", "100%", "%25", kRoot).ok());
  std::string image = FsImage::Serialize(tree);
  ManualClock clock2;
  NamespaceTree loaded(&clock2);
  ASSERT_TRUE(FsImage::Deserialize(image, &loaded).ok());
  EXPECT_EQ(FsImage::Serialize(loaded), image);
  auto st = loaded.GetFileStatus("/d", kRoot);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->owner, "evil\tuser");
  EXPECT_EQ(st->group, "new\nline\rgrp");
  st = loaded.GetFileStatus("/pct", kRoot);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->owner, "100%");
  EXPECT_EQ(st->group, "%25");
}

TEST(FsImageHardeningTest, RandomizedRoundTripFuzz) {
  // Random trees with adversarial owners/groups: serialize -> load ->
  // serialize must be a fixed point, byte for byte.
  const char kNameChars[] = "abz019.%~^= !#$&'()+,-@[]{}";
  Random rng(20260808);
  for (int round = 0; round < 30; ++round) {
    ManualClock clock;
    NamespaceTree tree(&clock);
    std::vector<std::string> dirs = {"/"};
    for (int i = 0; i < 40; ++i) {
      std::string name;
      for (int c = 0, n = 1 + static_cast<int>(rng.Uniform(8)); c < n; ++c) {
        name += kNameChars[rng.Uniform(sizeof(kNameChars) - 1)];
      }
      const std::string& parent = dirs[rng.Uniform(dirs.size())];
      std::string path = (parent == "/" ? "" : parent) + "/" + name;
      auto normalized = NormalizePath(path);
      if (!normalized.ok()) continue;
      if (rng.Uniform(3) == 0) {
        if (!tree.Mkdirs(*normalized, kRoot).ok()) continue;
        dirs.push_back(*normalized);
        std::string owner, group;
        for (int c = 0; c < 6; ++c) {
          owner += static_cast<char>(rng.Uniform(96) + 32);
          group += static_cast<char>(rng.Uniform(256));
        }
        ASSERT_TRUE(tree.SetOwner(*normalized, owner, group, kRoot).ok());
      } else {
        if (!tree.CreateFile(*normalized, ReplicationVector::OfTotal(1),
                             kDefaultBlockSize, false, kRoot)
                 .ok()) {
          continue;
        }
        ASSERT_TRUE(
            tree.AddBlock(*normalized,
                          BlockInfo{static_cast<BlockId>(i + 1),
                                    static_cast<int64_t>(rng.Uniform(4096))})
                .ok());
        if (rng.Uniform(2) == 0) {
          ASSERT_TRUE(tree.CompleteFile(*normalized).ok());
        }
      }
    }
    std::string image = FsImage::Serialize(tree);
    ManualClock clock2;
    NamespaceTree loaded(&clock2);
    ASSERT_TRUE(FsImage::Deserialize(image, &loaded).ok())
        << "round " << round;
    ASSERT_EQ(FsImage::Serialize(loaded), image) << "round " << round;
  }
}

TEST(FsImageHardeningTest, LegacyV1ImagesAreRejected) {
  // A version-1 image (written before field escaping existed) is the
  // version-2 body with a "1" in the header. Its unescaped fields could
  // not be told apart from escapes, so it is Corruption, not guessed at.
  ManualClock clock;
  NamespaceTree tree(&clock);
  ASSERT_TRUE(tree.Mkdirs("/legacy/dir", kRoot).ok());
  ASSERT_TRUE(tree.CreateFile("/legacy/file", ReplicationVector::OfTotal(1),
                              kDefaultBlockSize, false, kRoot)
                  .ok());
  std::string v1 = FsImage::Serialize(tree);
  const std::string header = "OCTO_FSIMAGE\t2\n";
  ASSERT_EQ(v1.compare(0, header.size(), header), 0);
  v1[header.size() - 2] = '1';
  NamespaceTree loaded(&clock);
  EXPECT_TRUE(FsImage::Deserialize(v1, &loaded).IsCorruption());
}

// ---------------------------------------------------------------------------
// Image store

TEST(ImageStoreTest, RoundTripRetentionAndFallbackOrder) {
  ScratchDir dir("octo_durability_imgstore");
  auto store = ImageStore::Open(dir.str(), /*retain=*/2);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->WriteImage(5, "image-at-5").ok());
  ASSERT_TRUE((*store)->WriteImage(10, "image-at-10").ok());
  ASSERT_TRUE((*store)->WriteImage(15, "image-at-15").ok());
  EXPECT_EQ((*store)->ListImages(), (std::vector<int64_t>{15, 10}));
  EXPECT_EQ((*store)->OldestRetainedTxid(), 10);
  EXPECT_FALSE(fs::exists(dir.path() / "fsimage_5"));
  auto payload = (*store)->ReadImage(15);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "image-at-15");
  // A fresh open sees the same set.
  auto reopened = ImageStore::Open(dir.str(), 2);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->ListImages(), (std::vector<int64_t>{15, 10}));
  // Rewriting the newest image (a checkpoint with no new journal records)
  // replaces it in place; the older fallback stays retained.
  ASSERT_TRUE((*reopened)->WriteImage(15, "image-at-15-again").ok());
  EXPECT_EQ((*reopened)->ListImages(), (std::vector<int64_t>{15, 10}));
  EXPECT_TRUE(fs::exists(dir.path() / "fsimage_10"));
}

TEST(ImageStoreTest, OnDiskDamageIsDetected) {
  ScratchDir dir("octo_durability_imgrot");
  auto store = ImageStore::Open(dir.str(), 2);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->WriteImage(3, "payload that will rot").ok());
  fs::path file = dir.path() / "fsimage_3";
  std::string bytes = ReadFile(file);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    WriteFile(file, damaged);
    EXPECT_TRUE((*store)->ReadImage(3).status().IsCorruption())
        << "flip at " << i;
  }
  WriteFile(file, bytes.substr(0, bytes.size() / 2));  // truncation
  EXPECT_TRUE((*store)->ReadImage(3).status().IsCorruption());
}

TEST(ImageStoreTest, StrayTmpFilesAreSweptAtOpen) {
  ScratchDir dir("octo_durability_imgtmp");
  WriteFile(dir.path() / "fsimage_99.tmp", "half-written");
  auto store = ImageStore::Open(dir.str(), 2);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->ListImages().empty());
  EXPECT_FALSE(fs::exists(dir.path() / "fsimage_99.tmp"));
}

TEST(ImageStoreTest, InjectedFaultsBehaveLikeTheRealFailures) {
  ScratchDir dir("octo_durability_imgfault");
  auto store = ImageStore::Open(dir.str(), 2);
  ASSERT_TRUE(store.ok());
  int mode = 0;
  (*store)->SetWriteFaultHook([&]() {
    ImageStore::WriteFault fault;
    if (mode == 1) fault.corrupt = true;
    if (mode == 2) fault.crash_before_rename = true;
    return fault;
  });
  mode = 1;  // silent rot: the write succeeds, the read fails
  ASSERT_TRUE((*store)->WriteImage(7, "will rot in flight").ok());
  EXPECT_TRUE((*store)->ReadImage(7).status().IsCorruption());
  mode = 2;  // crash before rename: no image, only a tmp corpse
  EXPECT_TRUE((*store)->WriteImage(9, "never lands").IsIoError());
  EXPECT_EQ((*store)->ListImages(), (std::vector<int64_t>{7}));
  EXPECT_TRUE(fs::exists(dir.path() / "fsimage_9.tmp"));
  auto reopened = ImageStore::Open(dir.str(), 2);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(fs::exists(dir.path() / "fsimage_9.tmp"));
}

// ---------------------------------------------------------------------------
// Fuzzy checkpoints

MasterOptions DurableOptions(const std::string& dir) {
  MasterOptions options;
  options.metadata_dir = dir;
  return options;
}

TEST(FuzzyCheckpointTest, QuiescentCheckpointRecoversExactly) {
  ScratchDir dir("octo_durability_ckpt_quiet");
  ManualClock clock;
  Master master(DurableOptions(dir.str()), &clock);
  ASSERT_TRUE(master.Mkdirs("/a/b/c", kRoot).ok());
  ASSERT_TRUE(master.Create("/a/b/f", ReplicationVector::OfTotal(2),
                            kDefaultBlockSize, false, kRoot, "writer")
                  .ok());
  ASSERT_TRUE(master.SetQuota("/a", kTotalSpaceSlot, 1 << 20).ok());
  ASSERT_TRUE(master.SetOwner("/a/b", "alice", "eng", kRoot).ok());
  auto txid = master.WriteCheckpoint();
  ASSERT_TRUE(txid.ok()) << txid.status().ToString();
  // Post-checkpoint edits land in the tail.
  ASSERT_TRUE(master.Mkdirs("/post", kRoot).ok());
  ASSERT_TRUE(master.Rename("/a/b/c", "/a/moved", kRoot).ok());
  ASSERT_TRUE(master.Create("/post/g", ReplicationVector::OfTotal(1),
                            kDefaultBlockSize, false, kRoot, "tail-writer")
                  .ok());

  Master recovered(DurableOptions(dir.str()), &clock);
  ASSERT_TRUE(recovered.RecoverFromLocalStorage().ok());
  EXPECT_EQ(FsImage::Serialize(recovered.namespace_tree()),
            FsImage::Serialize(master.namespace_tree()));
  // A CREATE journaled after the checkpoint restores its exact holder;
  // one folded into the image keeps the lease but loses the name (the
  // image does not carry holders — recovery grants a placeholder).
  auto holder = recovered.lease_manager().Holder("/post/g");
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();
  EXPECT_EQ(*holder, "tail-writer");
  holder = recovered.lease_manager().Holder("/a/b/f");
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();
  EXPECT_FALSE(holder->empty());
}

TEST(FuzzyCheckpointTest, OnlyOneCheckpointRunsAtATime) {
  ScratchDir dir("octo_durability_ckpt_single");
  ManualClock clock;
  Master master(DurableOptions(dir.str()), &clock);
  EXPECT_TRUE(master.WriteCheckpoint().ok());
  // Without a metadata_dir there is nowhere to checkpoint to.
  Master ephemeral(MasterOptions{}, &clock);
  EXPECT_TRUE(ephemeral.WriteCheckpoint().status().IsFailedPrecondition());
}

TEST(FuzzyCheckpointTest, CorruptNewestImageFallsBackToOlder) {
  ScratchDir dir("octo_durability_ckpt_fallback");
  ManualClock clock;
  std::string live_image;
  {
    Master master(DurableOptions(dir.str()), &clock);
    ASSERT_TRUE(master.Mkdirs("/first", kRoot).ok());
    ASSERT_TRUE(master.WriteCheckpoint().ok());
    ASSERT_TRUE(master.Mkdirs("/second", kRoot).ok());
    auto txid = master.WriteCheckpoint();
    ASSERT_TRUE(txid.ok());
    ASSERT_TRUE(master.Mkdirs("/third", kRoot).ok());
    live_image = FsImage::Serialize(master.namespace_tree());
    // Rot the newest image on disk.
    fs::path newest = dir.path() / ("fsimage_" + std::to_string(*txid));
    std::string bytes = ReadFile(newest);
    bytes[bytes.size() / 3] ^= 0x20;
    WriteFile(newest, bytes);
  }
  Master recovered(DurableOptions(dir.str()), &clock);
  ASSERT_TRUE(recovered.RecoverFromLocalStorage().ok());
  EXPECT_EQ(FsImage::Serialize(recovered.namespace_tree()), live_image);
  EXPECT_TRUE(recovered.namespace_tree().Exists("/third"));
}

TEST(FuzzyCheckpointTest, NoImageAtAllReplaysTheWholeJournal) {
  ScratchDir dir("octo_durability_ckpt_noimage");
  ManualClock clock;
  std::string live_image;
  {
    Master master(DurableOptions(dir.str()), &clock);
    ASSERT_TRUE(master.Mkdirs("/only/journal", kRoot).ok());
    ASSERT_TRUE(master.Rename("/only/journal", "/renamed", kRoot).ok());
    live_image = FsImage::Serialize(master.namespace_tree());
  }
  Master recovered(DurableOptions(dir.str()), &clock);
  ASSERT_TRUE(recovered.RecoverFromLocalStorage().ok());
  EXPECT_EQ(FsImage::Serialize(recovered.namespace_tree()), live_image);
}

// Mutator threads hammer the namespace while checkpoints run; after
// quiescing, recovery from disk must reproduce the live namespace byte
// for byte. Exercises the chunked walk racing creates/deletes and the
// rename patch (renames from unvisited into visited regions).
TEST(FuzzyCheckpointTest, CheckpointRacingMutationsRecoversExactly) {
  ScratchDir dir("octo_durability_ckpt_race");
  ManualClock clock;
  Master master(DurableOptions(dir.str()), &clock);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 300;
  std::vector<std::thread> mutators;
  mutators.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    mutators.emplace_back([&master, t] {
      Random rng(1000 + static_cast<uint64_t>(t));
      const std::string base = "/w" + std::to_string(t);
      EXPECT_TRUE(master.Mkdirs(base, kRoot).ok());
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string p = base + "/n" + std::to_string(i);
        switch (rng.Uniform(5)) {
          case 0:
            (void)master.Mkdirs(p + "/deep", kRoot);
            break;
          case 1:
            (void)master.Create(p, ReplicationVector::OfTotal(1),
                                kDefaultBlockSize, false, kRoot, "w");
            break;
          case 2:
            // Renames from fresh (likely unvisited) paths into earlier
            // (likely visited) ones — the checkpoint patch's worst case.
            (void)master.Mkdirs(p + "/sub", kRoot);
            (void)master.Rename(
                p, base + "/r" + std::to_string(rng.Uniform(1 + i)), kRoot);
            break;
          case 3:
            (void)master.Delete(base + "/n" + std::to_string(rng.Uniform(1 + i)),
                                true, kRoot);
            break;
          case 4:
            (void)master.SetQuota(base, kTotalSpaceSlot,
                                  1 << (20 + rng.Uniform(4)));
            break;
        }
      }
    });
  }
  int checkpoints = 0;
  std::atomic<bool> done{false};
  std::thread checkpointer([&] {
    // do-while: under heavy machine load this thread can be scheduled
    // after the mutators already finished; at least one checkpoint must
    // still be written for the recovery comparison to mean anything.
    do {
      auto txid = master.WriteCheckpoint();
      if (!txid.ok()) {
        ADD_FAILURE() << "checkpoint failed: " << txid.status().ToString();
        return;
      }
      ++checkpoints;
    } while (!done.load(std::memory_order_acquire));
  });
  for (auto& m : mutators) m.join();
  done.store(true, std::memory_order_release);
  checkpointer.join();
  ASSERT_GT(checkpoints, 0);

  Master recovered(DurableOptions(dir.str()), &clock);
  ASSERT_TRUE(recovered.RecoverFromLocalStorage().ok());
  EXPECT_EQ(FsImage::Serialize(recovered.namespace_tree()),
            FsImage::Serialize(master.namespace_tree()));
}

// ---------------------------------------------------------------------------
// Chaos sweep: crash the master at every durability injection point
// while checkpoints race live mutations; recovery must never lose an
// acked op, and may at most additionally contain the one op that was
// in flight (journaled but not acked) when the crash hit.

class ShadowedMaster {
 public:
  ShadowedMaster(const std::string& dir, Clock* clock)
      : shadow_(clock), master_(DurableOptions(dir), clock) {}

  Master& master() { return master_; }
  NamespaceTree& shadow() { return shadow_; }

  // Applies one random namespace op to the master; mirrors it into the
  // shadow tree only when the master acked. Returns false once the
  // master has fail-stopped (the "crash").
  bool RandomOp(Random* rng, int i) {
    const std::string p = "/c" + std::to_string(rng->Uniform(40));
    const std::string q = "/c" + std::to_string(rng->Uniform(40));
    Status st;
    switch (rng->Uniform(8)) {
      case 0:
        st = Apply(master_.Mkdirs(p + "/d" + std::to_string(i), kRoot),
                   [p, i](NamespaceTree* t) {
                     return t->Mkdirs(p + "/d" + std::to_string(i), kRoot);
                   });
        break;
      case 1:
        st = Apply(master_.Create(p + "/f", ReplicationVector::OfTotal(1),
                                  kDefaultBlockSize, false, kRoot, "w"),
                   [p](NamespaceTree* t) {
                     return t->CreateFile(p + "/f", ReplicationVector::OfTotal(1),
                                          kDefaultBlockSize, false, kRoot);
                   });
        break;
      case 2:
        st = Apply(master_.CompleteFile(p + "/f", "w"), [p](NamespaceTree* t) {
          return t->CompleteFile(p + "/f");
        });
        break;
      case 3:
        st = Apply(master_.Rename(p, q, kRoot), [p, q](NamespaceTree* t) {
          return t->Rename(p, q, kRoot);
        });
        break;
      case 4:
        // skip_trash: a trash-move journals several records, which would
        // widen the crash ambiguity past the one-op window proven below.
        st = Apply(master_.Delete(p, true, kRoot, /*skip_trash=*/true)
                       .status(),
                   [p](NamespaceTree* t) {
                     return t->Delete(p, true, kRoot).status();
                   });
        break;
      case 5:
        st = Apply(master_.SetQuota(p, kTotalSpaceSlot, 1 << 20),
                   [p](NamespaceTree* t) {
                     return t->SetQuota(p, kTotalSpaceSlot, 1 << 20);
                   });
        break;
      case 6:
        st = Apply(master_.SetOwner(p, "u" + std::to_string(i), "g", kRoot),
                   [p, i](NamespaceTree* t) {
                     return t->SetOwner(p, "u" + std::to_string(i), "g",
                                        kRoot);
                   });
        break;
      case 7:
        st = Apply(master_.SetMode(p, 0700, kRoot), [p](NamespaceTree* t) {
          return t->SetMode(p, 0700, kRoot);
        });
        break;
    }
    // A journal failure surfaces as the injected code (first op) or
    // Unavailable (every later one): the master is dead to mutations.
    return !master_.journal_failed();
  }

  // The op that failed its journal commit was durable-or-not depending on
  // where the tear hit: recovery may legitimately contain it. Re-running
  // the shadow apply for it makes the "with the pending op" candidate.
  const std::function<Status(NamespaceTree*)>& pending_op() const {
    return pending_;
  }

 private:
  template <typename Fn>
  Status Apply(Status st, Fn&& shadow_apply) {
    if (st.ok()) {
      Status mirrored = shadow_apply(&shadow_);
      EXPECT_TRUE(mirrored.ok())
          << "shadow diverged: " << mirrored.ToString();
    } else if (master_.journal_failed() && pending_ == nullptr) {
      pending_ = shadow_apply;
    }
    return st;
  }

  NamespaceTree shadow_;
  Master master_;
  std::function<Status(NamespaceTree*)> pending_;
};

TEST(DurabilityChaosTest, CrashAtEveryInjectionPointLosesNoAckedOp) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ScratchDir dir("octo_durability_chaos_" + std::to_string(seed));
    ManualClock clock;
    fault::FaultRegistry registry(seed);
    Random rng(seed * 7919);
    std::string expect_without, expect_with;
    {
      ShadowedMaster sm(dir.str(), &clock);
      sm.master().InstallDurabilityFaults(&registry);
      std::atomic<bool> done{false};
      std::thread checkpointer([&] {
        // Races image writes (and their injected faults) against the
        // mutator. Failures are fine — a checkpoint that dies mid-write
        // must simply not damage recovery.
        while (!done.load(std::memory_order_acquire)) {
          (void)sm.master().WriteCheckpoint();
          std::this_thread::yield();
        }
      });
      const int ops = 200 + static_cast<int>(rng.Uniform(200));
      for (int i = 0; i < ops; ++i) {
        // Keep arming random durability faults; most are one-shot.
        if (rng.Uniform(12) == 0) {
          fault::FaultSpec spec;
          spec.max_hits = 1;
          switch (rng.Uniform(4)) {
            case 0:
              spec.site = fault::Site::kJournalTornWrite;
              spec.torn_bytes = static_cast<int64_t>(rng.Uniform(64));
              break;
            case 1:
              spec.site = fault::Site::kJournalDiskFull;
              spec.code = StatusCode::kNoSpace;
              break;
            case 2:
              spec.site = fault::Site::kImageCorrupt;
              break;
            case 3:
              spec.site = fault::Site::kImageCrashMidRename;
              break;
          }
          registry.Arm(spec);
        }
        if (!sm.RandomOp(&rng, i)) break;  // fail-stopped: crash now
      }
      done.store(true, std::memory_order_release);
      checkpointer.join();
      expect_without = FsImage::Serialize(sm.shadow());
      if (sm.pending_op() != nullptr) {
        Status st = sm.pending_op()(&sm.shadow());
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      expect_with = FsImage::Serialize(sm.shadow());
      // Master destroyed here — the crash.
    }
    registry.ClearAll();  // recovery runs on healthy hardware
    Master recovered(DurableOptions(dir.str()), &clock);
    Status st = recovered.RecoverFromLocalStorage();
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
    std::string got = FsImage::Serialize(recovered.namespace_tree());
    EXPECT_TRUE(got == expect_without || got == expect_with)
        << "seed " << seed
        << ": recovered namespace matches neither the acked-ops shadow nor "
           "the shadow plus the one in-flight op";
  }
}

}  // namespace
}  // namespace octo

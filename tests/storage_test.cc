// Unit tests for the storage substrate: CRC-32C, block stores (memory and
// disk), media types.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "storage/block_store.h"
#include "storage/checksum.h"
#include "storage/media_type.h"

namespace octo {
namespace {

// ---------------------------------------------------------------------------
// CRC-32C

TEST(ChecksumTest, KnownVectors) {
  // Standard CRC-32C test vectors.
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("a", 1), 0xC1D04330u);
}

TEST(ChecksumTest, SensitiveToSingleBitFlips) {
  std::string data(1024, 'x');
  uint32_t base = Crc32c(data);
  data[512] ^= 1;
  EXPECT_NE(Crc32c(data), base);
}

// CRC-32C by its definition, one bit at a time: the oracle for whichever
// loop (table or CPU instruction) the library picked on this machine.
uint32_t ReferenceCrc32c(const char* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<uint8_t>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng());
  return out;
}

TEST(ChecksumTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const std::string buf = RandomBytes(64 + 8, 1);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 64; ++len) {
      const char* p = buf.data() + start;
      EXPECT_EQ(Crc32c(p, len), ReferenceCrc32c(p, len))
          << "start " << start << " length " << len;
    }
  }
}

TEST(ChecksumTest, ExtendMatchesReferenceAtEverySplitPoint) {
  const std::string buf = RandomBytes(257, 2);
  const uint32_t want = ReferenceCrc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, buf.data(), split);
    EXPECT_EQ(Crc32cExtend(crc, buf.data() + split, buf.size() - split), want)
        << "split " << split;
  }
}

TEST(ChecksumTest, MatchesBitwiseReferenceOnOneMiB) {
  const std::string buf = RandomBytes(1 << 20, 3);
  const uint32_t want = ReferenceCrc32c(buf.data(), buf.size());
  EXPECT_EQ(Crc32c(buf), want);
  // The block store's packet-by-packet chain.
  uint32_t crc = Crc32c(std::string_view());
  for (size_t off = 0; off < buf.size(); off += 64 * 1024) {
    crc = Crc32cExtend(crc, buf.data() + off, 64 * 1024);
  }
  EXPECT_EQ(crc, want);
}

// ---------------------------------------------------------------------------
// Block stores (shared behaviours, parameterized over implementations)

enum class StoreKind { kMemory, kDisk };

class BlockStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    if (GetParam() == StoreKind::kMemory) {
      store_ = std::make_unique<MemoryBlockStore>();
    } else {
      // "Name/Disk" would nest the directory; keep it one level deep so
      // TearDown removes all of it.
      std::string name =
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
      std::replace(name.begin(), name.end(), '/', '_');
      dir_ = std::filesystem::temp_directory_path() /
             ("octo_store_test_" + std::to_string(::getpid()) + "_" + name);
      std::filesystem::remove_all(dir_);
      auto opened = DiskBlockStore::Open(dir_.string());
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      store_ = std::move(opened).value();
    }
  }

  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<BlockStore> store_;
  std::filesystem::path dir_;
};

TEST_P(BlockStoreTest, PutGetRoundTrip) {
  ASSERT_TRUE(store_->Put(1, "hello world").ok());
  auto data = store_->Get(1);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "hello world");
}

TEST_P(BlockStoreTest, GetMissingIsNotFound) {
  EXPECT_TRUE(store_->Get(99).status().IsNotFound());
}

TEST_P(BlockStoreTest, PutReplacesAndAdjustsUsage) {
  ASSERT_TRUE(store_->Put(1, std::string(100, 'a')).ok());
  EXPECT_EQ(store_->UsedBytes(), 100);
  ASSERT_TRUE(store_->Put(1, std::string(40, 'b')).ok());
  EXPECT_EQ(store_->UsedBytes(), 40);
  EXPECT_EQ(store_->Get(1)->size(), 40u);
}

TEST_P(BlockStoreTest, DeleteRemovesAndFreesSpace) {
  ASSERT_TRUE(store_->Put(1, std::string(100, 'a')).ok());
  ASSERT_TRUE(store_->Put(2, std::string(50, 'b')).ok());
  ASSERT_TRUE(store_->Delete(1).ok());
  EXPECT_EQ(store_->UsedBytes(), 50);
  EXPECT_FALSE(store_->Contains(1));
  EXPECT_TRUE(store_->Delete(1).IsNotFound());
}

TEST_P(BlockStoreTest, ListReturnsSortedIds) {
  ASSERT_TRUE(store_->Put(5, "e").ok());
  ASSERT_TRUE(store_->Put(1, "a").ok());
  ASSERT_TRUE(store_->Put(3, "c").ok());
  EXPECT_EQ(store_->List(), (std::vector<BlockId>{1, 3, 5}));
}

TEST_P(BlockStoreTest, CorruptionDetectedOnRead) {
  ASSERT_TRUE(store_->Put(7, std::string(256, 'z')).ok());
  ASSERT_TRUE(store_->CorruptForTesting(7).ok());
  EXPECT_TRUE(store_->Get(7).status().IsCorruption());
}

TEST_P(BlockStoreTest, EmptyBlockSupported) {
  ASSERT_TRUE(store_->Put(1, "").ok());
  auto data = store_->Get(1);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->empty());
  EXPECT_EQ(store_->UsedBytes(), 0);
}

// Packet `index` of block `id`: distinct bytes per block and per packet.
std::string Packet(BlockId id, int index, size_t n) {
  return RandomBytes(n, static_cast<uint32_t>(id * 1000 + index));
}

void ExpectReplica(const BlockStore& store, BlockId id, int64_t length,
                   uint64_t genstamp, ReplicaState state) {
  auto info = store.GetReplicaInfo(id);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(*info, (ReplicaInfo{length, genstamp, state})) << "block " << id;
}

TEST_P(BlockStoreTest, StreamedReplicaRoundTrips) {
  ASSERT_TRUE(store_->Put(9, std::string(10, 'p')).ok());
  ASSERT_TRUE(store_->Create(1, 5).ok());
  ExpectReplica(*store_, 1, 0, 5, ReplicaState::kRbw);
  EXPECT_EQ(store_->UsedBytes(), 10);
  std::string expected;
  for (int i = 0; i < 16; ++i) {
    std::string packet = Packet(1, i, 1000 + i);
    ASSERT_TRUE(store_->Append(1, expected.size(), packet, 5).ok()) << i;
    expected += packet;
    EXPECT_EQ(store_->UsedBytes(), 10 + static_cast<int64_t>(expected.size()));
    ExpectReplica(*store_, 1, expected.size(), 5, ReplicaState::kRbw);
  }
  ASSERT_TRUE(store_->Finalize(1, 5).ok());
  ExpectReplica(*store_, 1, expected.size(), 5, ReplicaState::kFinalized);
  EXPECT_EQ(store_->UsedBytes(), 10 + static_cast<int64_t>(expected.size()));
  auto data = store_->Get(1);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, expected);

  // Create over a leftover replica starts it over from empty.
  ASSERT_TRUE(store_->Create(1, 6).ok());
  ExpectReplica(*store_, 1, 0, 6, ReplicaState::kRbw);
  EXPECT_EQ(store_->UsedBytes(), 10);
  EXPECT_EQ(*store_->Get(1), "");
}

TEST_P(BlockStoreTest, AppendRejectsSealedStaleAndMisplacedPackets) {
  const std::string first = Packet(1, 0, 100);
  EXPECT_TRUE(store_->Append(1, 0, first, 3).IsNotFound());
  ASSERT_TRUE(store_->Create(1, 3).ok());
  ASSERT_TRUE(store_->Append(1, 0, first, 3).ok());
  const std::string next = Packet(1, 1, 50);
  EXPECT_TRUE(store_->Append(1, 100, next, 2).IsFailedPrecondition());
  EXPECT_TRUE(store_->Append(1, 100, next, 4).IsFailedPrecondition());
  EXPECT_TRUE(store_->Append(1, 60, next, 3).IsFailedPrecondition());
  EXPECT_TRUE(store_->Append(1, 0, next, 3).IsFailedPrecondition());
  EXPECT_TRUE(store_->Append(1, 101, next, 3).IsFailedPrecondition());
  ASSERT_TRUE(store_->Finalize(1, 3).ok());
  EXPECT_TRUE(store_->Append(1, 100, next, 3).IsFailedPrecondition());
  // No rejected packet left a trace.
  ExpectReplica(*store_, 1, 100, 3, ReplicaState::kFinalized);
  EXPECT_EQ(store_->UsedBytes(), 100);
  EXPECT_EQ(*store_->Get(1), first);
}

TEST_P(BlockStoreTest, FinalizeIsIdempotentAndChecksGenstamp) {
  EXPECT_TRUE(store_->Finalize(1, 7).IsNotFound());
  ASSERT_TRUE(store_->Create(1, 7).ok());
  const std::string packet = Packet(1, 0, 300);
  ASSERT_TRUE(store_->Append(1, 0, packet, 7).ok());
  EXPECT_TRUE(store_->Finalize(1, 6).IsFailedPrecondition());
  EXPECT_TRUE(store_->Finalize(1, 8).IsFailedPrecondition());
  ExpectReplica(*store_, 1, 300, 7, ReplicaState::kRbw);
  ASSERT_TRUE(store_->Finalize(1, 7).ok());
  ASSERT_TRUE(store_->Finalize(1, 7).ok());
  EXPECT_TRUE(store_->Finalize(1, 8).IsFailedPrecondition());
  ExpectReplica(*store_, 1, 300, 7, ReplicaState::kFinalized);
  EXPECT_EQ(store_->UsedBytes(), 300);
  EXPECT_EQ(*store_->Get(1), packet);
}

TEST_P(BlockStoreTest, RecoverTruncatesAndRestamps) {
  ASSERT_TRUE(store_->Create(1, 3).ok());
  std::string expected;
  for (int i = 0; i < 4; ++i) {
    std::string packet = Packet(1, i, 1000);
    ASSERT_TRUE(store_->Append(1, expected.size(), packet, 3).ok());
    expected += packet;
  }
  EXPECT_TRUE(store_->Recover(1, 2500, 2).IsFailedPrecondition());
  EXPECT_TRUE(store_->Recover(1, 4001, 4).IsFailedPrecondition());
  EXPECT_TRUE(store_->Recover(2, 0, 4).IsNotFound());
  ExpectReplica(*store_, 1, 4000, 3, ReplicaState::kRbw);

  // Pipeline repair: truncate mid-packet, re-stamp, keep streaming.
  ASSERT_TRUE(store_->Recover(1, 2500, 4).ok());
  expected.resize(2500);
  ExpectReplica(*store_, 1, 2500, 4, ReplicaState::kRbw);
  EXPECT_EQ(store_->UsedBytes(), 2500);
  EXPECT_EQ(*store_->Get(1), expected);
  EXPECT_TRUE(store_->Append(1, 2500, "zombie", 3).IsFailedPrecondition());
  const std::string resumed = Packet(1, 9, 700);
  ASSERT_TRUE(store_->Append(1, 2500, resumed, 4).ok());
  expected += resumed;
  EXPECT_EQ(store_->UsedBytes(), 3200);

  // Lease recovery: re-stamp at the same length, then seal.
  ASSERT_TRUE(store_->Recover(1, 3200, 5).ok());
  ASSERT_TRUE(store_->Finalize(1, 5).ok());
  ExpectReplica(*store_, 1, 3200, 5, ReplicaState::kFinalized);
  EXPECT_EQ(*store_->Get(1), expected);

  // A finalized replica recovers too, and stays finalized.
  ASSERT_TRUE(store_->Recover(1, 0, 6).ok());
  ExpectReplica(*store_, 1, 0, 6, ReplicaState::kFinalized);
  EXPECT_EQ(store_->UsedBytes(), 0);
  EXPECT_EQ(*store_->Get(1), "");
}

TEST_P(BlockStoreTest, AppendDoesNotLaunderEarlierCorruption) {
  ASSERT_TRUE(store_->Create(1, 1).ok());
  ASSERT_TRUE(store_->Append(1, 0, Packet(1, 0, 512), 1).ok());
  ASSERT_TRUE(store_->CorruptForTesting(1).ok());
  ASSERT_TRUE(store_->Append(1, 512, Packet(1, 1, 512), 1).ok());
  EXPECT_TRUE(store_->Get(1).status().IsCorruption());
  ASSERT_TRUE(store_->Finalize(1, 1).ok());
  EXPECT_TRUE(store_->Get(1).status().IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(Stores, BlockStoreTest,
                         ::testing::Values(StoreKind::kMemory,
                                           StoreKind::kDisk),
                         [](const auto& info) {
                           return info.param == StoreKind::kMemory ? "Memory"
                                                                   : "Disk";
                         });

// ---------------------------------------------------------------------------
// Disk-specific behaviour

TEST(DiskBlockStoreTest, SurvivesReopen) {
  auto dir = std::filesystem::temp_directory_path() / "octo_store_reopen";
  std::filesystem::remove_all(dir);
  {
    auto store = DiskBlockStore::Open(dir.string());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(42, "persistent data").ok());
  }
  {
    auto store = DiskBlockStore::Open(dir.string());
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE((*store)->Contains(42));
    EXPECT_EQ((*store)->UsedBytes(), 15);
    auto data = (*store)->Get(42);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, "persistent data");
  }
  std::filesystem::remove_all(dir);
}

std::filesystem::path FreshDir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() /
             (name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DiskBlockStoreTest, ReopenKeepsStreamedFinalizedAndRecoveredReplicas) {
  auto dir = FreshDir("octo_store_reopen_streams");
  std::vector<std::pair<BlockId, ReplicaInfo>> before;
  std::map<BlockId, std::string> contents;
  {
    auto store = std::move(DiskBlockStore::Open(dir.string())).value();
    for (BlockId id : {1, 2, 3}) {
      ASSERT_TRUE(store->Create(id, 10 + id).ok());
      for (int i = 0; i < 5; ++i) {
        std::string packet = Packet(id, i, 4096);
        ASSERT_TRUE(
            store->Append(id, contents[id].size(), packet, 10 + id).ok());
        contents[id] += packet;
      }
    }
    ASSERT_TRUE(store->Finalize(2, 12).ok());        // FINALIZED
    ASSERT_TRUE(store->Recover(3, 9000, 20).ok());   // recovered, RBW
    contents[3].resize(9000);
    before = store->ListReplicas();
  }
  EXPECT_EQ(before, (std::vector<std::pair<BlockId, ReplicaInfo>>{
                        {1, {20480, 11, ReplicaState::kRbw}},
                        {2, {20480, 12, ReplicaState::kFinalized}},
                        {3, {9000, 20, ReplicaState::kRbw}}}));
  auto store = std::move(DiskBlockStore::Open(dir.string())).value();
  EXPECT_EQ(store->ListReplicas(), before);
  EXPECT_EQ(store->UsedBytes(), 20480 + 20480 + 9000);
  for (const auto& [id, bytes] : contents) {
    auto data = store->Get(id);
    ASSERT_TRUE(data.ok()) << id << ": " << data.status().ToString();
    EXPECT_EQ(*data, bytes) << id;
  }
  // The reopened RBW replica keeps streaming from its stored trailer.
  const std::string more = Packet(1, 5, 100);
  ASSERT_TRUE(store->Append(1, 20480, more, 11).ok());
  ASSERT_TRUE(store->Finalize(1, 11).ok());
  EXPECT_EQ(*store->Get(1), contents[1] + more);
  store.reset();
  std::filesystem::remove_all(dir);
}

TEST(DiskBlockStoreTest, OpensReplicaFilesInTheDocumentedFormat) {
  // payload | crc32c:4 | genstamp:8 | state:1, little-endian, as written
  // by every earlier version of the store.
  auto dir = FreshDir("octo_store_format");
  std::filesystem::create_directories(dir);
  auto write_replica = [&](BlockId id, const std::string& payload,
                           uint64_t genstamp, char state) {
    uint32_t crc = Crc32c(payload);
    std::ofstream out(dir / ("blk_" + std::to_string(id)), std::ios::binary);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out.write(reinterpret_cast<const char*>(&genstamp), 8);
    out.write(&state, 1);
  };
  write_replica(4, "sealed bytes", 7, 1);
  write_replica(5, "streaming", 8, 0);
  auto store = std::move(DiskBlockStore::Open(dir.string())).value();
  ExpectReplica(*store, 4, 12, 7, ReplicaState::kFinalized);
  ExpectReplica(*store, 5, 9, 8, ReplicaState::kRbw);
  EXPECT_EQ(*store->Get(4), "sealed bytes");
  ASSERT_TRUE(store->Append(5, 9, " on", 8).ok());
  ASSERT_TRUE(store->Finalize(5, 8).ok());
  EXPECT_EQ(*store->Get(5), "streaming on");
  EXPECT_EQ(std::filesystem::file_size(dir / "blk_5"), 12u + 13u);
  store.reset();
  std::filesystem::remove_all(dir);
}

// Bytes this process has handed to write(2)-family calls so far.
int64_t ProcessWriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return -1;
}

TEST(DiskBlockStoreTest, StreamingWritesArePacketSized) {
  if (ProcessWriteBytes() < 0) GTEST_SKIP() << "no /proc/self/io";
  auto dir = FreshDir("octo_store_write_amp");
  auto store = std::move(DiskBlockStore::Open(dir.string())).value();
  const std::string packet = Packet(1, 0, 64 * 1024);
  const int64_t start = ProcessWriteBytes();
  ASSERT_TRUE(store->Create(1, 1).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store->Append(1, i * packet.size(), packet, 1).ok());
  }
  ASSERT_TRUE(store->Finalize(1, 1).ok());
  const int64_t written = ProcessWriteBytes() - start;
  // 1 MiB of payload; rewriting the replica per packet would write ~8.5 MiB.
  EXPECT_LT(written, 2 << 20);
  EXPECT_GE(written, 1 << 20);
  store.reset();
  std::filesystem::remove_all(dir);
}

// Streams, reads and metadata polls race on one store; run under TSan by
// tools/check_sanitizers.sh.
TEST(DiskBlockStoreTest, ConcurrentStreamsAndReads) {
  auto dir = FreshDir("octo_store_concurrent");
  auto store = std::move(DiskBlockStore::Open(dir.string())).value();
  constexpr int kStreams = 3;
  constexpr int kBlocksPerStream = 6;
  constexpr int kPackets = 8;
  constexpr size_t kPacketBytes = 8 * 1024;
  constexpr int64_t kBlockBytes = kPackets * kPacketBytes;
  auto expected = [](BlockId id) {
    std::string bytes;
    for (int i = 0; i < kPackets; ++i) bytes += Packet(id, i, kPacketBytes);
    return bytes;
  };

  std::mutex mu;
  std::vector<BlockId> finalized;  // guarded by mu
  std::atomic<int> streams_left{kStreams};
  std::atomic<int> verified_reads{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kStreams; ++s) {
    threads.emplace_back([&, s] {
      for (int b = 0; b < kBlocksPerStream; ++b) {
        BlockId id = s * 100 + b;
        const std::string bytes = expected(id);
        EXPECT_TRUE(store->Create(id, 1).ok());
        for (int i = 0; i < kPackets; ++i) {
          EXPECT_TRUE(store
                          ->Append(id, i * kPacketBytes,
                                   std::string_view(bytes).substr(
                                       i * kPacketBytes, kPacketBytes),
                                   1)
                          .ok());
        }
        EXPECT_TRUE(store->Finalize(id, 1).ok());
        std::lock_guard<std::mutex> lock(mu);
        finalized.push_back(id);
      }
      --streams_left;
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937 rng(r);
      while (streams_left > 0 || verified_reads < 4) {
        BlockId id;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (finalized.empty()) continue;
          id = finalized[rng() % finalized.size()];
        }
        auto data = store->Get(id);
        EXPECT_TRUE(data.ok()) << id << ": " << data.status().ToString();
        if (data.ok()) {
          EXPECT_EQ(*data, expected(id)) << id;
        }
        ++verified_reads;
      }
    });
  }
  threads.emplace_back([&] {
    while (streams_left > 0) {
      int64_t used = store->UsedBytes();
      EXPECT_GE(used, 0);
      EXPECT_LE(used, kStreams * kBlocksPerStream * kBlockBytes);
      for (const auto& [id, info] : store->ListReplicas()) {
        EXPECT_EQ(info.length % kPacketBytes, 0) << id;
        EXPECT_LE(info.length, kBlockBytes) << id;
        auto one = store->GetReplicaInfo(id);
        ASSERT_TRUE(one.ok());
        EXPECT_GE(one->length, info.length) << id;
      }
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_GE(verified_reads, 4);
  EXPECT_EQ(store->UsedBytes(), kStreams * kBlocksPerStream * kBlockBytes);
  for (const auto& [id, info] : store->ListReplicas()) {
    EXPECT_EQ(info, (ReplicaInfo{kBlockBytes, 1, ReplicaState::kFinalized}));
    EXPECT_EQ(*store->Get(id), expected(id)) << id;
  }
  store.reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Media types

TEST(MediaTypeTest, NamesRoundTrip) {
  for (MediaType t : {MediaType::kMemory, MediaType::kSsd, MediaType::kHdd,
                      MediaType::kRemote}) {
    auto parsed = ParseMediaType(MediaTypeName(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(ParseMediaType("FLOPPY").ok());
}

TEST(MediaTypeTest, OnlyMemoryIsVolatile) {
  EXPECT_TRUE(IsVolatile(MediaType::kMemory));
  EXPECT_FALSE(IsVolatile(MediaType::kSsd));
  EXPECT_FALSE(IsVolatile(MediaType::kHdd));
  EXPECT_FALSE(IsVolatile(MediaType::kRemote));
}

}  // namespace
}  // namespace octo

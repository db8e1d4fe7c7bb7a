#ifndef OCTOPUSFS_STORAGE_BLOCK_STORE_H_
#define OCTOPUSFS_STORAGE_BLOCK_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/block.h"

namespace octo {

/// Failure-injection seam for a block store. A hook is consulted at the
/// top of every Put/Get; it can veto the operation with an error status
/// or ask for the freshly stored bytes to be silently corrupted (a bit
/// flip after the checksum was computed — "silent rot").
class StoreFaultHook {
 public:
  virtual ~StoreFaultHook() = default;

  struct PutOutcome {
    Status status;               // non-OK: fail the Put with this status
    bool corrupt_after = false;  // OK + true: store, then rot the bytes
  };
  virtual PutOutcome OnPut(BlockId id) = 0;
  virtual Status OnGet(BlockId id) = 0;
};

/// Lifecycle of a stored replica (HDFS §block states, reduced to the two
/// we need): RBW ("replica being written") while a pipeline streams into
/// it, FINALIZED once the writer (or block recovery) seals it.
enum class ReplicaState : uint8_t { kRbw = 0, kFinalized = 1 };

/// Per-replica metadata the store tracks alongside the bytes. The
/// generation stamp is the one the replica last heard from the master;
/// a replica whose genstamp trails the block record's is stale.
struct ReplicaInfo {
  int64_t length = 0;
  uint64_t genstamp = 0;
  ReplicaState state = ReplicaState::kFinalized;

  friend bool operator==(const ReplicaInfo&, const ReplicaInfo&) = default;
};

/// Functional data plane of one storage medium: stores block bytes with a
/// CRC-32C checksum verified on every read. Replicas carry
/// (genstamp, length, state); the streaming write path creates an RBW
/// replica, appends packets, and finalizes it, while block recovery
/// truncates and re-stamps survivors in place. Thread-safe.
class BlockStore {
 public:
  virtual ~BlockStore() = default;

  /// Installs (or, with nullptr, removes) a fault-injection hook. Not
  /// synchronized against concurrent Put/Get — install before handing
  /// the store to other threads.
  void set_fault_hook(std::shared_ptr<StoreFaultHook> hook) {
    fault_hook_ = std::move(hook);
  }

  /// Stores (or replaces) the bytes of a block as a FINALIZED replica
  /// stamped `genstamp` (replica copies arrive whole, already sealed).
  virtual Status Put(BlockId id, std::string data, uint64_t genstamp = 0) = 0;

  /// Opens an empty RBW replica stamped `genstamp`, replacing any
  /// leftover replica of the same block (the master only directs a
  /// pipeline at media without a registered replica, so a collision is
  /// a stale leftover).
  virtual Status Create(BlockId id, uint64_t genstamp) = 0;

  /// Appends one packet to an RBW replica. The write is rejected with
  /// FailedPrecondition when the replica is already FINALIZED, carries a
  /// different genstamp (a fenced zombie pipeline), or `offset` is not
  /// the current replica length (a gap or overlap).
  virtual Status Append(BlockId id, int64_t offset, std::string_view data,
                        uint64_t genstamp) = 0;

  /// Seals an RBW replica; idempotent on an already-FINALIZED replica
  /// with a matching genstamp. FailedPrecondition on genstamp mismatch.
  virtual Status Finalize(BlockId id, uint64_t genstamp) = 0;

  /// Block recovery: truncates the replica to `new_length` and re-stamps
  /// it with `new_genstamp`. Keeps the replica's state: pipeline repair
  /// recovers RBW replicas and keeps streaming; lease recovery calls
  /// Finalize afterwards.
  /// FailedPrecondition when new_genstamp is older than the replica's or
  /// new_length exceeds the stored length.
  virtual Status Recover(BlockId id, int64_t new_length,
                         uint64_t new_genstamp) = 0;

  /// Reads a block's bytes; Corruption if the checksum no longer matches,
  /// NotFound if absent. Serves RBW replicas too — callers that must not
  /// see in-flight bytes (readers) check GetReplicaInfo first.
  virtual Result<std::string> Get(BlockId id) const = 0;

  /// Removes a block; NotFound if absent.
  virtual Status Delete(BlockId id) = 0;

  virtual bool Contains(BlockId id) const = 0;

  /// Metadata of one replica; NotFound if absent.
  virtual Result<ReplicaInfo> GetReplicaInfo(BlockId id) const = 0;

  /// Stored block ids, sorted (the worker's block report).
  virtual std::vector<BlockId> List() const = 0;

  /// Stored replicas with metadata, sorted by id (the worker's
  /// generation-stamped block report).
  virtual std::vector<std::pair<BlockId, ReplicaInfo>> ListReplicas()
      const = 0;

  /// Total payload bytes currently stored.
  virtual int64_t UsedBytes() const = 0;

  /// Flips bits in a stored block without updating its checksum, so the
  /// next Get reports Corruption. For failure-injection tests.
  virtual Status CorruptForTesting(BlockId id) = 0;

 protected:
  std::shared_ptr<StoreFaultHook> fault_hook_;
};

/// Heap-backed store (used for memory tiers and for simulated devices).
class MemoryBlockStore : public BlockStore {
 public:
  MemoryBlockStore() = default;

  Status Put(BlockId id, std::string data, uint64_t genstamp = 0) override;
  Status Create(BlockId id, uint64_t genstamp) override;
  Status Append(BlockId id, int64_t offset, std::string_view data,
                uint64_t genstamp) override;
  Status Finalize(BlockId id, uint64_t genstamp) override;
  Status Recover(BlockId id, int64_t new_length,
                 uint64_t new_genstamp) override;
  Result<std::string> Get(BlockId id) const override;
  Status Delete(BlockId id) override;
  bool Contains(BlockId id) const override;
  Result<ReplicaInfo> GetReplicaInfo(BlockId id) const override;
  std::vector<BlockId> List() const override;
  std::vector<std::pair<BlockId, ReplicaInfo>> ListReplicas() const override;
  int64_t UsedBytes() const override;
  Status CorruptForTesting(BlockId id) override;

 private:
  struct Entry {
    std::string data;
    uint32_t crc = 0;
    uint64_t genstamp = 0;
    ReplicaState state = ReplicaState::kFinalized;
  };

  mutable std::mutex mu_;
  std::map<BlockId, Entry> blocks_;
  int64_t used_bytes_ = 0;
};

/// Filesystem-backed store: one file per block under `dir`, with the
/// checksum, generation stamp, and replica state kept in a 13-byte
/// trailer [crc32c:4][genstamp:8][state:1]. Survives process restarts.
/// Put and Create write whole files; Append writes the packet and a new
/// trailer over the old trailer, Finalize flips the state byte, and only
/// Recover re-reads the payload (to checksum the kept prefix).
class DiskBlockStore : public BlockStore {
 public:
  /// Creates the directory if needed and indexes any existing blocks.
  static Result<std::unique_ptr<DiskBlockStore>> Open(std::string dir);

  Status Put(BlockId id, std::string data, uint64_t genstamp = 0) override;
  Status Create(BlockId id, uint64_t genstamp) override;
  Status Append(BlockId id, int64_t offset, std::string_view data,
                uint64_t genstamp) override;
  Status Finalize(BlockId id, uint64_t genstamp) override;
  Status Recover(BlockId id, int64_t new_length,
                 uint64_t new_genstamp) override;
  Result<std::string> Get(BlockId id) const override;
  Status Delete(BlockId id) override;
  bool Contains(BlockId id) const override;
  Result<ReplicaInfo> GetReplicaInfo(BlockId id) const override;
  std::vector<BlockId> List() const override;
  std::vector<std::pair<BlockId, ReplicaInfo>> ListReplicas() const override;
  int64_t UsedBytes() const override;
  Status CorruptForTesting(BlockId id) override;

 private:
  explicit DiskBlockStore(std::string dir) : dir_(std::move(dir)) {}

  std::string BlockPath(BlockId id) const;

  std::string dir_;
  mutable std::mutex mu_;
  std::map<BlockId, ReplicaInfo> replicas_;
  int64_t used_bytes_ = 0;
};

}  // namespace octo

#endif  // OCTOPUSFS_STORAGE_BLOCK_STORE_H_

#include "storage/block_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "storage/checksum.h"

namespace octo {

namespace {

// On-disk trailer: [crc32c:4][genstamp:8][state:1].
constexpr int64_t kTrailerBytes = 13;

Status StateMismatch(BlockId id) {
  return Status::FailedPrecondition("replica " + std::to_string(id) +
                                    " is not being written");
}

Status GenstampMismatch(BlockId id, uint64_t have, uint64_t want) {
  return Status::FailedPrecondition(
      "replica " + std::to_string(id) + " genstamp " + std::to_string(have) +
      " does not match " + std::to_string(want));
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryBlockStore

Status MemoryBlockStore::Put(BlockId id, std::string data, uint64_t genstamp) {
  bool corrupt_after = false;
  if (fault_hook_ != nullptr) {
    StoreFaultHook::PutOutcome outcome = fault_hook_->OnPut(id);
    OCTO_RETURN_IF_ERROR(outcome.status);
    corrupt_after = outcome.corrupt_after;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t crc = Crc32c(data);
    auto it = blocks_.find(id);
    if (it != blocks_.end()) {
      used_bytes_ -= static_cast<int64_t>(it->second.data.size());
    }
    used_bytes_ += static_cast<int64_t>(data.size());
    blocks_[id] = Entry{std::move(data), crc, genstamp,
                        ReplicaState::kFinalized};
  }
  // Outside the lock: CorruptForTesting re-acquires mu_.
  if (corrupt_after) return CorruptForTesting(id);
  return Status::OK();
}

Status MemoryBlockStore::Create(BlockId id, uint64_t genstamp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it != blocks_.end()) {
    used_bytes_ -= static_cast<int64_t>(it->second.data.size());
  }
  blocks_[id] = Entry{std::string(), Crc32c(std::string_view()), genstamp,
                      ReplicaState::kRbw};
  return Status::OK();
}

Status MemoryBlockStore::Append(BlockId id, int64_t offset,
                                std::string_view data, uint64_t genstamp) {
  bool corrupt_after = false;
  if (fault_hook_ != nullptr) {
    StoreFaultHook::PutOutcome outcome = fault_hook_->OnPut(id);
    OCTO_RETURN_IF_ERROR(outcome.status);
    corrupt_after = outcome.corrupt_after;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blocks_.find(id);
    if (it == blocks_.end()) {
      return Status::NotFound("block " + std::to_string(id));
    }
    Entry& e = it->second;
    if (e.state != ReplicaState::kRbw) return StateMismatch(id);
    if (e.genstamp != genstamp) return GenstampMismatch(id, e.genstamp, genstamp);
    if (offset != static_cast<int64_t>(e.data.size())) {
      return Status::FailedPrecondition(
          "replica " + std::to_string(id) + " append at " +
          std::to_string(offset) + " but replica length is " +
          std::to_string(e.data.size()));
    }
    // Extend the running checksum with the bytes the writer sent rather
    // than recomputing over e.data: recomputation would launder any
    // corruption the stored bytes suffered since the last append.
    e.crc = Crc32cExtend(e.crc, data);
    e.data.append(data);
    used_bytes_ += static_cast<int64_t>(data.size());
  }
  if (corrupt_after) return CorruptForTesting(id);
  return Status::OK();
}

Status MemoryBlockStore::Finalize(BlockId id, uint64_t genstamp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  Entry& e = it->second;
  if (e.genstamp != genstamp) return GenstampMismatch(id, e.genstamp, genstamp);
  e.state = ReplicaState::kFinalized;
  return Status::OK();
}

Status MemoryBlockStore::Recover(BlockId id, int64_t new_length,
                                 uint64_t new_genstamp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  Entry& e = it->second;
  if (new_genstamp < e.genstamp) {
    return GenstampMismatch(id, e.genstamp, new_genstamp);
  }
  if (new_length > static_cast<int64_t>(e.data.size())) {
    return Status::FailedPrecondition(
        "replica " + std::to_string(id) + " cannot grow to " +
        std::to_string(new_length) + " from " + std::to_string(e.data.size()));
  }
  used_bytes_ -= static_cast<int64_t>(e.data.size()) - new_length;
  e.data.resize(static_cast<size_t>(new_length));
  e.crc = Crc32c(e.data);
  e.genstamp = new_genstamp;
  return Status::OK();
}

Result<std::string> MemoryBlockStore::Get(BlockId id) const {
  if (fault_hook_ != nullptr) {
    OCTO_RETURN_IF_ERROR(fault_hook_->OnGet(id));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  if (Crc32c(it->second.data) != it->second.crc) {
    return Status::Corruption("block " + std::to_string(id) +
                              " checksum mismatch");
  }
  return it->second.data;
}

Status MemoryBlockStore::Delete(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  used_bytes_ -= static_cast<int64_t>(it->second.data.size());
  blocks_.erase(it);
  return Status::OK();
}

bool MemoryBlockStore::Contains(BlockId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.count(id) > 0;
}

Result<ReplicaInfo> MemoryBlockStore::GetReplicaInfo(BlockId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  return ReplicaInfo{static_cast<int64_t>(it->second.data.size()),
                     it->second.genstamp, it->second.state};
}

std::vector<BlockId> MemoryBlockStore::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BlockId> out;
  out.reserve(blocks_.size());
  for (const auto& [id, _] : blocks_) out.push_back(id);
  return out;
}

std::vector<std::pair<BlockId, ReplicaInfo>> MemoryBlockStore::ListReplicas()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<BlockId, ReplicaInfo>> out;
  out.reserve(blocks_.size());
  for (const auto& [id, e] : blocks_) {
    out.emplace_back(id, ReplicaInfo{static_cast<int64_t>(e.data.size()),
                                     e.genstamp, e.state});
  }
  return out;
}

int64_t MemoryBlockStore::UsedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_bytes_;
}

Status MemoryBlockStore::CorruptForTesting(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  if (it->second.data.empty()) {
    it->second.data.assign(1, 'x');  // corrupting an empty block grows it
  } else {
    it->second.data[0] ^= 0xFF;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DiskBlockStore

namespace fs = std::filesystem;

namespace {

// Offsets inside the on-disk trailer.
constexpr int64_t kGenstampOffset = 4;
constexpr int64_t kStateOffset = 12;

void AppendTrailer(std::string* out, uint32_t crc, uint64_t genstamp,
                   ReplicaState state) {
  char trailer[kTrailerBytes];
  std::memcpy(trailer, &crc, 4);
  std::memcpy(trailer + kGenstampOffset, &genstamp, 8);
  trailer[kStateOffset] = state == ReplicaState::kRbw ? 0 : 1;
  out->append(trailer, kTrailerBytes);
}

// A block file opened for the span of one store call; positional reads
// and writes, so a packet or a state flip touches only its own bytes.
class BlockFile {
 public:
  BlockFile(std::string path, int flags)
      : path_(std::move(path)),
        fd_(::open(path_.c_str(), flags | O_CLOEXEC, 0644)),
        open_errno_(fd_ < 0 ? errno : 0) {}
  ~BlockFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  Status status() const {
    if (fd_ >= 0) return Status::OK();
    return Status::IoError("cannot open " + path_ + ": " +
                           std::strerror(open_errno_));
  }

  Status ReadAt(int64_t offset, char* out, size_t n) const {
    while (n > 0) {
      ssize_t got = ::pread(fd_, out, n, offset);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return Status::IoError("short read from " + path_);
      out += got;
      n -= static_cast<size_t>(got);
      offset += got;
    }
    return Status::OK();
  }

  Status WriteAt(int64_t offset, std::string_view bytes) {
    while (!bytes.empty()) {
      ssize_t put = ::pwrite(fd_, bytes.data(), bytes.size(), offset);
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) return Status::IoError("short write to " + path_);
      bytes.remove_prefix(static_cast<size_t>(put));
      offset += put;
    }
    return Status::OK();
  }

  Status Truncate(int64_t size) {
    if (::ftruncate(fd_, size) == 0) return Status::OK();
    return Status::IoError("cannot truncate " + path_ + ": " +
                           std::strerror(errno));
  }

 private:
  std::string path_;
  int fd_;
  int open_errno_;
};

}  // namespace

Result<std::unique_ptr<DiskBlockStore>> DiskBlockStore::Open(std::string dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create block dir " + dir + ": " +
                           ec.message());
  }
  auto store = std::unique_ptr<DiskBlockStore>(new DiskBlockStore(dir));
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("blk_", 0) != 0) continue;
    char* end = nullptr;
    BlockId id = std::strtoll(name.c_str() + 4, &end, 10);
    if (end == name.c_str() + 4 || *end != '\0') continue;
    int64_t file_size = static_cast<int64_t>(entry.file_size());
    ReplicaInfo info;
    info.length = file_size >= kTrailerBytes ? file_size - kTrailerBytes : 0;
    // Read genstamp and state back from the trailer; a truncated file
    // (crash mid-write) indexes as an empty stamped-0 RBW replica the
    // master will invalidate on the next block report.
    if (file_size >= kTrailerBytes) {
      BlockFile file(store->BlockPath(id), O_RDONLY);
      char tail[kTrailerBytes - kGenstampOffset];
      if (file.status().ok() &&
          file.ReadAt(info.length + kGenstampOffset, tail, sizeof(tail))
              .ok()) {
        std::memcpy(&info.genstamp, tail, 8);
        info.state = tail[kStateOffset - kGenstampOffset] == 0
                         ? ReplicaState::kRbw
                         : ReplicaState::kFinalized;
      }
    } else {
      info.state = ReplicaState::kRbw;
    }
    store->replicas_[id] = info;
    store->used_bytes_ += info.length;
  }
  if (ec) {
    return Status::IoError("cannot scan block dir " + dir + ": " +
                           ec.message());
  }
  return store;
}

std::string DiskBlockStore::BlockPath(BlockId id) const {
  return dir_ + "/blk_" + std::to_string(id);
}

Status DiskBlockStore::Put(BlockId id, std::string data, uint64_t genstamp) {
  bool corrupt_after = false;
  if (fault_hook_ != nullptr) {
    StoreFaultHook::PutOutcome outcome = fault_hook_->OnPut(id);
    OCTO_RETURN_IF_ERROR(outcome.status);
    corrupt_after = outcome.corrupt_after;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ReplicaInfo info{static_cast<int64_t>(data.size()), genstamp,
                     ReplicaState::kFinalized};
    AppendTrailer(&data, Crc32c(data), genstamp, info.state);
    BlockFile file(BlockPath(id), O_WRONLY | O_CREAT | O_TRUNC);
    OCTO_RETURN_IF_ERROR(file.status());
    OCTO_RETURN_IF_ERROR(file.WriteAt(0, data));
    auto it = replicas_.find(id);
    if (it != replicas_.end()) used_bytes_ -= it->second.length;
    replicas_[id] = info;
    used_bytes_ += info.length;
  }
  // Outside the lock: CorruptForTesting re-acquires mu_.
  if (corrupt_after) return CorruptForTesting(id);
  return Status::OK();
}

Status DiskBlockStore::Create(BlockId id, uint64_t genstamp) {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaInfo info{0, genstamp, ReplicaState::kRbw};
  std::string trailer;
  AppendTrailer(&trailer, Crc32c(std::string_view()), genstamp, info.state);
  BlockFile file(BlockPath(id), O_WRONLY | O_CREAT | O_TRUNC);
  OCTO_RETURN_IF_ERROR(file.status());
  OCTO_RETURN_IF_ERROR(file.WriteAt(0, trailer));
  auto it = replicas_.find(id);
  if (it != replicas_.end()) used_bytes_ -= it->second.length;
  replicas_[id] = info;
  return Status::OK();
}

Status DiskBlockStore::Append(BlockId id, int64_t offset, std::string_view data,
                              uint64_t genstamp) {
  bool corrupt_after = false;
  if (fault_hook_ != nullptr) {
    StoreFaultHook::PutOutcome outcome = fault_hook_->OnPut(id);
    OCTO_RETURN_IF_ERROR(outcome.status);
    corrupt_after = outcome.corrupt_after;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      return Status::NotFound("block " + std::to_string(id));
    }
    ReplicaInfo& info = it->second;
    if (info.state != ReplicaState::kRbw) return StateMismatch(id);
    if (info.genstamp != genstamp) {
      return GenstampMismatch(id, info.genstamp, genstamp);
    }
    if (offset != info.length) {
      return Status::FailedPrecondition(
          "replica " + std::to_string(id) + " append at " +
          std::to_string(offset) + " but replica length is " +
          std::to_string(info.length));
    }
    BlockFile file(BlockPath(id), O_RDWR);
    OCTO_RETURN_IF_ERROR(file.status());
    // Extend the stored trailer CRC with the appended bytes; never
    // recompute over the stored payload (that would launder any
    // corruption the stored bytes suffered since the last append).
    uint32_t crc;
    OCTO_RETURN_IF_ERROR(
        file.ReadAt(info.length, reinterpret_cast<char*>(&crc), 4));
    // The packet and its new trailer go over the old trailer in one write.
    std::string tail;
    tail.reserve(data.size() + kTrailerBytes);
    tail.append(data);
    AppendTrailer(&tail, Crc32cExtend(crc, data), info.genstamp, info.state);
    OCTO_RETURN_IF_ERROR(file.WriteAt(info.length, tail));
    info.length += static_cast<int64_t>(data.size());
    used_bytes_ += static_cast<int64_t>(data.size());
  }
  if (corrupt_after) return CorruptForTesting(id);
  return Status::OK();
}

Status DiskBlockStore::Finalize(BlockId id, uint64_t genstamp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  ReplicaInfo& info = it->second;
  if (info.genstamp != genstamp) {
    return GenstampMismatch(id, info.genstamp, genstamp);
  }
  if (info.state == ReplicaState::kFinalized) return Status::OK();
  // Sealing flips the trailer's state byte; nothing else changes.
  BlockFile file(BlockPath(id), O_WRONLY);
  OCTO_RETURN_IF_ERROR(file.status());
  OCTO_RETURN_IF_ERROR(
      file.WriteAt(info.length + kStateOffset, std::string_view("\1", 1)));
  info.state = ReplicaState::kFinalized;
  return Status::OK();
}

Status DiskBlockStore::Recover(BlockId id, int64_t new_length,
                               uint64_t new_genstamp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  ReplicaInfo& info = it->second;
  if (new_genstamp < info.genstamp) {
    return GenstampMismatch(id, info.genstamp, new_genstamp);
  }
  if (new_length > info.length) {
    return Status::FailedPrecondition(
        "replica " + std::to_string(id) + " cannot grow to " +
        std::to_string(new_length) + " from " + std::to_string(info.length));
  }
  BlockFile file(BlockPath(id), O_RDWR);
  OCTO_RETURN_IF_ERROR(file.status());
  std::string kept(static_cast<size_t>(new_length), '\0');
  OCTO_RETURN_IF_ERROR(file.ReadAt(0, kept.data(), kept.size()));
  // Truncation cannot un-extend a CRC; recomputing over the kept prefix
  // is the one legitimate recompute (HDFS re-checksums on truncate too).
  std::string trailer;
  AppendTrailer(&trailer, Crc32c(kept), new_genstamp, info.state);
  OCTO_RETURN_IF_ERROR(file.Truncate(new_length));
  OCTO_RETURN_IF_ERROR(file.WriteAt(new_length, trailer));
  used_bytes_ -= info.length - new_length;
  info.length = new_length;
  info.genstamp = new_genstamp;
  return Status::OK();
}

Result<std::string> DiskBlockStore::Get(BlockId id) const {
  if (fault_hook_ != nullptr) {
    OCTO_RETURN_IF_ERROR(fault_hook_->OnGet(id));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  BlockFile file(BlockPath(id), O_RDONLY);
  OCTO_RETURN_IF_ERROR(file.status());
  // Payload and stored CRC in one read.
  const size_t length = static_cast<size_t>(it->second.length);
  std::string payload(length + 4, '\0');
  OCTO_RETURN_IF_ERROR(file.ReadAt(0, payload.data(), payload.size()));
  uint32_t stored_crc;
  std::memcpy(&stored_crc, payload.data() + length, 4);
  payload.resize(length);
  if (Crc32c(payload) != stored_crc) {
    return Status::Corruption("block " + std::to_string(id) +
                              " checksum mismatch");
  }
  return payload;
}

Status DiskBlockStore::Delete(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  std::error_code ec;
  fs::remove(BlockPath(id), ec);
  if (ec) {
    return Status::IoError("cannot remove " + BlockPath(id) + ": " +
                           ec.message());
  }
  used_bytes_ -= it->second.length;
  replicas_.erase(it);
  return Status::OK();
}

bool DiskBlockStore::Contains(BlockId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_.count(id) > 0;
}

Result<ReplicaInfo> DiskBlockStore::GetReplicaInfo(BlockId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  return it->second;
}

std::vector<BlockId> DiskBlockStore::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BlockId> out;
  out.reserve(replicas_.size());
  for (const auto& [id, _] : replicas_) out.push_back(id);
  return out;
}

std::vector<std::pair<BlockId, ReplicaInfo>> DiskBlockStore::ListReplicas()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {replicas_.begin(), replicas_.end()};
}

int64_t DiskBlockStore::UsedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_bytes_;
}

Status DiskBlockStore::CorruptForTesting(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  // Flips the file's first byte: a payload byte when the replica has
  // data, otherwise the checksum itself — either way Get mismatches.
  BlockFile file(BlockPath(id), O_RDWR);
  OCTO_RETURN_IF_ERROR(file.status());
  char c = 0;
  OCTO_RETURN_IF_ERROR(file.ReadAt(0, &c, 1));
  c ^= static_cast<char>(0xFF);
  return file.WriteAt(0, std::string_view(&c, 1));
}

}  // namespace octo

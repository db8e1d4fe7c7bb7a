#include "namespacefs/edit_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/strings.h"
#include "storage/checksum.h"

namespace octo {

namespace {

const UserContext kSuperuser{"root", {}};

// A frame's payload may not exceed this; lengths above it are treated as
// corruption rather than allocated.
constexpr uint64_t kMaxRecordBytes = 16u << 20;

int64_t ParseI64(const std::string& s) {
  return std::strtoll(s.c_str(), nullptr, 10);
}

// Appends the decimal form of `v` to `out` without allocating
// intermediates.
template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, ptr - buf);
}

// Frames one record: "<len>\t<crc32c hex8>\t<payload>\n". The length field
// keeps a payload byte that happens to be '\n' from splitting the record;
// the CRC covers the payload only, so the separators are validated
// structurally and the payload by checksum.
void AppendFrame(std::string* out, std::string_view payload) {
  AppendInt(out, payload.size());
  out->push_back('\t');
  char hex[12];
  std::snprintf(hex, sizeof(hex), "%08x", Crc32c(payload.data(),
                                                 payload.size()));
  out->append(hex, 8);
  out->push_back('\t');
  out->append(payload);
  out->push_back('\n');
}

// Parses the frame starting at data[pos]. Returns false on any framing or
// checksum violation — including a frame that runs past `size` (a torn
// tail). On success fills `payload` and sets `end` one past the frame's
// trailing newline.
bool ParseFrame(const char* data, size_t size, size_t pos,
                std::string* payload, size_t* end) {
  size_t p = pos;
  uint64_t len = 0;
  int digits = 0;
  while (p < size && data[p] >= '0' && data[p] <= '9' && digits < 9) {
    len = len * 10 + static_cast<uint64_t>(data[p] - '0');
    ++p;
    ++digits;
  }
  if (digits == 0 || p >= size || data[p] != '\t') return false;
  if (len > kMaxRecordBytes) return false;
  ++p;
  if (size - p < 8 + 1 + len + 1) return false;
  uint32_t crc = 0;
  for (int i = 0; i < 8; ++i) {
    char c = data[p + i];
    uint32_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    crc = (crc << 4) | nibble;
  }
  p += 8;
  if (data[p] != '\t') return false;
  ++p;
  if (data[p + len] != '\n') return false;
  if (Crc32c(data + p, len) != crc) return false;
  payload->assign(data + p, len);
  *end = p + len + 1;
  return true;
}

std::string HeaderPayload(int64_t first_txid) {
  std::string payload = "OCTO_EDITS\t1\t";
  AppendInt(&payload, first_txid);
  return payload;
}

std::string InProgressName(int64_t first) {
  std::string name = "edits_inprogress_";
  AppendInt(&name, first);
  return name;
}

std::string FinalizedName(int64_t first, int64_t last) {
  std::string name = "edits_";
  AppendInt(&name, first);
  name.push_back('-');
  AppendInt(&name, last);
  return name;
}

bool ParseInProgressName(const char* name, int64_t* first) {
  if (std::strncmp(name, "edits_inprogress_", 17) != 0) return false;
  char* end = nullptr;
  long long v = std::strtoll(name + 17, &end, 10);
  if (end == name + 17 || *end != '\0' || v < 0) return false;
  *first = v;
  return true;
}

bool ParseFinalizedName(const char* name, int64_t* first, int64_t* last) {
  if (std::strncmp(name, "edits_", 6) != 0) return false;
  if (std::strncmp(name + 6, "inprogress_", 11) == 0) return false;
  char* end = nullptr;
  long long a = std::strtoll(name + 6, &end, 10);
  if (end == name + 6 || *end != '-' || a < 0) return false;
  const char* second = end + 1;
  long long b = std::strtoll(second, &end, 10);
  if (end == second || *end != '\0' || b < a) return false;
  *first = a;
  *last = b;
  return true;
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("error reading " + path);
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  int rc = ::fsync(fd);
  int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync of directory " + dir + " failed: " +
                           std::strerror(saved));
  }
  return Status::OK();
}

}  // namespace

EditLog::EditLog() { scratch_.reserve(256); }

EditLog::~EditLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<EditLog>> EditLog::OpenSegmented(
    const std::string& dir) {
  auto log = std::make_unique<EditLog>();
  log->segmented_ = true;
  log->dir_ = dir;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create edit log directory " + dir + ": " +
                           std::strerror(errno));
  }

  std::vector<Segment> finalized;
  int64_t inprogress_first = -1;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot scan edit log directory " + dir);
  }
  while (struct dirent* ent = ::readdir(d)) {
    int64_t first = 0;
    int64_t last = 0;
    if (ParseInProgressName(ent->d_name, &first)) {
      if (inprogress_first >= 0) {
        ::closedir(d);
        return Status::Corruption("multiple in-progress edit segments in " +
                                  dir);
      }
      inprogress_first = first;
    } else if (ParseFinalizedName(ent->d_name, &first, &last)) {
      finalized.push_back({first, last, dir + "/" + ent->d_name});
    }
  }
  ::closedir(d);
  std::sort(finalized.begin(), finalized.end(),
            [](const Segment& a, const Segment& b) { return a.first < b.first; });

  int64_t base = 0;
  if (!finalized.empty()) {
    base = finalized.front().first;
  } else if (inprogress_first >= 0) {
    base = inprogress_first;
  }
  int64_t next = base;
  for (const Segment& seg : finalized) {
    if (seg.first != next) {
      return Status::Corruption("gap in edit log segments: expected txid " +
                                std::to_string(next) + ", found " + seg.path);
    }
    OCTO_RETURN_IF_ERROR(log->LoadFinalizedSegment(seg));
    next = seg.last + 1;
  }
  log->segments_ = std::move(finalized);
  log->base_txid_ = base;

  if (inprogress_first >= 0) {
    if (inprogress_first != next) {
      return Status::Corruption(
          "in-progress edit segment starts at txid " +
          std::to_string(inprogress_first) + ", expected " +
          std::to_string(next));
    }
    OCTO_RETURN_IF_ERROR(log->RecoverInProgressSegment(
        inprogress_first, dir + "/" + InProgressName(inprogress_first)));
  } else {
    // Valid after a crash between finalize-rename and the next segment's
    // creation: every record is in finalized segments.
    OCTO_RETURN_IF_ERROR(log->StartSegment(next));
  }
  log->checkpointed_ = base;
  log->durable_records_ = log->entries_.size();
  return log;
}

Status EditLog::LoadFinalizedSegment(const Segment& seg) {
  std::string data;
  OCTO_RETURN_IF_ERROR(ReadFileBytes(seg.path, &data));
  std::string payload;
  size_t end = 0;
  if (!ParseFrame(data.data(), data.size(), 0, &payload, &end) ||
      payload != HeaderPayload(seg.first)) {
    return Status::Corruption("bad header in finalized segment " + seg.path);
  }
  int64_t count = 0;
  size_t pos = end;
  while (pos < data.size()) {
    if (!ParseFrame(data.data(), data.size(), pos, &payload, &end)) {
      return Status::Corruption("corrupt record at offset " +
                                std::to_string(pos) +
                                " in finalized segment " + seg.path);
    }
    entries_.push_back(payload);
    ++count;
    pos = end;
  }
  if (count != seg.last - seg.first + 1) {
    return Status::Corruption(
        "finalized segment " + seg.path + " holds " + std::to_string(count) +
        " records, name promises " + std::to_string(seg.last - seg.first + 1));
  }
  return Status::OK();
}

Status EditLog::RecoverInProgressSegment(int64_t first,
                                         const std::string& path) {
  std::string data;
  OCTO_RETURN_IF_ERROR(ReadFileBytes(path, &data));
  std::string payload;
  size_t end = 0;
  if (!ParseFrame(data.data(), data.size(), 0, &payload, &end)) {
    // Torn before the header frame completed: no record can follow a
    // broken header, so reset the segment (nothing in it was ever acked).
    return StartSegment(first);
  }
  if (payload != HeaderPayload(first)) {
    return Status::Corruption("in-progress segment header mismatch: " + path);
  }
  size_t valid_end = end;
  size_t pos = end;
  while (pos < data.size() &&
         ParseFrame(data.data(), data.size(), pos, &payload, &end)) {
    entries_.push_back(payload);
    valid_end = end;
    pos = end;
  }
  if (valid_end < data.size()) {
    // Torn tail: keep the longest valid prefix, drop the rest.
    if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
      return Status::IoError("cannot truncate torn tail of " + path + ": " +
                             std::strerror(errno));
    }
  }
  seg_first_ = first;
  seg_path_ = path;
  seg_bytes_ = static_cast<int64_t>(valid_end);
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return Status::IoError("cannot reopen edit segment " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status EditLog::StartSegment(int64_t first) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  seg_first_ = first;
  seg_path_ = dir_ + "/" + InProgressName(first);
  fd_ = ::open(seg_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot create edit segment " + seg_path_ + ": " +
                           std::strerror(errno));
  }
  seg_bytes_ = 0;
  frame_buf_.clear();
  AppendFrame(&frame_buf_, HeaderPayload(first));
  return WriteFramesToSegment(frame_buf_.data(), frame_buf_.size());
}

Status EditLog::WriteFramesToSegment(const char* data, size_t n) {
  if (write_fault_hook_) {
    WriteFault fault = write_fault_hook_();
    if (!fault.status.ok()) {
      if (fault.torn_bytes >= 0) {
        // Simulate a crash mid-write: part of the frame reaches the disk
        // and stays there (no cleanup truncate — a crashed process gets
        // none either). Recovery must cut this tail off.
        size_t torn = std::min(static_cast<size_t>(fault.torn_bytes), n);
        size_t written = 0;
        while (written < torn) {
          ssize_t w = ::write(fd_, data + written, torn - written);
          if (w <= 0) break;
          written += static_cast<size_t>(w);
        }
      }
      return fault.status;
    }
  }
  size_t written = 0;
  while (written < n) {
    ssize_t w = ::write(fd_, data + written, n - written);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      Status st = Status::IoError(std::string("edit segment write failed: ") +
                                  std::strerror(errno));
      // Nothing in this batch was acked yet; cut the partial frame so the
      // on-disk tail stays frame-aligned for whoever reads it next.
      (void)::ftruncate(fd_, static_cast<off_t>(seg_bytes_));
      return st;
    }
    written += static_cast<size_t>(w);
  }
  seg_bytes_ += static_cast<int64_t>(n);
  return Status::OK();
}

Status EditLog::SyncSegment() {
  if (!fsync_on_flush_) return Status::OK();
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(std::string("edit segment fdatasync failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void EditLog::AppendScratchLocked() { entries_.push_back(scratch_); }

Status EditLog::Commit() {
  if (!segmented_) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  if (!io_error_.ok()) return io_error_;
  size_t target = entries_.size();
  // Wait while a leader is flushing; its batch may already cover us.
  while (durable_records_ < target && sync_active_) {
    sync_cv_.wait(lock);
  }
  if (!io_error_.ok()) return io_error_;
  if (durable_records_ >= target) return Status::OK();

  // Become the leader: snapshot the undurable suffix, then flush it with
  // mu_ released so concurrent appenders accumulate the next batch
  // instead of stalling behind the write.
  sync_active_ = true;
  batch_.assign(entries_.begin() + static_cast<ptrdiff_t>(durable_records_),
                entries_.end());
  size_t new_durable = entries_.size();
  lock.unlock();
  leader_buf_.clear();
  for (const std::string& line : batch_) AppendFrame(&leader_buf_, line);
  Status st = WriteFramesToSegment(leader_buf_.data(), leader_buf_.size());
  if (st.ok()) st = SyncSegment();
  lock.lock();
  if (st.ok()) {
    durable_records_ = new_durable;
  } else if (io_error_.ok()) {
    io_error_ = st;
  }
  ++sync_count_;
  sync_active_ = false;
  sync_cv_.notify_all();
  return st;
}

Status EditLog::SyncToDisk() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!segmented_) return Status::OK();
  while (sync_active_) sync_cv_.wait(lock);
  if (!io_error_.ok()) return io_error_;

  // Phase 1 — leader protocol as in Commit(): flush the undurable
  // suffix into the segment file. Brief (page-cache writes only).
  if (durable_records_ < entries_.size()) {
    sync_active_ = true;
    batch_.assign(entries_.begin() + static_cast<ptrdiff_t>(durable_records_),
                  entries_.end());
    size_t new_durable = entries_.size();
    lock.unlock();
    leader_buf_.clear();
    for (const std::string& line : batch_) AppendFrame(&leader_buf_, line);
    Status st = WriteFramesToSegment(leader_buf_.data(), leader_buf_.size());
    lock.lock();
    if (st.ok()) {
      durable_records_ = new_durable;
    } else if (io_error_.ok()) {
      io_error_ = st;
    }
    ++sync_count_;
    sync_active_ = false;
    sync_cv_.notify_all();
    if (!st.ok()) return st;
  }

  // Phase 2 — fdatasync on a dup of the fd with every lock released:
  // holding sync_active_ across the sync would stall concurrent
  // Commit() leaders for the entire page-cache drain, recreating the
  // very stall this call exists to avoid. Records appended while the
  // kernel drains may or may not be covered — callers wanting them
  // durable still go through RollSegment, whose in-lock fdatasync is
  // now only the delta. The dup keeps the open file description alive
  // even if a concurrent RollSegment closes fd_.
  int dupfd = ::dup(fd_);
  lock.unlock();
  if (dupfd < 0) {
    return Status::IoError(std::string("dup of edit segment fd failed: ") +
                           std::strerror(errno));
  }
  Status st = Status::OK();
  if (::fdatasync(dupfd) != 0) {
    st = Status::IoError(std::string("edit segment fdatasync failed: ") +
                         std::strerror(errno));
  }
  ::close(dupfd);
  if (!st.ok()) {
    lock.lock();
    if (io_error_.ok()) io_error_ = st;
  }
  return st;
}

Result<int64_t> EditLog::RollSegment() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!segmented_) {
    return Status::InvalidArgument("RollSegment on an unsegmented edit log");
  }
  while (sync_active_) sync_cv_.wait(lock);
  if (!io_error_.ok()) return io_error_;
  // Flush the undurable suffix so the closing segment is complete.
  if (durable_records_ < entries_.size()) {
    frame_buf_.clear();
    for (size_t i = durable_records_; i < entries_.size(); ++i) {
      AppendFrame(&frame_buf_, entries_[i]);
    }
    Status st = WriteFramesToSegment(frame_buf_.data(), frame_buf_.size());
    if (!st.ok()) {
      io_error_ = st;
      return st;
    }
    durable_records_ = entries_.size();
    ++sync_count_;
  }
  int64_t end = base_txid_ + static_cast<int64_t>(entries_.size());
  if (end == seg_first_) return end;  // empty segment: keep writing into it

  // Finalize: a segment is only renamed after its bytes are on disk, so
  // damage inside a finalized segment is never a crash artifact.
  if (::fdatasync(fd_) != 0) {
    io_error_ = Status::IoError(std::string("fdatasync of ") + seg_path_ +
                                " failed: " + std::strerror(errno));
    return io_error_;
  }
  ::close(fd_);
  fd_ = -1;
  std::string final_path = dir_ + "/" + FinalizedName(seg_first_, end - 1);
  if (::rename(seg_path_.c_str(), final_path.c_str()) != 0) {
    io_error_ = Status::IoError("cannot finalize edit segment " + seg_path_ +
                                ": " + std::strerror(errno));
    return io_error_;
  }
  Status st = FsyncDir(dir_);
  if (!st.ok()) {
    io_error_ = st;
    return st;
  }
  segments_.push_back({seg_first_, end - 1, final_path});
  st = StartSegment(end);
  if (!st.ok()) {
    io_error_ = st;
    return st;
  }
  return end;
}

Status EditLog::PurgeSegmentsBefore(int64_t txid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!segmented_) {
    return Status::InvalidArgument(
        "PurgeSegmentsBefore on an unsegmented edit log");
  }
  auto it = segments_.begin();
  while (it != segments_.end() && it->last < txid) {
    ::unlink(it->path.c_str());
    it = segments_.erase(it);
  }
  return Status::OK();
}

void EditLog::SetFsyncOnFlush(bool fsync_on_flush) {
  std::lock_guard<std::mutex> lock(mu_);
  fsync_on_flush_ = fsync_on_flush;
}

void EditLog::SetWriteFaultHook(std::function<WriteFault()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  write_fault_hook_ = std::move(hook);
}

Status EditLog::last_io_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return io_error_;
}

int64_t EditLog::sync_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_count_;
}

int64_t EditLog::durable_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_txid_ + static_cast<int64_t>(durable_records_);
}

int64_t EditLog::ReadEntries(int64_t from,
                             std::vector<std::string>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t start = std::max(from, base_txid_);
  out->clear();
  for (size_t i = static_cast<size_t>(start - base_txid_); i < entries_.size();
       ++i) {
    out->push_back(entries_[i]);
  }
  return start;
}

int64_t EditLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_txid_ + static_cast<int64_t>(entries_.size());
}

int64_t EditLog::base_txid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_txid_;
}

int64_t EditLog::checkpointed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpointed_;
}

void EditLog::MarkCheckpointed(int64_t up_to) {
  std::lock_guard<std::mutex> lock(mu_);
  checkpointed_ = up_to;
}

void EditLog::LogMkdirs(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("MKDIR\t");
  scratch_.append(path);
  AppendScratchLocked();
}

void EditLog::LogCreate(const std::string& path, const ReplicationVector& rv,
                        int64_t block_size, bool overwrite,
                        const std::string& lease_holder) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("CREATE\t");
  scratch_.append(path);
  scratch_.push_back('\t');
  AppendInt(&scratch_, rv.Encode());
  scratch_.push_back('\t');
  AppendInt(&scratch_, block_size);
  scratch_.push_back('\t');
  scratch_.push_back(overwrite ? '1' : '0');
  if (!lease_holder.empty()) {
    scratch_.push_back('\t');
    scratch_.append(lease_holder);
  }
  AppendScratchLocked();
}

void EditLog::LogAddBlock(const std::string& path, const BlockInfo& block) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("ADDBLOCK\t");
  scratch_.append(path);
  scratch_.push_back('\t');
  AppendInt(&scratch_, block.id);
  scratch_.push_back('\t');
  AppendInt(&scratch_, block.length);
  scratch_.push_back('\t');
  AppendInt(&scratch_, block.genstamp);
  AppendScratchLocked();
}

void EditLog::LogComplete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("COMPLETE\t");
  scratch_.append(path);
  AppendScratchLocked();
}

void EditLog::LogAppend(const std::string& path,
                        const std::string& lease_holder) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("APPEND\t");
  scratch_.append(path);
  if (!lease_holder.empty()) {
    scratch_.push_back('\t');
    scratch_.append(lease_holder);
  }
  AppendScratchLocked();
}

void EditLog::LogRename(const std::string& src, const std::string& dst) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("RENAME\t");
  scratch_.append(src);
  scratch_.push_back('\t');
  scratch_.append(dst);
  AppendScratchLocked();
}

void EditLog::LogDelete(const std::string& path, bool recursive) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("DELETE\t");
  scratch_.append(path);
  scratch_.push_back('\t');
  scratch_.push_back(recursive ? '1' : '0');
  AppendScratchLocked();
}

void EditLog::LogSetReplication(const std::string& path,
                                const ReplicationVector& rv) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("SETRV\t");
  scratch_.append(path);
  scratch_.push_back('\t');
  AppendInt(&scratch_, rv.Encode());
  AppendScratchLocked();
}

void EditLog::LogSetQuota(const std::string& path, int slot, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("SETQUOTA\t");
  scratch_.append(path);
  scratch_.push_back('\t');
  AppendInt(&scratch_, slot);
  scratch_.push_back('\t');
  AppendInt(&scratch_, bytes);
  AppendScratchLocked();
}

void EditLog::LogSetOwner(const std::string& path, const std::string& owner,
                          const std::string& group) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("SETOWNER\t");
  scratch_.append(path);
  scratch_.push_back('\t');
  scratch_.append(owner);
  scratch_.push_back('\t');
  scratch_.append(group);
  AppendScratchLocked();
}

void EditLog::LogSetMode(const std::string& path, uint16_t mode) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("SETMODE\t");
  scratch_.append(path);
  scratch_.push_back('\t');
  AppendInt(&scratch_, static_cast<int64_t>(mode));
  AppendScratchLocked();
}

void EditLog::LogEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("EPOCH\t");
  AppendInt(&scratch_, epoch);
  AppendScratchLocked();
}

void EditLog::LogGenstamp(uint64_t genstamp) {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.assign("GENSTAMP\t");
  AppendInt(&scratch_, genstamp);
  AppendScratchLocked();
}

Status EditLog::Replay(const std::vector<std::string>& entries, int64_t from,
                       NamespaceTree* tree, EditReplayInfo* info,
                       ReplayMode mode) {
  for (size_t i = static_cast<size_t>(from); i < entries.size(); ++i) {
    std::vector<std::string> f = Split(entries[i], '\t');
    const std::string& op = f[0];
    Status st;
    if (op == "MKDIR" && f.size() == 2) {
      st = tree->Mkdirs(f[1], kSuperuser);
    } else if (op == "CREATE" && (f.size() == 5 || f.size() == 6)) {
      st = tree->CreateFile(
          f[1],
          ReplicationVector::FromEncoded(
              static_cast<uint64_t>(ParseI64(f[2]))),
          ParseI64(f[3]), f[4] == "1", kSuperuser);
      if (st.ok() && info != nullptr) {
        info->lease_holders[f[1]] = f.size() == 6 ? f[5] : "";
      }
    } else if (op == "ADDBLOCK" && f.size() == 5) {
      BlockInfo block{ParseI64(f[2]), ParseI64(f[3]),
                      static_cast<uint64_t>(ParseI64(f[4]))};
      bool already_present = false;
      if (mode == ReplayMode::kRecovery) {
        // A fuzzy image may already carry this block; AddBlock appends
        // blindly, so the check must come before applying, not after.
        auto blocks = tree->GetBlocks(f[1]);
        if (blocks.ok()) {
          for (const BlockInfo& b : *blocks) {
            if (b.id == block.id) {
              already_present = true;
              break;
            }
          }
        }
      }
      if (already_present) {
        if (info != nullptr) ++info->skipped_records;
      } else {
        st = tree->AddBlock(f[1], block);
      }
    } else if (op == "COMPLETE" && f.size() == 2) {
      st = tree->CompleteFile(f[1]);
      if (st.ok() && info != nullptr) info->lease_holders.erase(f[1]);
    } else if (op == "APPEND" && (f.size() == 2 || f.size() == 3)) {
      st = tree->ReopenForAppend(f[1], kSuperuser);
      if (st.ok() && info != nullptr) {
        info->lease_holders[f[1]] = f.size() == 3 ? f[2] : "";
      }
    } else if (op == "RENAME" && f.size() == 3) {
      st = tree->Rename(f[1], f[2], kSuperuser);
      if (st.ok() && info != nullptr) {
        auto holder = info->lease_holders.find(f[1]);
        if (holder != info->lease_holders.end()) {
          info->lease_holders[f[2]] = std::move(holder->second);
          info->lease_holders.erase(holder);
        }
      }
    } else if (op == "DELETE" && f.size() == 3) {
      auto result = tree->Delete(f[1], f[2] == "1", kSuperuser);
      st = result.ok() ? Status::OK() : result.status();
      if (st.ok() && info != nullptr) info->lease_holders.erase(f[1]);
    } else if (op == "EPOCH" && f.size() == 2) {
      // Fencing metadata, no namespace effect.
      if (info != nullptr) {
        uint64_t epoch = static_cast<uint64_t>(ParseI64(f[1]));
        if (epoch > info->max_epoch) info->max_epoch = epoch;
      }
    } else if (op == "GENSTAMP" && f.size() == 2) {
      // Generation-stamp allocator state, no namespace effect.
      if (info != nullptr) {
        uint64_t genstamp = static_cast<uint64_t>(ParseI64(f[1]));
        if (genstamp > info->max_genstamp) info->max_genstamp = genstamp;
      }
    } else if (op == "SETRV" && f.size() == 3) {
      st = tree->SetReplicationVector(
          f[1],
          ReplicationVector::FromEncoded(
              static_cast<uint64_t>(ParseI64(f[2]))),
          kSuperuser);
    } else if (op == "SETQUOTA" && f.size() == 4) {
      st = tree->SetQuota(f[1], static_cast<int>(ParseI64(f[2])),
                          ParseI64(f[3]));
    } else if (op == "SETOWNER" && f.size() == 4) {
      st = tree->SetOwner(f[1], f[2], f[3], kSuperuser);
    } else if (op == "SETMODE" && f.size() == 3) {
      st = tree->SetMode(f[1], static_cast<uint16_t>(ParseI64(f[2])),
                         kSuperuser);
    } else {
      // Malformed records are errors in both modes: the CRC framing rules
      // out disk damage, so this is a format bug, not a torn tail.
      return Status::Corruption("malformed edit log record " +
                                std::to_string(i) + ": " + entries[i]);
    }
    if (!st.ok()) {
      if (mode == ReplayMode::kStrict) {
        return Status::Corruption("replay of record " + std::to_string(i) +
                                  " (" + entries[i] + ") failed: " +
                                  st.ToString());
      }
      // kRecovery: the fuzzy image already (partially) absorbed this
      // record. A RENAME whose source and destination both exist is the
      // one case where skipping is wrong: the image carries the patched
      // destination subtree AND the stale pre-rename source copy, so the
      // source must go.
      bool fixed = false;
      if (op == "RENAME" && tree->Exists(f[1]) && tree->Exists(f[2])) {
        auto del = tree->Delete(f[1], true, kSuperuser);
        if (del.ok()) {
          fixed = true;
          if (info != nullptr) ++info->rename_fixups;
        }
      }
      if (info != nullptr) {
        if (!fixed) ++info->skipped_records;
        // Lease bookkeeping still applies: the op did happen before the
        // crash, the image just absorbed its namespace effect already.
        if (op == "CREATE" || op == "APPEND") {
          auto fstat = tree->GetFileStatus(f[1], kSuperuser);
          if (fstat.ok() && fstat->under_construction) {
            std::string holder;
            if (op == "CREATE" && f.size() == 6) holder = f[5];
            if (op == "APPEND" && f.size() == 3) holder = f[2];
            info->lease_holders[f[1]] = holder;
          }
        } else if (op == "COMPLETE" || op == "DELETE") {
          info->lease_holders.erase(f[1]);
        } else if (op == "RENAME") {
          auto holder = info->lease_holders.find(f[1]);
          if (holder != info->lease_holders.end()) {
            info->lease_holders[f[2]] = std::move(holder->second);
            info->lease_holders.erase(holder);
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace octo

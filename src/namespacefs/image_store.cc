#include "namespacefs/image_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "storage/checksum.h"

namespace octo {

namespace {

constexpr char kTrailerPrefix[] = "OCTO_IMAGE_CRC\t";
constexpr size_t kTrailerPrefixLen = sizeof(kTrailerPrefix) - 1;
// prefix + 8 hex digits + '\n'
constexpr size_t kTrailerLen = kTrailerPrefixLen + 8 + 1;

bool ParseImageName(const char* name, int64_t* txid) {
  if (std::strncmp(name, "fsimage_", 8) != 0) return false;
  char* end = nullptr;
  long long v = std::strtoll(name + 8, &end, 10);
  if (end == name + 8 || *end != '\0' || v < 0) return false;
  *txid = v;
  return true;
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

std::string ImageStore::ImagePath(int64_t txid) const {
  return dir_ + "/fsimage_" + std::to_string(txid);
}

Result<std::unique_ptr<ImageStore>> ImageStore::Open(const std::string& dir,
                                                     int retain) {
  if (retain < 1) {
    return Status::InvalidArgument("image retention must be >= 1");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create image directory " + dir + ": " +
                           std::strerror(errno));
  }
  auto store = std::unique_ptr<ImageStore>(new ImageStore(dir, retain));
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot scan image directory " + dir);
  }
  std::vector<std::string> stale_tmp;
  while (struct dirent* ent = ::readdir(d)) {
    int64_t txid = 0;
    size_t len = std::strlen(ent->d_name);
    if (len > 4 && std::strcmp(ent->d_name + len - 4, ".tmp") == 0 &&
        std::strncmp(ent->d_name, "fsimage_", 8) == 0) {
      // A checkpoint died before its rename; the tmp file was never an
      // image anyone acked.
      stale_tmp.push_back(dir + "/" + ent->d_name);
    } else if (ParseImageName(ent->d_name, &txid)) {
      store->txids_.push_back(txid);
    }
  }
  ::closedir(d);
  for (const std::string& tmp : stale_tmp) ::unlink(tmp.c_str());
  std::sort(store->txids_.begin(), store->txids_.end());
  return store;
}

Status ImageStore::WriteImage(int64_t txid, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  WriteFault fault;
  if (write_fault_hook_) fault = write_fault_hook_();

  std::string data;
  data.reserve(payload.size() + kTrailerLen);
  data.append(payload);
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "%s%08x\n", kTrailerPrefix,
                Crc32c(payload.data(), payload.size()));
  data.append(trailer, kTrailerLen);
  if (fault.corrupt && !payload.empty()) {
    // Flip a payload bit after the CRC was computed: the write completes
    // "successfully" and the damage only surfaces at read time.
    data[payload.size() / 2] ^= 0x40;
  }

  const std::string path = ImagePath(txid);
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < data.size()) {
    ssize_t w = ::write(fd, data.data() + written, data.size() - written);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      Status st = Status::IoError("short write to " + tmp + ": " +
                                  std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    written += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    Status st = Status::IoError("fsync of " + tmp + " failed: " +
                                std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  ::close(fd);
  if (fault.crash_before_rename) {
    // Simulated crash between tmp-write and rename: the tmp file stays on
    // disk (Open sweeps it later) and no image exists at this txid.
    return Status::IoError("injected crash before image rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IoError("cannot rename " + tmp + ": " +
                                std::strerror(errno));
    ::unlink(tmp.c_str());
    return st;
  }
  OCTO_RETURN_IF_ERROR(FsyncDir(dir_));

  // Rewriting an image at a txid already held replaces that file; it must
  // not count twice and push an older fallback image out of retention.
  auto pos = std::lower_bound(txids_.begin(), txids_.end(), txid);
  if (pos == txids_.end() || *pos != txid) txids_.insert(pos, txid);
  while (txids_.size() > static_cast<size_t>(retain_)) {
    ::unlink(ImagePath(txids_.front()).c_str());
    txids_.erase(txids_.begin());
  }
  return Status::OK();
}

Result<std::string> ImageStore::ReadImage(int64_t txid) const {
  const std::string path = ImagePath(txid);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open image " + path);
  std::string data{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  if (in.bad()) return Status::IoError("error reading image " + path);
  if (data.size() < kTrailerLen || data.back() != '\n') {
    return Status::Corruption("image " + path + " has no CRC trailer");
  }
  size_t payload_size = data.size() - kTrailerLen;
  if (data.compare(payload_size, kTrailerPrefixLen, kTrailerPrefix) != 0) {
    return Status::Corruption("image " + path + " has a malformed trailer");
  }
  uint32_t stored = 0;
  for (size_t i = 0; i < 8; ++i) {
    char c = data[payload_size + kTrailerPrefixLen + i];
    uint32_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      return Status::Corruption("image " + path + " has a malformed trailer");
    }
    stored = (stored << 4) | nibble;
  }
  if (Crc32c(data.data(), payload_size) != stored) {
    return Status::Corruption("image " + path + " failed CRC verification");
  }
  data.resize(payload_size);
  return data;
}

std::vector<int64_t> ImageStore::ListImages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {txids_.rbegin(), txids_.rend()};
}

int64_t ImageStore::OldestRetainedTxid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txids_.empty() ? -1 : txids_.front();
}

void ImageStore::SetWriteFaultHook(std::function<WriteFault()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  write_fault_hook_ = std::move(hook);
}

}  // namespace octo

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>

#include "storage/media_type.h"

namespace octo::e2e {

namespace {

constexpr int kRacks = 3;  // PaperClusterSpec: 3 racks x 3 workers
// Memory medium per worker. The tiering engine may fill 25% of the tier
// (36 MiB), which holds mixed_tiered's Zipf hot set but not its dataset.
constexpr int64_t kMemoryBytesPerWorker = int64_t{16} << 20;
// Zipf exponent of mixed_tiered's file popularity.
constexpr double kZipfExponent = 1.0;

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t ContentKey(uint64_t seed, const std::string& path) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (unsigned char c : path) h = (h ^ c) * 0x100000001b3ull;
  return Mix64(h ^ Mix64(seed));
}

std::string Join(const char* prefix, int64_t a, const char* mid, int64_t b) {
  return prefix + std::to_string(a) + mid + std::to_string(b);
}

bool IsMutation(OpKind kind) {
  switch (kind) {
    case OpKind::kMkdirs:
    case OpKind::kWrite:
    case OpKind::kCreate:
    case OpKind::kRename:
    case OpKind::kDelete:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDfsioWrite: return "dfsio_write";
    case Workload::kDfsioRead: return "dfsio_read";
    case Workload::kSliveMix: return "slive_mix";
    case Workload::kMixedTiered: return "mixed_tiered";
  }
  return "?";
}

Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kDfsioWrite, Workload::kDfsioRead,
                     Workload::kSliveMix, Workload::kMixedTiered}) {
    if (name == WorkloadName(w)) return w;
  }
  return Status::InvalidArgument("unknown workload " + name);
}

Params BenchParams(Workload workload, uint64_t seed) {
  Params p;
  p.workload = workload;
  p.seed = seed;
  switch (workload) {
    case Workload::kDfsioWrite:
      // Two files per writer before the clock starts: a bare cluster start
      // costs ~2 ms, all of it journal fsyncs whose latency swings tenfold
      // on a shared disk, which would leave setup_s without a stable median.
      p.preload_files = 6;
      break;
    case Workload::kDfsioRead:
      p.preload_files = 24;
      break;
    case Workload::kSliveMix:
      p.tree_dirs = 64;
      p.tree_files_per_dir = 64;
      p.pool_files = 64;
      break;
    case Workload::kMixedTiered:
      // 128 MiB of data against a 36 MiB engine budget (25% of 9 x 16 MiB
      // memory media): the Zipf hot set fits the memory tier, the dataset
      // does not.
      p.preload_files = 32;
      break;
  }
  return p;
}

// ---------------------------------------------------------------------------
// FsClient

Status FsClient::Mkdirs(const std::string& path) { return fs_.Mkdirs(path); }

Status FsClient::WriteFile(const std::string& path, std::string_view data,
                           int64_t block_size) {
  CreateOptions options;
  options.rep_vector = ReplicationVector::OfTotal(3);
  options.block_size = block_size;
  return fs_.WriteFile(path, data, options);
}

Status FsClient::ReadFile(const std::string& path, std::string* out) {
  Result<std::string> data = fs_.ReadFile(path);
  if (!data.ok()) return data.status();
  *out = std::move(data).value();
  return Status::OK();
}

Status FsClient::Stat(const std::string& path) {
  return fs_.GetFileStatus(path).status();
}

Status FsClient::Open(const std::string& path) {
  return fs_.Open(path).status();
}

Status FsClient::List(const std::string& path) {
  return fs_.ListDirectory(path).status();
}

Status FsClient::Rename(const std::string& src, const std::string& dst) {
  return fs_.Rename(src, dst);
}

Status FsClient::Delete(const std::string& path) {
  return fs_.Delete(path, /*recursive=*/false);
}

// ---------------------------------------------------------------------------
// Cluster, locations, content

Result<std::unique_ptr<Cluster>> MakeCluster(const std::string& dir,
                                             const Params& params) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  ClusterSpec spec = PaperClusterSpec();
  for (MediumSpec& medium : spec.media_per_worker) {
    if (medium.type == MediaType::kMemory) {
      medium.capacity_bytes = kMemoryBytesPerWorker;
    }
  }
  spec.with_simulation = false;
  spec.block_dir_root = dir + "/blocks";
  spec.master.metadata_dir = dir + "/meta";
  spec.master.seed = params.seed;
  OCTO_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                        Cluster::Create(spec));
  cluster->master()->edit_log()->SetFsyncOnFlush(true);
  return cluster;
}

NetworkLocation ClientLocation(const Params& params, int client, bool setup) {
  const bool reader =
      !setup && (params.workload == Workload::kDfsioRead ||
                 (params.workload == Workload::kMixedTiered && client != 0));
  return NetworkLocation("rack" + std::to_string(client % kRacks),
                         reader ? "node1" : "node0");
}

void FillContent(uint64_t seed, const std::string& path, int64_t bytes,
                 std::string* out) {
  out->resize(static_cast<size_t>(bytes));
  const uint64_t key = ContentKey(seed, path);
  char* p = out->data();
  int64_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const uint64_t word = Mix64(key + static_cast<uint64_t>(i));
    std::memcpy(p + i, &word, 8);
  }
  if (i < bytes) {
    const uint64_t word = Mix64(key + static_cast<uint64_t>(i));
    std::memcpy(p + i, &word, static_cast<size_t>(bytes - i));
  }
}

bool ContentMatches(uint64_t seed, const std::string& path,
                    std::string_view data) {
  const uint64_t key = ContentKey(seed, path);
  const int64_t bytes = static_cast<int64_t>(data.size());
  int64_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const uint64_t word = Mix64(key + static_cast<uint64_t>(i));
    if (std::memcmp(data.data() + i, &word, 8) != 0) return false;
  }
  if (i < bytes) {
    const uint64_t word = Mix64(key + static_cast<uint64_t>(i));
    return std::memcmp(data.data() + i, &word,
                       static_cast<size_t>(bytes - i)) == 0;
  }
  return true;
}

Status ExecuteOp(Client* client, const Op& op, const Params& params,
                 const std::string& content, std::string* read_out) {
  switch (op.kind) {
    case OpKind::kMkdirs: return client->Mkdirs(op.path);
    case OpKind::kWrite:
      return client->WriteFile(op.path, content, params.block_bytes);
    case OpKind::kCreate:
      return client->WriteFile(op.path, std::string_view(),
                               params.block_bytes);
    case OpKind::kRead: return client->ReadFile(op.path, read_out);
    case OpKind::kStat: return client->Stat(op.path);
    case OpKind::kOpen: return client->Open(op.path);
    case OpKind::kList: return client->List(op.path);
    case OpKind::kRename: return client->Rename(op.path, op.dst);
    case OpKind::kDelete: return client->Delete(op.path);
  }
  return Status::Internal("unknown op kind");
}

void Tally::Apply(const Op& op, bool ok) {
  if (!IsMutation(op.kind)) return;
  if (!ok) {
    uncertain.insert(op.path);
    if (!op.dst.empty()) uncertain.insert(op.dst);
    return;
  }
  switch (op.kind) {
    case OpKind::kWrite: files[op.path] = op.bytes; break;
    case OpKind::kCreate: files[op.path] = 0; break;
    case OpKind::kRename: {
      auto node = files.extract(op.path);
      if (!node.empty()) {
        node.key() = op.dst;
        files.insert(std::move(node));
      }
      break;
    }
    case OpKind::kDelete: files.erase(op.path); break;
    default: break;
  }
}

std::map<std::string, int64_t> ListNamespace(const Master& master) {
  std::map<std::string, int64_t> out;
  master.namespace_tree().Visit([&out](const NamespaceTree::VisitEntry& e) {
    out[e.status.path] = e.status.is_dir ? -1 : e.status.length;
  });
  return out;
}

// ---------------------------------------------------------------------------
// OpStream

OpStream::OpStream(const Params& params, int client)
    : params_(params),
      client_(client),
      rng_(Mix64(params.seed * 0x100000001b3ull +
                 static_cast<uint64_t>(client))) {
  for (int k = 0; k < params_.pool_files; ++k) {
    pool_.push_back(Join("/slive/c", client_, "/p", k));
  }
  if (params_.workload == Workload::kMixedTiered) {
    double total = 0;
    for (int r = 0; r < params_.preload_files; ++r) {
      total += 1.0 / std::pow(r + 1, kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    // The hot set depends on the seed only, so every reader shares it.
    rank_to_file_.resize(static_cast<size_t>(params_.preload_files));
    std::iota(rank_to_file_.begin(), rank_to_file_.end(), 0);
    Random shuffle(Mix64(params_.seed));
    shuffle.Shuffle(&rank_to_file_);
  }
}

std::string OpStream::PreloadPath(int index) const {
  const char* root =
      params_.workload == Workload::kMixedTiered ? "/data/c" : "/dfsio/c";
  return Join(root, index % kClients, "/f", index);
}

std::string OpStream::TreeFile(uint64_t draw) const {
  const uint64_t dir = draw % static_cast<uint64_t>(params_.tree_dirs);
  const uint64_t file = (draw / static_cast<uint64_t>(params_.tree_dirs)) %
                        static_cast<uint64_t>(params_.tree_files_per_dir);
  return Join("/slive/tree/d", static_cast<int64_t>(dir), "/f",
              static_cast<int64_t>(file));
}

std::vector<Op> OpStream::SetupOps() const {
  std::vector<Op> ops;
  auto add = [&ops](OpKind kind, std::string path, int64_t bytes = 0) {
    Op op;
    op.kind = kind;
    op.path = std::move(path);
    op.bytes = bytes;
    ops.push_back(std::move(op));
  };
  switch (params_.workload) {
    case Workload::kDfsioWrite:
    case Workload::kDfsioRead:
    case Workload::kMixedTiered:
      if (params_.workload == Workload::kMixedTiered && client_ == 0) {
        add(OpKind::kMkdirs, "/ingest");
      }
      for (int i = client_; i < params_.preload_files; i += kClients) {
        add(OpKind::kWrite, PreloadPath(i), params_.file_bytes);
      }
      break;
    case Workload::kSliveMix:
      for (int d = client_; d < params_.tree_dirs; d += kClients) {
        add(OpKind::kMkdirs, "/slive/tree/d" + std::to_string(d));
        for (int f = 0; f < params_.tree_files_per_dir; ++f) {
          add(OpKind::kCreate, Join("/slive/tree/d", d, "/f", f));
        }
      }
      add(OpKind::kMkdirs, "/slive/c" + std::to_string(client_));
      for (const std::string& path : pool_) add(OpKind::kCreate, path);
      break;
  }
  return ops;
}

Op OpStream::Next() {
  Op op;
  switch (params_.workload) {
    case Workload::kDfsioWrite:
      op.kind = OpKind::kWrite;
      op.path = Join("/dfsio/c", client_, "/w", counter_++);
      op.bytes = params_.file_bytes;
      return op;
    case Workload::kDfsioRead:
      op.kind = OpKind::kRead;
      op.path = PreloadPath(static_cast<int>(
          rng_.Uniform(static_cast<uint64_t>(params_.preload_files))));
      return op;
    case Workload::kMixedTiered:
      if (client_ == 0) {
        op.kind = OpKind::kWrite;
        op.path = "/ingest/f" + std::to_string(counter_++);
        op.bytes = params_.file_bytes;
      } else {
        const double u = rng_.NextDouble();
        const size_t rank = static_cast<size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin());
        op.kind = OpKind::kRead;
        op.path = PreloadPath(
            rank_to_file_[std::min(rank, rank_to_file_.size() - 1)]);
      }
      return op;
    case Workload::kSliveMix:
      break;
  }
  // S-Live mix of paper Table 3: stat 40%, open 20%, ls 5%, create 15%,
  // rename 10%, delete 10%. Reads hit the shared read-only tree; every
  // mutation stays inside this client's directory, so none can fail.
  const uint64_t roll = rng_.Uniform(100);
  if (roll < 40) {
    op.kind = OpKind::kStat;
    op.path = TreeFile(rng_.Uniform(UINT64_MAX));
  } else if (roll < 60) {
    op.kind = OpKind::kOpen;
    op.path = TreeFile(rng_.Uniform(UINT64_MAX));
  } else if (roll < 65) {
    op.kind = OpKind::kList;
    op.path = "/slive/tree/d" + std::to_string(rng_.Uniform(
                                    static_cast<uint64_t>(params_.tree_dirs)));
  } else if (roll >= 80 && !pool_.empty()) {
    const size_t i = static_cast<size_t>(rng_.Uniform(pool_.size()));
    op.path = pool_[i];
    if (roll < 90) {
      op.kind = OpKind::kRename;
      op.dst = Join("/slive/c", client_, "/r", counter_++);
      pool_[i] = op.dst;
    } else {
      op.kind = OpKind::kDelete;
      pool_[i] = pool_.back();
      pool_.pop_back();
    }
  } else {
    op.kind = OpKind::kCreate;
    op.path = Join("/slive/c", client_, "/n", counter_++);
    pool_.push_back(op.path);
  }
  return op;
}

}  // namespace octo::e2e

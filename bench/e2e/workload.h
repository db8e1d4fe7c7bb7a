#ifndef OCTOPUSFS_BENCH_E2E_WORKLOAD_H_
#define OCTOPUSFS_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "common/status.h"

namespace octo::e2e {

enum class Workload { kDfsioWrite, kDfsioRead, kSliveMix, kMixedTiered };

const char* WorkloadName(Workload workload);
Result<Workload> ParseWorkload(const std::string& name);

/// Closed-loop client threads; with the control-loop thread they fill the
/// 4 cores of the reference host.
inline constexpr int kClients = 3;

/// Sizes of one workload instance. BenchParams() gives the measured
/// sizes; the selftest shrinks them.
struct Params {
  Workload workload = Workload::kDfsioWrite;
  uint64_t seed = 1;
  int64_t file_bytes = int64_t{4} << 20;
  int64_t block_bytes = int64_t{1} << 20;
  /// Files written during setup (all but slive_mix).
  int preload_files = 0;
  /// slive_mix: the read-only tree, and the files each client starts
  /// with in its own directory for renames and deletes to act on.
  int tree_dirs = 0;
  int tree_files_per_dir = 0;
  int pool_files = 0;
};

Params BenchParams(Workload workload, uint64_t seed);

enum class OpKind : uint8_t {
  kMkdirs,
  kWrite,   // create, write `bytes` of generated content, close
  kCreate,  // create + close of an empty file
  kRead,    // open + read the whole file, verified
  kStat,
  kOpen,    // open without reading (block locations only)
  kList,
  kRename,
  kDelete,
};

struct Op {
  OpKind kind = OpKind::kStat;
  std::string path;
  std::string dst;  // kRename
  int64_t bytes = 0;  // kWrite
};

/// The client API the workloads drive. FsClient is the real FileSystem;
/// TracedClient (traced_client.h) makes the same calls with spans.
class Client {
 public:
  virtual ~Client() = default;
  virtual Status Mkdirs(const std::string& path) = 0;
  virtual Status WriteFile(const std::string& path, std::string_view data,
                           int64_t block_size) = 0;
  virtual Status ReadFile(const std::string& path, std::string* out) = 0;
  virtual Status Stat(const std::string& path) = 0;
  virtual Status Open(const std::string& path) = 0;
  virtual Status List(const std::string& path) = 0;
  virtual Status Rename(const std::string& src, const std::string& dst) = 0;
  virtual Status Delete(const std::string& path) = 0;
};

class FsClient : public Client {
 public:
  FsClient(Cluster* cluster, NetworkLocation location)
      : fs_(cluster, std::move(location)) {}

  Status Mkdirs(const std::string& path) override;
  Status WriteFile(const std::string& path, std::string_view data,
                   int64_t block_size) override;
  Status ReadFile(const std::string& path, std::string* out) override;
  Status Stat(const std::string& path) override;
  Status Open(const std::string& path) override;
  Status List(const std::string& path) override;
  Status Rename(const std::string& src, const std::string& dst) override;
  Status Delete(const std::string& path) override;

 private:
  FileSystem fs_;
};

/// The paper's 9-worker cluster (PaperClusterSpec) persisted under `dir`:
/// disk-backed block stores in dir/blocks, the segmented journal and
/// checkpoint images in dir/meta, wall clock, journal fsync on every
/// flush. Creates `dir` (OpenSegmented does not create parents).
Result<std::unique_ptr<Cluster>> MakeCluster(const std::string& dir,
                                             const Params& params);

/// Where client `client` runs: a worker node, so writers get a local first
/// replica. Readers of dfsio_read and mixed_tiered sit on node1 of their
/// rack, which wrote none of the preloaded files.
NetworkLocation ClientLocation(const Params& params, int client, bool setup);

/// File contents are a pure function of (seed, path): every read is
/// checked against them byte for byte without keeping copies.
void FillContent(uint64_t seed, const std::string& path, int64_t bytes,
                 std::string* out);
bool ContentMatches(uint64_t seed, const std::string& path,
                    std::string_view data);

/// Runs one operation. For kWrite `content` holds the bytes to write; for
/// kRead the file's bytes land in `read_out` (the caller verifies them).
Status ExecuteOp(Client* client, const Op& op, const Params& params,
                 const std::string& content, std::string* read_out);

/// What a client has seen acknowledged: file path -> length. The
/// recovered namespace must equal the union of every client's tally.
struct Tally {
  std::map<std::string, int64_t> files;
  /// Paths a failed mutation may or may not have changed; excluded from
  /// the comparison.
  std::set<std::string> uncertain;

  void Apply(const Op& op, bool ok);
};

/// Every path in `master`'s namespace -> file length (-1 for
/// directories). Walks the tree unlocked: call only while nothing else
/// touches the master.
std::map<std::string, int64_t> ListNamespace(const Master& master);

/// One client's deterministic operation sequence, derived from the seed.
class OpStream {
 public:
  OpStream(const Params& params, int client);

  /// The client's share of workload setup (directories, preloaded files,
  /// the slive tree and pool).
  std::vector<Op> SetupOps() const;

  Op Next();

 private:
  std::string PreloadPath(int index) const;
  std::string TreeFile(uint64_t draw) const;

  Params params_;
  int client_;
  Random rng_;
  int64_t counter_ = 0;
  /// slive_mix: this client's renamable/deletable files.
  std::vector<std::string> pool_;
  /// mixed_tiered: Zipf CDF over popularity ranks, and rank -> file.
  std::vector<double> zipf_cdf_;
  std::vector<int> rank_to_file_;
};

}  // namespace octo::e2e

#endif  // OCTOPUSFS_BENCH_E2E_WORKLOAD_H_

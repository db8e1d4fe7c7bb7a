#ifndef OCTOPUSFS_BENCH_E2E_TRACED_CLIENT_H_
#define OCTOPUSFS_BENCH_E2E_TRACED_CLIENT_H_

#include <string>
#include <string_view>

#include "cluster/cluster.h"
#include "trace.h"
#include "workload.h"

namespace octo::e2e {

/// Replays the FileSystem happy path through the same public Master and
/// Worker calls FileWriter and FileReader make, one span per call, so the
/// traced pass can split an operation's time by layer from outside the
/// program. Unlike FileSystem it has no recovery or failover: any error
/// is returned as is. traced_client_test keeps the two in step.
///
/// Temporary: once the program records its own spans, this goes.
class TracedClient : public Client {
 public:
  TracedClient(Cluster* cluster, NetworkLocation location);

  Status Mkdirs(const std::string& path) override;
  Status WriteFile(const std::string& path, std::string_view data,
                   int64_t block_size) override;
  Status ReadFile(const std::string& path, std::string* out) override;
  Status Stat(const std::string& path) override;
  Status Open(const std::string& path) override;
  Status List(const std::string& path) override;
  Status Rename(const std::string& src, const std::string& dst) override;
  Status Delete(const std::string& path) override;

  /// Blocks this client read, and how many came from a memory replica.
  int64_t blocks_read() const { return blocks_read_; }
  int64_t memory_blocks_read() const { return memory_blocks_read_; }

 private:
  Result<std::vector<LocatedBlock>> Locate(const std::string& path);

  Cluster* cluster_;
  NetworkLocation location_;
  UserContext ctx_;
  std::string lease_holder_;
  int64_t blocks_read_ = 0;
  int64_t memory_blocks_read_ = 0;
};

/// Replaces the Master's placement and retrieval policies with the same
/// defaults (MakeMoopPolicy, MakeOctopusRetrievalPolicy) wrapped in spans
/// that nest under master.add_block and master.get_block_locations. The
/// wrappers forward the Master's rng untouched, so decisions are
/// unchanged.
void InstallTimedPolicies(Master* master);

/// The root span ("op.*") an operation of this kind is recorded under.
SpanName RootSpan(OpKind kind);

}  // namespace octo::e2e

#endif  // OCTOPUSFS_BENCH_E2E_TRACED_CLIENT_H_

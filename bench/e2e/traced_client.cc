#include "traced_client.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/placement.h"
#include "core/retrieval.h"
#include "trace.h"

namespace octo::e2e {

namespace {

// FileWriter's pipeline packet (HDFS dfs.client-write-packet-size).
constexpr int64_t kPacketBytes = 64 * 1024;

class TimedPlacement : public PlacementPolicy {
 public:
  explicit TimedPlacement(std::unique_ptr<PlacementPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }

  Result<std::vector<MediumId>> PlaceReplicas(const ClusterState& state,
                                              const PlacementRequest& request,
                                              Random* rng) override {
    ScopedSpan span(SpanName::kPlacementPlace);
    return inner_->PlaceReplicas(state, request, rng);
  }

 private:
  std::unique_ptr<PlacementPolicy> inner_;
};

class TimedRetrieval : public RetrievalPolicy {
 public:
  explicit TimedRetrieval(std::unique_ptr<RetrievalPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }

  std::vector<MediumId> OrderReplicas(const ClusterState& state,
                                      const NetworkLocation& client,
                                      const std::vector<MediumId>& replicas,
                                      Random* rng) const override {
    ScopedSpan span(SpanName::kRetrievalOrder);
    return inner_->OrderReplicas(state, client, replicas, rng);
  }

 private:
  std::unique_ptr<RetrievalPolicy> inner_;
};

std::string NextLeaseHolder() {
  static std::atomic<int64_t> counter{0};
  return "traced-client-" + std::to_string(counter.fetch_add(1));
}

}  // namespace

void InstallTimedPolicies(Master* master) {
  master->SetPlacementPolicy(
      std::make_unique<TimedPlacement>(MakeMoopPolicy()));
  master->SetRetrievalPolicy(
      std::make_unique<TimedRetrieval>(MakeOctopusRetrievalPolicy()));
}

SpanName RootSpan(OpKind kind) {
  switch (kind) {
    case OpKind::kMkdirs: return SpanName::kOpMkdirs;
    case OpKind::kWrite: return SpanName::kOpWrite;
    case OpKind::kCreate: return SpanName::kOpCreate;
    case OpKind::kRead: return SpanName::kOpRead;
    case OpKind::kStat: return SpanName::kOpStat;
    case OpKind::kOpen: return SpanName::kOpOpen;
    case OpKind::kList: return SpanName::kOpList;
    case OpKind::kRename: return SpanName::kOpRename;
    case OpKind::kDelete: return SpanName::kOpDelete;
  }
  return SpanName::kOpStat;
}

TracedClient::TracedClient(Cluster* cluster, NetworkLocation location)
    : cluster_(cluster),
      location_(std::move(location)),
      lease_holder_(NextLeaseHolder()) {}

Status TracedClient::Mkdirs(const std::string& path) {
  ScopedSpan span(SpanName::kMasterMkdirs);
  return cluster_->master()->Mkdirs(path, ctx_);
}

Status TracedClient::WriteFile(const std::string& path, std::string_view data,
                               int64_t block_size) {
  Master* master = cluster_->master();
  {
    ScopedSpan span(SpanName::kMasterCreate);
    OCTO_RETURN_IF_ERROR(master->Create(path, ReplicationVector::OfTotal(3),
                                        block_size, /*overwrite=*/false, ctx_,
                                        lease_holder_));
  }
  const int64_t size = static_cast<int64_t>(data.size());
  for (int64_t block_start = 0; block_start < size; block_start += block_size) {
    const int64_t length = std::min(block_size, size - block_start);
    LocatedBlock located;
    {
      ScopedSpan span(SpanName::kMasterAddBlock);
      OCTO_ASSIGN_OR_RETURN(located,
                            master->AddBlock(path, lease_holder_, location_));
    }
    const BlockId id = located.block.id;
    const uint64_t genstamp = located.block.genstamp;
    for (const PlacedReplica& replica : located.locations) {
      ScopedSpan span(SpanName::kWorkerOpenBlock);
      OCTO_RETURN_IF_ERROR(cluster_->worker(replica.worker)
                               ->OpenBlock(replica.medium, id, genstamp));
    }
    for (int64_t offset = 0; offset < length; offset += kPacketBytes) {
      const std::string_view packet = data.substr(
          static_cast<size_t>(block_start + offset),
          static_cast<size_t>(std::min(kPacketBytes, length - offset)));
      for (const PlacedReplica& replica : located.locations) {
        ScopedSpan span(SpanName::kWorkerWritePacket);
        OCTO_RETURN_IF_ERROR(
            cluster_->worker(replica.worker)
                ->WritePacket(replica.medium, id, offset, packet, genstamp));
      }
    }
    std::vector<MediumId> succeeded;
    for (const PlacedReplica& replica : located.locations) {
      ScopedSpan span(SpanName::kWorkerFinalizeBlock);
      OCTO_RETURN_IF_ERROR(cluster_->worker(replica.worker)
                               ->FinalizeBlock(replica.medium, id, genstamp));
      succeeded.push_back(replica.medium);
    }
    ScopedSpan span(SpanName::kMasterCommitBlock);
    OCTO_RETURN_IF_ERROR(master->CommitBlock(path, lease_holder_, id, length,
                                             succeeded, genstamp));
  }
  ScopedSpan span(SpanName::kMasterCompleteFile);
  return master->CompleteFile(path, lease_holder_);
}

Result<std::vector<LocatedBlock>> TracedClient::Locate(
    const std::string& path) {
  Master* master = cluster_->master();
  {
    ScopedSpan span(SpanName::kMasterGetFileStatus);
    OCTO_ASSIGN_OR_RETURN(FileStatus status,
                          master->GetFileStatus(path, ctx_));
    if (status.is_dir) {
      return Status::InvalidArgument(path + " is a directory");
    }
  }
  ScopedSpan span(SpanName::kMasterGetBlockLocations);
  return master->GetBlockLocations(path, location_);
}

Status TracedClient::ReadFile(const std::string& path, std::string* out) {
  OCTO_ASSIGN_OR_RETURN(std::vector<LocatedBlock> blocks, Locate(path));
  // Assembled in a fresh string like FileReader::Pread's result, so the
  // allocation a FileSystem read pays is in the traced time too.
  std::string file;
  for (const LocatedBlock& located : blocks) {
    if (located.locations.empty()) {
      return Status::IoError("no replica of block " +
                             std::to_string(located.block.id));
    }
    // FileReader's happy path: the retrieval policy's first choice.
    const PlacedReplica& replica = located.locations.front();
    Worker* worker = cluster_->worker(replica.worker);
    {
      ScopedSpan span(SpanName::kWorkerGetReplicaInfo);
      OCTO_ASSIGN_OR_RETURN(ReplicaInfo info,
                            worker->GetReplicaInfo(replica.medium,
                                                   located.block.id));
      if (info.genstamp != located.block.genstamp ||
          info.state != ReplicaState::kFinalized) {
        return Status::FailedPrecondition(
            "replica of block " + std::to_string(located.block.id) +
            " is stale or unfinalized");
      }
    }
    std::string data;
    {
      ScopedSpan span(SpanName::kWorkerReadBlock);
      OCTO_ASSIGN_OR_RETURN(
          data, worker->ReadBlock(replica.medium, located.block.id));
    }
    if (static_cast<int64_t>(data.size()) != located.block.length) {
      return Status::Corruption("replica of block " +
                                std::to_string(located.block.id) +
                                " has the wrong length");
    }
    {
      ScopedSpan span(SpanName::kWorkerNoteBlockRead);
      worker->NoteBlockRead(located.block.id, located.block.length);
    }
    ++blocks_read_;
    if (replica.tier == kMemoryTier) ++memory_blocks_read_;
    file.append(data);
  }
  *out = std::move(file);
  return Status::OK();
}

Status TracedClient::Stat(const std::string& path) {
  ScopedSpan span(SpanName::kMasterGetFileStatus);
  return cluster_->master()->GetFileStatus(path, ctx_).status();
}

Status TracedClient::Open(const std::string& path) {
  return Locate(path).status();
}

Status TracedClient::List(const std::string& path) {
  ScopedSpan span(SpanName::kMasterListDirectory);
  return cluster_->master()->ListDirectory(path, ctx_).status();
}

Status TracedClient::Rename(const std::string& src, const std::string& dst) {
  ScopedSpan span(SpanName::kMasterRename);
  return cluster_->master()->Rename(src, dst, ctx_);
}

Status TracedClient::Delete(const std::string& path) {
  ScopedSpan span(SpanName::kMasterDelete);
  return cluster_->master()->Delete(path, /*recursive=*/false, ctx_).status();
}

}  // namespace octo::e2e

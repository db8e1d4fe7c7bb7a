#include "cluster/master.h"

#include <algorithm>
#include <array>
#include <set>

#include "common/logging.h"
#include "common/units.h"
#include "fault/fault.h"
#include "namespacefs/fsimage.h"
#include "namespacefs/path.h"

namespace octo {

namespace {
const UserContext kSuperuser{"root", {}};
}  // namespace

Master::Master(MasterOptions options, Clock* clock)
    : options_(std::move(options)),
      clock_(clock),
      rng_(options_.seed),
      tree_(std::make_unique<NamespaceTree>(clock)),
      leases_(clock, options_.lease_duration_micros),
      repair_(options_.repair, options_.seed) {
  tree_->EnablePermissions(options_.enable_permissions);
  // The in-flight copy deadline is the (jittered) replication timeout.
  RepairThrottleOptions throttle = options_.repair;
  throttle.copy_deadline_micros = options_.replication_timeout_micros;
  repair_.set_options(throttle);
  if (!options_.metadata_dir.empty()) {
    auto opened = EditLog::OpenSegmented(options_.metadata_dir);
    OCTO_CHECK(opened.ok()) << opened.status().ToString();
    log_ = std::move(opened).value();
    auto images =
        ImageStore::Open(options_.metadata_dir, options_.images_retained);
    OCTO_CHECK(images.ok()) << images.status().ToString();
    images_ = std::move(images).value();
  } else {
    log_ = std::make_unique<EditLog>();
  }
  MoopOptions moop;
  moop.mode = options_.placement_mode;
  placement_ = MakeMoopPolicy(moop);
  retrieval_ = MakeOctopusRetrievalPolicy();
}

void Master::SetPlacementPolicy(std::unique_ptr<PlacementPolicy> policy) {
  OCTO_CHECK(policy != nullptr);
  std::lock_guard<std::mutex> service(service_mu_);
  placement_ = std::move(policy);
}

void Master::SetRetrievalPolicy(std::unique_ptr<RetrievalPolicy> policy) {
  OCTO_CHECK(policy != nullptr);
  std::lock_guard<std::mutex> service(service_mu_);
  retrieval_ = std::move(policy);
}

void Master::DefineTier(TierInfo tier) {
  std::lock_guard<std::mutex> service(service_mu_);
  state_.AddTier(std::move(tier));
}

Result<WorkerId> Master::RegisterWorker(const NetworkLocation& location,
                                        double net_bps) {
  std::lock_guard<std::mutex> service(service_mu_);
  OCTO_RETURN_IF_ERROR(topology_.AddNode(location));
  WorkerId id = next_worker_id_++;
  WorkerInfo info;
  info.id = id;
  info.location = location;
  info.net_bps = net_bps;
  info.alive = true;
  info.last_heartbeat_micros = clock_->NowMicros();
  OCTO_RETURN_IF_ERROR(state_.AddWorker(std::move(info)));
  return id;
}

Result<MediumId> Master::RegisterMedium(WorkerId worker,
                                        const MediumSpec& spec,
                                        const ProfiledRates& profiled) {
  std::lock_guard<std::mutex> service(service_mu_);
  const WorkerInfo* w = state_.FindWorker(worker);
  if (w == nullptr) {
    return Status::NotFound("worker " + std::to_string(worker));
  }
  if (state_.FindTier(spec.tier) == nullptr) {
    state_.AddTier(TierInfo{spec.tier, std::string(MediaTypeName(spec.type)),
                            spec.type});
  }
  MediumId id = next_medium_id_++;
  MediumInfo info;
  info.id = id;
  info.worker = worker;
  info.location = w->location;
  info.tier = spec.tier;
  info.type = spec.type;
  info.capacity_bytes = spec.capacity_bytes;
  info.remaining_bytes = spec.capacity_bytes;
  info.write_bps = profiled.write_bps > 0 ? profiled.write_bps : spec.write_bps;
  info.read_bps = profiled.read_bps > 0 ? profiled.read_bps : spec.read_bps;
  OCTO_RETURN_IF_ERROR(state_.AddMedium(std::move(info)));
  return id;
}

Status Master::ReRegisterWorker(WorkerId id, const NetworkLocation& location,
                                double net_bps) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (state_.FindWorker(id) != nullptr) return Status::OK();
  Status st = topology_.AddNode(location);
  if (!st.ok() && !st.IsAlreadyExists()) return st;
  WorkerInfo info;
  info.id = id;
  info.location = location;
  info.net_bps = net_bps;
  info.alive = true;
  info.last_heartbeat_micros = clock_->NowMicros();
  OCTO_RETURN_IF_ERROR(state_.AddWorker(std::move(info)));
  if (id >= next_worker_id_) next_worker_id_ = id + 1;
  return Status::OK();
}

Status Master::ReRegisterMedium(WorkerId worker, MediumId id,
                                const MediumSpec& spec,
                                const ProfiledRates& profiled) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (state_.FindMedium(id) != nullptr) return Status::OK();
  const WorkerInfo* w = state_.FindWorker(worker);
  if (w == nullptr) {
    return Status::NotFound("worker " + std::to_string(worker));
  }
  if (state_.FindTier(spec.tier) == nullptr) {
    state_.AddTier(TierInfo{spec.tier, std::string(MediaTypeName(spec.type)),
                            spec.type});
  }
  MediumInfo info;
  info.id = id;
  info.worker = worker;
  info.location = w->location;
  info.tier = spec.tier;
  info.type = spec.type;
  info.capacity_bytes = spec.capacity_bytes;
  info.remaining_bytes = spec.capacity_bytes;
  info.write_bps = profiled.write_bps > 0 ? profiled.write_bps : spec.write_bps;
  info.read_bps = profiled.read_bps > 0 ? profiled.read_bps : spec.read_bps;
  OCTO_RETURN_IF_ERROR(state_.AddMedium(std::move(info)));
  if (id >= next_medium_id_) next_medium_id_ = id + 1;
  return Status::OK();
}

void Master::RecordFileAccess(uint64_t file_id, const std::string& path,
                              int64_t accesses, int64_t bytes) {
  if (file_id == 0 || !access_stats_enabled()) return;
  std::lock_guard<std::mutex> lock(access_mu_);
  FileAccessStat& stat = access_stats_[file_id];
  stat.file_id = file_id;
  stat.path = path;
  stat.accesses += accesses;
  stat.bytes_read += bytes;
}

std::vector<FileAccessStat> Master::DrainFileAccessStats() {
  std::map<uint64_t, FileAccessStat> drained;
  {
    std::lock_guard<std::mutex> lock(access_mu_);
    drained.swap(access_stats_);
  }
  std::vector<FileAccessStat> out;
  out.reserve(drained.size());
  for (auto& [id, stat] : drained) out.push_back(std::move(stat));
  return out;
}

void Master::NotifyRename(const std::string& src, const std::string& dst) {
  NamespaceEventListener* listener =
      namespace_listener_.load(std::memory_order_acquire);
  if (listener != nullptr) listener->OnRename(src, dst);
}

void Master::NotifyDelete(const std::string& path) {
  NamespaceEventListener* listener =
      namespace_listener_.load(std::memory_order_acquire);
  if (listener != nullptr) listener->OnDelete(path);
}

Status Master::ApplyHeartbeatStatsLocked(const HeartbeatPayload& hb) {
  const WorkerInfo* w = state_.FindWorker(hb.worker);
  if (w == nullptr) {
    return Status::NotFound("worker " + std::to_string(hb.worker));
  }
  OCTO_RETURN_IF_ERROR(state_.SetWorkerAlive(hb.worker, true));
  OCTO_RETURN_IF_ERROR(state_.UpdateWorkerStats(hb.worker, w->nr_connections,
                                                clock_->NowMicros()));
  for (const MediumStats& stats : hb.media) {
    const MediumInfo* m = state_.FindMedium(stats.medium);
    if (m == nullptr || m->worker != hb.worker) continue;
    OCTO_RETURN_IF_ERROR(state_.UpdateMediumStats(
        stats.medium, stats.remaining_bytes, m->nr_connections));
  }
  // Fold the worker-served read counters into per-file access stats (the
  // paper-sequel heat feed: per-block counts ride heartbeats, the master
  // attributes them to files via the block map). Blocks already deleted
  // or predating the file-id field are skipped.
  if (access_stats_enabled()) {
    for (const BlockReadStat& stat : hb.block_reads) {
      const BlockRecord* record = blocks_.Find(stat.block);
      if (record == nullptr) continue;
      RecordFileAccess(record->file_id, record->file, stat.count, stat.bytes);
    }
  }
  // Media whose device died (I/O errors): drop their replicas and
  // re-replicate from the surviving copies.
  for (MediumId medium : hb.failed_media) {
    const MediumInfo* m = state_.FindMedium(medium);
    if (m == nullptr || m->worker != hb.worker) continue;
    HandleFailedMedium(medium);
  }
  return Status::OK();
}

Result<std::vector<WorkerCommand>> Master::Heartbeat(
    const HeartbeatPayload& hb) {
  // Phase 1 (service lock): stats, failed media, bad replicas, and lease
  // reaping. Lease recovery itself runs between the phases because it
  // acquires namespace locks, which always come before the service lock.
  std::vector<std::string> expired;
  {
    std::lock_guard<std::mutex> service(service_mu_);
    uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    if (hb.master_epoch > epoch) {
      return Status::FailedPrecondition(
          "master deposed: worker " + std::to_string(hb.worker) +
          " is at epoch " + std::to_string(hb.master_epoch) +
          ", this master at " + std::to_string(epoch));
    }
    if (hb.master_epoch != 0 && hb.master_epoch < epoch) {
      return Status::FailedPrecondition(
          "stale epoch " + std::to_string(hb.master_epoch) + " from worker " +
          std::to_string(hb.worker) + " (current " + std::to_string(epoch) +
          "); re-register first");
    }
    OCTO_RETURN_IF_ERROR(ApplyHeartbeatStatsLocked(hb));
    // Corrupt replicas found by the worker's scrubber ride the heartbeat
    // (the DataNode's bad-block report). NotFound is fine: the replica may
    // already have been dropped via a client read report or RunScrubber.
    if (!in_safe_mode()) {
      for (const auto& [medium, block] : hb.bad_replicas) {
        Status st = ReportBadBlockLocked(block, medium);
        if (!st.ok() && !st.IsNotFound()) return st;
      }
      // Lease reaping piggy-backs on heartbeat processing: an expired
      // writer's file enters lease recovery — a recovery primary
      // reconciles the divergent tail-block replicas before the file is
      // completed (the HDFS recoverLease path). Trusting the writer's
      // last claim instead would register whatever length it happened to
      // report, even when the surviving replicas disagree. Skipped in
      // safe mode: reconstructed leases must not expire while the
      // cluster is still re-assembling its block map.
      expired = leases_.ReapExpired();
    }
  }
  for (const std::string& path : expired) {
    StartLeaseRecovery(path);
  }
  // Phase 2 (service lock again): deliver undelivered commands, and
  // redeliver any whose previous delivery expired unacknowledged (the
  // worker may have crashed between receiving and executing them).
  // Commands stay queued until AckCommand.
  std::vector<WorkerCommand> commands;
  {
    std::lock_guard<std::mutex> service(service_mu_);
    auto it = command_queues_.find(hb.worker);
    if (it != command_queues_.end()) {
      int64_t now = clock_->NowMicros();
      for (QueuedCommand& queued : it->second) {
        if (queued.delivered_micros < 0) {
          queued.delivered_micros = now;
          commands.push_back(queued.command);
        } else if (now - queued.delivered_micros >
                   options_.command_timeout_micros) {
          queued.delivered_micros = now;
          ++commands_redelivered_;
          commands.push_back(queued.command);
        }
      }
    }
  }
  // Flush any records lease recovery appended before acking the round.
  OCTO_RETURN_IF_ERROR(CommitJournal());
  return commands;
}

Status Master::AckCommand(WorkerId worker, uint64_t command_id) {
  std::lock_guard<std::mutex> service(service_mu_);
  auto it = command_queues_.find(worker);
  if (it != command_queues_.end()) {
    for (auto cmd = it->second.begin(); cmd != it->second.end(); ++cmd) {
      if (cmd->command.id == command_id) {
        it->second.erase(cmd);
        if (it->second.empty()) command_queues_.erase(it);
        return Status::OK();
      }
    }
  }
  return Status::NotFound("command " + std::to_string(command_id) +
                          " for worker " + std::to_string(worker));
}

Status Master::ProcessBlockReport(WorkerId worker, const BlockReport& report,
                                  uint64_t reporter_epoch) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (reporter_epoch != 0 && reporter_epoch != epoch()) {
    // Fencing both ways: a report addressed to a predecessor of this
    // master (reporter ahead) or built for a deposed one (reporter
    // behind) must not mutate the block map.
    return Status::FailedPrecondition(
        "block report from worker " + std::to_string(worker) + " at epoch " +
        std::to_string(reporter_epoch) + " rejected by master at epoch " +
        std::to_string(epoch()));
  }
  if (state_.FindWorker(worker) == nullptr) {
    return Status::NotFound("worker " + std::to_string(worker));
  }
  for (const auto& [medium, blocks] : report) {
    const MediumInfo* m = state_.FindMedium(medium);
    if (m == nullptr || m->worker != worker) {
      return Status::InvalidArgument("medium " + std::to_string(medium) +
                                     " does not belong to worker " +
                                     std::to_string(worker));
    }
    std::set<BlockId> reported;
    // Unknown replicas are orphans -> invalidate. Known but unregistered
    // replicas (e.g. after master recovery) are adopted — but only when
    // they carry the record's generation stamp and length and are
    // finalized; anything else missed a recovery and is stale.
    for (const ReplicaDescriptor& r : blocks) {
      reported.insert(r.block);
      // Under-construction blocks are the writer's business: their RBW
      // replicas are neither adopted nor invalidated until the block is
      // committed or recovered.
      if (pending_blocks_.count(r.block) > 0) continue;
      const BlockRecord* record = blocks_.Find(r.block);
      bool orphan = record == nullptr;
      bool stale = !orphan && !(r.finalized && r.genstamp == record->genstamp &&
                                r.length == record->length);
      if (orphan || stale) {
        if (stale &&
            std::find(record->locations.begin(), record->locations.end(),
                      medium) != record->locations.end()) {
          OCTO_RETURN_IF_ERROR(blocks_.RemoveReplica(r.block, medium));
          (void)state_.AdjustMediumRemaining(medium, record->length);
        }
        if (in_safe_mode()) {
          // The namespace may still be mid-reconstruction; destroying
          // bytes now could orphan the only copy of a block a later edit
          // replay or report legitimizes. Defer until safe-mode exit.
          // (Stale replicas never re-legitimize, but deferring their
          // invalidation too is harmless.)
          deferred_orphans_.insert({medium, r.block});
          continue;
        }
        WorkerCommand cmd;
        cmd.kind = WorkerCommand::Kind::kDeleteReplica;
        cmd.block = r.block;
        cmd.target_medium = medium;
        QueueCommand(medium, std::move(cmd));
        continue;
      }
      if (std::find(record->locations.begin(), record->locations.end(),
                    medium) == record->locations.end()) {
        OCTO_RETURN_IF_ERROR(blocks_.AddReplica(r.block, medium));
        if (inflight_copies_.erase({r.block, medium}) > 0) {
          repair_.NoteCompleted(r.block, medium);
        }
      }
    }
    // Replicas the map believes are here but the worker no longer has.
    for (BlockId b : blocks_.BlocksOnMedium(medium)) {
      if (reported.count(b) == 0) {
        OCTO_RETURN_IF_ERROR(blocks_.RemoveReplica(b, medium));
      }
    }
    // A full report is ground truth for this medium: any copy we thought
    // was in flight to it but which is not reported has failed — clear it
    // so the replication monitor re-schedules the repair.
    for (auto it = inflight_copies_.begin(); it != inflight_copies_.end();) {
      if (it->first.second == medium && reported.count(it->first.first) == 0) {
        pending_moves_.erase(it->first);
        // Charge a failed attempt (the target worker is likely sick) but
        // no cooldown: ground truth says nothing is pending there.
        repair_.NoteAborted(it->first.first, it->first.second,
                            RepairAbort::kFailedReported, clock_->NowMicros());
        it = inflight_copies_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (in_safe_mode()) MaybeExitSafeMode();
  return Status::OK();
}

std::vector<WorkerId> Master::CheckWorkerLiveness() {
  std::lock_guard<std::mutex> service(service_mu_);
  std::vector<WorkerId> newly_dead;
  int64_t now = clock_->NowMicros();
  for (const auto& [id, w] : state_.workers()) {
    if (w.alive &&
        now - w.last_heartbeat_micros > options_.worker_timeout_micros) {
      newly_dead.push_back(id);
    }
  }
  for (WorkerId id : newly_dead) {
    OCTO_CHECK_OK(state_.SetWorkerAlive(id, false));
    OCTO_LOG(Warn) << "worker " << id << " declared dead";
    // Its queued commands will never execute. Copies targeting the dead
    // worker release their in-flight bookkeeping so the monitor repairs
    // elsewhere; deletes are dropped (the worker's first block report
    // after a revival reconciles them).
    auto queue = command_queues_.find(id);
    if (queue != command_queues_.end()) {
      std::vector<QueuedCommand> commands = std::move(queue->second);
      command_queues_.erase(queue);
      for (const QueuedCommand& queued : commands) {
        if (queued.command.kind == WorkerCommand::Kind::kCopyReplica) {
          AbortInflightCopy(queued.command.block, queued.command.target_medium,
                            RepairAbort::kTargetLost);
        }
      }
    }
  }
  return newly_dead;
}

// ---------------------------------------------------------------------------
// Namespace operations

Status Master::Mkdirs(const std::string& path, const UserContext& ctx) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("mkdirs"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  {
    // Optimistic flat attempt: when every ancestor already exists only the
    // parent and the new directory need exclusive locks. The tree refuses
    // (Unavailable) when deeper ancestors are missing — those creations
    // touch an unbounded prefix of the path, so escalate to a structural
    // lock and let Mkdirs create the whole chain.
    auto oplock = nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kMutate);
    Status st = tree_->Mkdirs(normalized, ctx, AncestorPolicy::kRequireExisting);
    if (st.IsUnavailable()) {
      oplock.Release();
      auto structural = nslocks_.LockStructural();
      OCTO_RETURN_IF_ERROR(tree_->Mkdirs(normalized, ctx));
      log_->LogMkdirs(normalized);
    } else {
      OCTO_RETURN_IF_ERROR(st);
      log_->LogMkdirs(normalized);
    }
  }
  return CommitJournal();
}

Result<std::vector<FileStatus>> Master::ListDirectory(
    const std::string& path, const UserContext& ctx) const {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  auto oplock = nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kRead);
  return tree_->ListDirectory(normalized, ctx);
}

Result<FileStatus> Master::GetFileStatus(const std::string& path,
                                         const UserContext& ctx) const {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  auto oplock = nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kRead);
  return tree_->GetFileStatus(normalized, ctx);
}

Status Master::Rename(const std::string& src, const std::string& dst,
                      const UserContext& ctx) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("rename"));
  OCTO_ASSIGN_OR_RETURN(std::string nsrc, NormalizePath(src));
  OCTO_ASSIGN_OR_RETURN(std::string ndst, NormalizePath(dst));
  {
    auto oplock = nslocks_.LockStructural();
    OCTO_RETURN_IF_ERROR(tree_->Rename(nsrc, ndst, ctx));
    log_->LogRename(nsrc, ndst);
    RecordRenameForCheckpoint(nsrc, ndst);
  }
  OCTO_RETURN_IF_ERROR(CommitJournal());
  NotifyRename(nsrc, ndst);
  return Status::OK();
}

Result<int> Master::Delete(const std::string& path, bool recursive,
                           const UserContext& ctx, bool skip_trash) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("delete"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  if (options_.enable_trash && !skip_trash &&
      !IsSelfOrDescendant("/.Trash", normalized)) {
    // Move into the user's trash, keeping the base name; disambiguate
    // collisions with a monotonically growing suffix. One structural lock
    // covers the mkdir + probe + rename, so the chosen target cannot be
    // taken by a concurrent delete of the same name.
    std::string trash_root = "/.Trash/" + ctx.user;
    std::string target;
    {
      auto oplock = nslocks_.LockStructural();
      OCTO_RETURN_IF_ERROR(tree_->Mkdirs(trash_root, ctx));
      log_->LogMkdirs(trash_root);
      target = trash_root + "/" + BaseName(normalized);
      int suffix = 1;
      while (tree_->Exists(target)) {
        target = trash_root + "/" + BaseName(normalized) + "." +
                 std::to_string(suffix++);
      }
      OCTO_RETURN_IF_ERROR(tree_->Rename(normalized, target, ctx));
      log_->LogRename(normalized, target);
      RecordRenameForCheckpoint(normalized, target);
    }
    OCTO_RETURN_IF_ERROR(CommitJournal());
    // Trash moves are renames: path-keyed soft state follows the file.
    NotifyRename(normalized, target);
    return 0;  // nothing invalidated; data is recoverable from trash
  }
  std::vector<BlockInfo> removed;
  {
    // A recursive delete detaches a whole subtree — its lock footprint is
    // not one prefix chain. Non-recursive deletes touch only parent +
    // terminal.
    auto oplock =
        recursive ? nslocks_.LockStructural()
                  : nslocks_.Lock(normalized,
                                  NamespaceLockManager::OpMode::kMutate);
    OCTO_ASSIGN_OR_RETURN(removed, tree_->Delete(normalized, recursive, ctx));
    log_->LogDelete(normalized, recursive);
    leases_.Remove(normalized);
    std::lock_guard<std::mutex> service(service_mu_);
    for (const BlockInfo& info : removed) {
      const BlockRecord* record = blocks_.Find(info.id);
      if (record == nullptr) continue;
      for (MediumId medium : record->locations) {
        WorkerCommand cmd;
        cmd.kind = WorkerCommand::Kind::kDeleteReplica;
        cmd.block = info.id;
        cmd.target_medium = medium;
        // Free the master-side space accounting right away; the worker's
        // next heartbeat will confirm.
        (void)state_.AdjustMediumRemaining(medium, info.length);
        QueueCommand(medium, std::move(cmd));
      }
      OCTO_CHECK_OK(blocks_.RemoveBlock(info.id));
    }
  }
  OCTO_RETURN_IF_ERROR(CommitJournal());
  NotifyDelete(normalized);
  return static_cast<int>(removed.size());
}

Result<int> Master::ExpungeTrash(const UserContext& ctx) {
  std::string trash_root = "/.Trash/" + ctx.user;
  {
    auto oplock =
        nslocks_.Lock(trash_root, NamespaceLockManager::OpMode::kRead);
    if (!tree_->Exists(trash_root)) return 0;
  }
  return Delete(trash_root, /*recursive=*/true, ctx, /*skip_trash=*/true);
}

Status Master::SetQuota(const std::string& path, int slot, int64_t bytes) {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  {
    auto oplock = nslocks_.LockStructural();
    OCTO_RETURN_IF_ERROR(tree_->SetQuota(normalized, slot, bytes));
    log_->LogSetQuota(normalized, slot, bytes);
  }
  return CommitJournal();
}

Result<QuotaUsage> Master::GetQuotaUsage(const std::string& path) const {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  auto oplock = nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kRead);
  return tree_->GetQuotaUsage(normalized);
}

Status Master::SetOwner(const std::string& path, const std::string& owner,
                        const std::string& group, const UserContext& ctx) {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  {
    // Structural: ownership feeds the traversal permission checks of every
    // path below this one.
    auto oplock = nslocks_.LockStructural();
    OCTO_RETURN_IF_ERROR(tree_->SetOwner(normalized, owner, group, ctx));
    log_->LogSetOwner(normalized, owner, group);
  }
  return CommitJournal();
}

Status Master::SetMode(const std::string& path, uint16_t mode,
                       const UserContext& ctx) {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  {
    auto oplock = nslocks_.LockStructural();
    OCTO_RETURN_IF_ERROR(tree_->SetMode(normalized, mode, ctx));
    log_->LogSetMode(normalized, mode);
  }
  return CommitJournal();
}

// ---------------------------------------------------------------------------
// Write path

Status Master::Create(const std::string& path, const ReplicationVector& rv,
                      int64_t block_size, bool overwrite,
                      const UserContext& ctx,
                      const std::string& lease_holder) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("create"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  // First attempt assumes the parent chain exists (the common case; only
  // parent + file lock exclusive); when the tree reports missing
  // ancestors, retry under the structural lock creating them.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool structural = attempt == 1;
    auto oplock = structural
                      ? nslocks_.LockStructural()
                      : nslocks_.Lock(normalized,
                                      NamespaceLockManager::OpMode::kMutate);
    // Another writer's live lease blocks re-creation even with overwrite
    // (HDFS's AlreadyBeingCreatedException).
    auto holder = leases_.Holder(normalized);
    if (holder.ok() && *holder != lease_holder) {
      return Status::AlreadyExists(normalized + " is being written by " +
                                   *holder);
    }
    std::vector<BlockInfo> replaced;
    Status st = tree_->CreateFile(normalized, rv, block_size, overwrite, ctx,
                                  &replaced,
                                  structural ? AncestorPolicy::kCreate
                                             : AncestorPolicy::kRequireExisting);
    if (!structural && st.IsUnavailable()) continue;
    OCTO_RETURN_IF_ERROR(st);
    log_->LogCreate(normalized, rv, block_size, overwrite, lease_holder);
    {
      std::lock_guard<std::mutex> service(service_mu_);
      for (const BlockInfo& info : replaced) {
        const BlockRecord* record = blocks_.Find(info.id);
        if (record == nullptr) continue;
        for (MediumId medium : record->locations) {
          WorkerCommand cmd;
          cmd.kind = WorkerCommand::Kind::kDeleteReplica;
          cmd.block = info.id;
          cmd.target_medium = medium;
          (void)state_.AdjustMediumRemaining(medium, info.length);
          QueueCommand(medium, std::move(cmd));
        }
        OCTO_CHECK_OK(blocks_.RemoveBlock(info.id));
      }
    }
    leases_.Remove(normalized);
    OCTO_RETURN_IF_ERROR(leases_.Acquire(normalized, lease_holder));
    oplock.Release();
    OCTO_RETURN_IF_ERROR(CommitJournal());
    // An overwriting create destroyed whatever inode held this path: any
    // identity-keyed soft state for it (heat, managed replicas) is stale.
    if (overwrite) NotifyDelete(normalized);
    return Status::OK();
  }
  return Status::Internal("create of " + normalized + " failed to escalate");
}

Status Master::Append(const std::string& path, const UserContext& ctx,
                      const std::string& lease_holder) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("append"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  {
    auto oplock =
        nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kMutate);
    auto holder = leases_.Holder(normalized);
    if (holder.ok() && *holder != lease_holder) {
      return Status::AlreadyExists(normalized + " is being written by " +
                                   *holder);
    }
    OCTO_RETURN_IF_ERROR(tree_->ReopenForAppend(normalized, ctx));
    log_->LogAppend(normalized, lease_holder);
    leases_.Remove(normalized);
    OCTO_RETURN_IF_ERROR(leases_.Acquire(normalized, lease_holder));
    if (access_stats_enabled()) {
      auto status = tree_->GetFileStatus(normalized, kSuperuser);
      if (status.ok()) {
        RecordFileAccess(status->file_id, normalized, /*accesses=*/1,
                         /*bytes=*/0);
      }
    }
  }
  return CommitJournal();
}

PlacedReplica Master::MakePlacedReplica(MediumId medium) const {
  PlacedReplica pr;
  pr.medium = medium;
  const MediumInfo* m = state_.FindMedium(medium);
  if (m != nullptr) {
    pr.worker = m->worker;
    pr.tier = m->tier;
    pr.location = m->location;
  }
  return pr;
}

Result<LocatedBlock> Master::AddBlock(const std::string& path,
                                      const std::string& lease_holder,
                                      const NetworkLocation& client) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("addBlock"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  LocatedBlock located;
  {
    // Block allocation reads the file (length, rep vector) but mutates
    // only service state, so a shared namespace lock suffices.
    auto oplock =
        nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kRead);
    OCTO_ASSIGN_OR_RETURN(std::string holder, leases_.Holder(normalized));
    if (holder != lease_holder) {
      return Status::PermissionDenied("lease on " + normalized + " held by " +
                                      holder);
    }
    OCTO_RETURN_IF_ERROR(leases_.Renew(normalized, lease_holder));
    OCTO_ASSIGN_OR_RETURN(FileStatus status,
                          tree_->GetFileStatus(normalized, kSuperuser));
    if (!status.under_construction) {
      return Status::FailedPrecondition(normalized +
                                        " is not under construction");
    }
    PlacementRequest request;
    request.client = client;
    request.rep_vector = status.rep_vector;
    request.block_size = status.block_size;
    std::lock_guard<std::mutex> service(service_mu_);
    OCTO_ASSIGN_OR_RETURN(std::vector<MediumId> media,
                          placement_->PlaceReplicas(state_, request, &rng_));
    BlockId id = blocks_.NextBlockId();
    // Every block is born under a fresh generation stamp; pipeline and
    // lease recovery bump it to fence off writers that missed the recovery.
    uint64_t genstamp = NextGenstamp();
    pending_blocks_[id] = PendingBlock{normalized, media, genstamp};
    located.block = BlockInfo{id, 0, genstamp};
    located.offset = status.length;
    located.locations.reserve(media.size());
    for (MediumId m : media) located.locations.push_back(MakePlacedReplica(m));
  }
  OCTO_RETURN_IF_ERROR(CommitJournal());  // the GENSTAMP record
  return located;
}

Status Master::AbandonBlock(const std::string& path,
                            const std::string& lease_holder, BlockId block) {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  OCTO_ASSIGN_OR_RETURN(std::string holder, leases_.Holder(normalized));
  if (holder != lease_holder) {
    return Status::PermissionDenied("lease on " + normalized + " held by " +
                                    holder);
  }
  std::lock_guard<std::mutex> service(service_mu_);
  pending_blocks_.erase(block);
  return Status::OK();
}

Status Master::CommitBlock(const std::string& path,
                           const std::string& lease_holder, BlockId block,
                           int64_t length,
                           const std::vector<MediumId>& succeeded,
                           uint64_t genstamp) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("commitBlock"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  {
    auto oplock =
        nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kMutate);
    OCTO_ASSIGN_OR_RETURN(std::string holder, leases_.Holder(normalized));
    if (holder != lease_holder) {
      return Status::PermissionDenied("lease on " + normalized + " held by " +
                                      holder);
    }
    std::lock_guard<std::mutex> service(service_mu_);
    auto pending = pending_blocks_.find(block);
    if (pending == pending_blocks_.end()) {
      return Status::NotFound("block " + std::to_string(block) +
                              " was not allocated");
    }
    if (pending->second.file != normalized) {
      return Status::InvalidArgument("block " + std::to_string(block) +
                                     " belongs to " + pending->second.file);
    }
    if (genstamp != 0 && genstamp != pending->second.genstamp) {
      // The block was recovered past this writer (its lease expired, or a
      // concurrent recovery restamped the replicas): its view of the bytes
      // no longer matches what lives on the workers.
      return Status::FailedPrecondition(
          "commit of block " + std::to_string(block) + " under stamp " +
          std::to_string(genstamp) + " fenced off (current " +
          std::to_string(pending->second.genstamp) + ")");
    }
    if (succeeded.empty()) {
      return Status::IoError("no replica of block " + std::to_string(block) +
                             " was written");
    }
    OCTO_ASSIGN_OR_RETURN(FileStatus status,
                          tree_->GetFileStatus(normalized, kSuperuser));
    BlockInfo info{block, length, pending->second.genstamp};
    BlockRecord record;
    record.id = block;
    record.file = normalized;
    record.file_id = status.file_id;
    record.length = length;
    record.genstamp = info.genstamp;
    record.expected = status.rep_vector;
    record.locations = succeeded;
    OCTO_RETURN_IF_ERROR(tree_->AddBlock(normalized, info));
    log_->LogAddBlock(normalized, info);
    OCTO_RETURN_IF_ERROR(blocks_.AddBlock(std::move(record)));
    for (MediumId medium : succeeded) {
      (void)state_.AdjustMediumRemaining(medium, -length);
    }
    pending_blocks_.erase(pending);
  }
  return CommitJournal();
}

Result<PipelineRecoveryResult> Master::RecoverPipeline(
    const std::string& path, const std::string& lease_holder, BlockId block,
    const std::vector<MediumId>& survivors, const NetworkLocation& client) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("recoverPipeline"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  PipelineRecoveryResult result;
  {
    auto oplock =
        nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kRead);
    OCTO_ASSIGN_OR_RETURN(std::string holder, leases_.Holder(normalized));
    if (holder != lease_holder) {
      return Status::PermissionDenied("lease on " + normalized + " held by " +
                                      holder);
    }
    OCTO_RETURN_IF_ERROR(leases_.Renew(normalized, lease_holder));
    std::lock_guard<std::mutex> service(service_mu_);
    auto pending = pending_blocks_.find(block);
    if (pending == pending_blocks_.end()) {
      return Status::NotFound("block " + std::to_string(block) +
                              " was not allocated");
    }
    if (pending->second.file != normalized) {
      return Status::InvalidArgument("block " + std::to_string(block) +
                                     " belongs to " + pending->second.file);
    }
    if (survivors.empty()) {
      return Status::InvalidArgument(
          "pipeline recovery of block " + std::to_string(block) +
          " with no survivors; abandon the block instead");
    }
    result.genstamp = NextGenstamp();
    pending->second.genstamp = result.genstamp;
    pending->second.targets = survivors;
    // Try to restore the pipeline's width with a replacement medium; the
    // block still completes (under-replicated) when placement cannot.
    PlacementRequest request;
    request.client = client;
    request.rep_vector.Set(kUnspecifiedTier, 1);
    auto status = tree_->GetFileStatus(normalized, kSuperuser);
    request.block_size = status.ok() ? status->block_size : 0;
    request.existing = survivors;
    auto placed = placement_->PlaceReplicas(state_, request, &rng_);
    if (placed.ok() && !placed->empty()) {
      MediumId target = placed->front();
      pending->second.targets.push_back(target);
      result.has_replacement = true;
      result.replacement = MakePlacedReplica(target);
    }
  }
  OCTO_RETURN_IF_ERROR(CommitJournal());  // the GENSTAMP record
  return result;
}

Status Master::CommitBlockSynchronization(
    BlockId block, uint64_t genstamp, int64_t length,
    const std::vector<MediumId>& good_media) {
  Status st;
  {
    // The file the block belongs to is only known once the pending entry
    // is found under the service lock — too late to take a per-path lock
    // in order. Recovery callbacks are rare; take the structural lock.
    auto oplock = nslocks_.LockStructural();
    std::lock_guard<std::mutex> service(service_mu_);
    st = CommitBlockSynchronizationLocked(block, genstamp, length, good_media);
  }
  Status committed = CommitJournal();
  return st.ok() ? committed : st;
}

Status Master::CommitBlockSynchronizationLocked(
    BlockId block, uint64_t genstamp, int64_t length,
    const std::vector<MediumId>& good_media) {
  auto pending = pending_blocks_.find(block);
  if (pending == pending_blocks_.end()) {
    return Status::NotFound("block " + std::to_string(block) +
                            " is not awaiting recovery");
  }
  if (genstamp != pending->second.genstamp) {
    // A newer recovery round superseded the one this callback belongs to.
    return Status::FailedPrecondition(
        "recovery of block " + std::to_string(block) + " under stamp " +
        std::to_string(genstamp) + " superseded (current " +
        std::to_string(pending->second.genstamp) + ")");
  }
  const std::string path = pending->second.file;
  auto status = tree_->GetFileStatus(path, kSuperuser);
  if (!status.ok()) {
    // The file vanished (deleted) while recovery ran; the leftover
    // replicas are orphans and block reports will scrub them.
    pending_blocks_.erase(block);
    return Status::OK();
  }
  if (!good_media.empty() && length > 0) {
    BlockInfo info{block, length, genstamp};
    BlockRecord record;
    record.id = block;
    record.file = path;
    record.file_id = status->file_id;
    record.length = length;
    record.genstamp = genstamp;
    record.expected = status->rep_vector;
    record.locations = good_media;
    OCTO_RETURN_IF_ERROR(tree_->AddBlock(path, info));
    log_->LogAddBlock(path, info);
    OCTO_RETURN_IF_ERROR(blocks_.AddBlock(std::move(record)));
    for (MediumId medium : good_media) {
      (void)state_.AdjustMediumRemaining(medium, -length);
    }
  }
  // With no good replica (or zero reconciled bytes) the tail block is
  // dropped: the file closes at its last committed length, and the empty
  // leftover replicas are scrubbed as orphans by later block reports.
  pending_blocks_.erase(block);
  OCTO_RETURN_IF_ERROR(tree_->CompleteFile(path));
  log_->LogComplete(path);
  leases_.Remove(path);
  return Status::OK();
}

void Master::StartLeaseRecovery(const std::string& path) {
  // Paths come from the lease table, which the Master keys by normalized
  // path. Recovery mutates the file (force-complete) and service state.
  auto oplock = nslocks_.Lock(path, NamespaceLockManager::OpMode::kMutate);
  std::lock_guard<std::mutex> service(service_mu_);
  // Locate the file's under-construction tail block (writers allocate one
  // block at a time, so there is at most one).
  BlockId block = kInvalidBlock;
  PendingBlock* pending = nullptr;
  for (auto& [id, pb] : pending_blocks_) {
    if (pb.file == path) {
      block = id;
      pending = &pb;
      break;
    }
  }
  if (pending == nullptr) {
    // No tail block in flight: the committed prefix is all there is.
    Status st = tree_->CompleteFile(path);
    if (st.ok()) log_->LogComplete(path);
    return;
  }
  std::vector<MediumId> live;
  for (MediumId m : pending->targets) {
    if (state_.MediumLive(m)) live.push_back(m);
  }
  if (live.empty()) {
    // Every replica of the tail is gone; nothing to reconcile.
    pending_blocks_.erase(block);
    Status st = tree_->CompleteFile(path);
    if (st.ok()) log_->LogComplete(path);
    return;
  }
  // Fence the (possibly still running) writer and any stale recovery
  // round, then dispatch a recovery primary. The file completes when the
  // primary reports back via CommitBlockSynchronization.
  uint64_t genstamp = NextGenstamp();
  pending->genstamp = genstamp;
  pending->targets = live;
  for (auto& [worker, commands] : command_queues_) {
    commands.erase(
        std::remove_if(commands.begin(), commands.end(),
                       [&](const QueuedCommand& queued) {
                         return queued.command.kind ==
                                    WorkerCommand::Kind::kRecoverBlock &&
                                queued.command.block == block;
                       }),
        commands.end());
  }
  WorkerCommand cmd;
  cmd.kind = WorkerCommand::Kind::kRecoverBlock;
  cmd.block = block;
  cmd.target_medium = live.front();
  cmd.sources = live;
  cmd.genstamp = genstamp;
  QueueCommand(live.front(), std::move(cmd));
  // Hold the lease under a synthetic recovery holder: if the primary
  // crashes before reporting back, this lease expires too and recovery
  // restarts with the then-live survivors and a fresh stamp.
  OCTO_CHECK_OK(leases_.Acquire(path, "block-recovery"));
}

void Master::HandleFailedMedium(MediumId medium) {
  const MediumInfo* m = state_.FindMedium(medium);
  if (m == nullptr || m->failed) return;  // unknown or already handled
  OCTO_LOG(Warn) << "medium " << medium << " on worker " << m->worker
                 << " reported failed";
  OCTO_CHECK_OK(state_.SetMediumFailed(medium, true));
  // Commands targeting the dead device will never execute; copies to it
  // release their in-flight bookkeeping (like a dead worker's queue).
  auto queue = command_queues_.find(m->worker);
  if (queue != command_queues_.end()) {
    std::vector<QueuedCommand> dropped;
    auto& commands = queue->second;
    for (auto it = commands.begin(); it != commands.end();) {
      if (it->command.target_medium == medium) {
        dropped.push_back(*it);
        it = commands.erase(it);
      } else {
        ++it;
      }
    }
    if (commands.empty()) command_queues_.erase(queue);
    for (const QueuedCommand& queued : dropped) {
      if (queued.command.kind == WorkerCommand::Kind::kCopyReplica) {
        AbortInflightCopy(queued.command.block, queued.command.target_medium,
                          RepairAbort::kTargetLost);
      }
    }
  }
  // Already-delivered copies to the medium can never confirm either.
  std::vector<BlockId> inflight;
  for (const auto& [key, when] : inflight_copies_) {
    if (key.second == medium) inflight.push_back(key.first);
  }
  for (BlockId b : inflight) {
    AbortInflightCopy(b, medium, RepairAbort::kTargetLost);
  }
  if (in_safe_mode()) return;  // replicas were never adopted; nothing to drop
  // Drop its replicas — without queueing invalidations, the device being
  // unable to execute them — and repair from the surviving copies.
  std::vector<BlockId> blocks = blocks_.BlocksOnMedium(medium);
  for (BlockId b : blocks) {
    OCTO_CHECK_OK(blocks_.RemoveReplica(b, medium));
  }
  for (BlockId b : blocks) {
    const BlockRecord* record = blocks_.Find(b);
    if (record != nullptr) ReconcileBlock(*record);
  }
}

Status Master::CompleteFile(const std::string& path,
                            const std::string& lease_holder) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("completeFile"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  {
    auto oplock =
        nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kMutate);
    OCTO_ASSIGN_OR_RETURN(std::string holder, leases_.Holder(normalized));
    if (holder != lease_holder) {
      return Status::PermissionDenied("lease on " + normalized + " held by " +
                                      holder);
    }
    OCTO_RETURN_IF_ERROR(tree_->CompleteFile(normalized));
    log_->LogComplete(normalized);
    OCTO_RETURN_IF_ERROR(leases_.Release(normalized, lease_holder));
  }
  return CommitJournal();
}

Status Master::RenewLease(const std::string& path,
                          const std::string& lease_holder) {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  return leases_.Renew(normalized, lease_holder);
}

// ---------------------------------------------------------------------------
// Read path

Result<std::vector<LocatedBlock>> Master::GetBlockLocations(
    const std::string& path, const NetworkLocation& client) {
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  auto oplock = nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kRead);
  OCTO_ASSIGN_OR_RETURN(std::vector<BlockInfo> blocks,
                        tree_->GetBlocks(normalized));
  std::vector<LocatedBlock> out;
  out.reserve(blocks.size());
  // Empty files never touch service state: opens of fresh/zero-length
  // files stay on the contention-free read path.
  if (blocks.empty()) return out;
  int64_t offset = 0;
  // Replica ordering consumes the shared rng and reads cluster state.
  std::lock_guard<std::mutex> service(service_mu_);
  uint64_t opened_file_id = 0;
  for (const BlockInfo& info : blocks) {
    LocatedBlock located;
    located.block = info;
    located.offset = offset;
    offset += info.length;
    const BlockRecord* record = blocks_.Find(info.id);
    if (record != nullptr) {
      if (opened_file_id == 0) opened_file_id = record->file_id;
      std::vector<MediumId> ordered =
          retrieval_->OrderReplicas(state_, client, record->locations, &rng_);
      located.locations.reserve(ordered.size());
      for (MediumId m : ordered) {
        located.locations.push_back(MakePlacedReplica(m));
      }
    }
    out.push_back(std::move(located));
  }
  // A block-location fetch is the open of the client read path: count it
  // once toward the file's heat (byte volume arrives separately via the
  // serving workers' heartbeat read counters).
  RecordFileAccess(opened_file_id, normalized, /*accesses=*/1, /*bytes=*/0);
  return out;
}

std::vector<MediumId> Master::OrderReplicasFor(
    const NetworkLocation& client, const std::vector<MediumId>& media) {
  std::lock_guard<std::mutex> service(service_mu_);
  return retrieval_->OrderReplicas(state_, client, media, &rng_);
}

Status Master::ReportBadBlock(BlockId block, MediumId medium) {
  std::lock_guard<std::mutex> service(service_mu_);
  return ReportBadBlockLocked(block, medium);
}

Status Master::ReportBadBlockLocked(BlockId block, MediumId medium) {
  // In safe mode the block map is still being reconstructed; dropping
  // locations now could make reconstruction count a reported block as
  // lost. Ignore — the scrubber/reader will re-report after exit.
  if (in_safe_mode()) return Status::OK();
  OCTO_RETURN_IF_ERROR(blocks_.RemoveReplica(block, medium));
  const BlockRecord* record = blocks_.Find(block);
  if (record != nullptr) {
    (void)state_.AdjustMediumRemaining(medium, record->length);
  }
  WorkerCommand cmd;
  cmd.kind = WorkerCommand::Kind::kDeleteReplica;
  cmd.block = block;
  cmd.target_medium = medium;
  QueueCommand(medium, std::move(cmd));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Replication vector management

Status Master::SetReplication(const std::string& path,
                              const ReplicationVector& rv,
                              const UserContext& ctx) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("setReplication"));
  OCTO_ASSIGN_OR_RETURN(std::string normalized, NormalizePath(path));
  {
    auto oplock =
        nslocks_.Lock(normalized, NamespaceLockManager::OpMode::kMutate);
    OCTO_RETURN_IF_ERROR(tree_->SetReplicationVector(normalized, rv, ctx));
    log_->LogSetReplication(normalized, rv);
    OCTO_ASSIGN_OR_RETURN(std::vector<BlockInfo> blocks,
                          tree_->GetBlocks(normalized));
    // Reconcile each block right away; the generated copy/delete commands
    // execute asynchronously on the workers (paper §5: "the Client will
    // not wait until the copying or removal of blocks is completed").
    std::lock_guard<std::mutex> service(service_mu_);
    for (const BlockInfo& info : blocks) {
      OCTO_RETURN_IF_ERROR(blocks_.SetExpected(info.id, rv));
      const BlockRecord* record = blocks_.Find(info.id);
      if (record != nullptr) ReconcileBlock(*record);
    }
  }
  return CommitJournal();
}

Status Master::RequestMigration(const std::string& path,
                                const ReplicationVector& rv) {
  // Same journaled vector edit as SetReplication under the superuser:
  // migration moves bytes between tiers without changing the total, so
  // classification lands the copies in the kMisTiered bucket and every
  // dispatch passes through the repair scheduler's budgets. There is no
  // unbudgeted path for background byte movement.
  return SetReplication(path, rv, UserContext{"root", {}});
}

Result<std::vector<StorageTierReport>> Master::GetStorageTierReports() const {
  std::lock_guard<std::mutex> service(service_mu_);
  return state_.TierReports();
}

// ---------------------------------------------------------------------------
// Replication monitor

void Master::QueueCommand(MediumId target_medium, WorkerCommand command) {
  const MediumInfo* m = state_.FindMedium(target_medium);
  if (m == nullptr) return;
  command.id = next_command_id_++;
  command.epoch = epoch();
  command_queues_[m->worker].push_back(QueuedCommand{std::move(command)});
}

std::vector<MediumId> Master::LiveLocations(const BlockRecord& record) const {
  std::vector<MediumId> live;
  for (MediumId m : record.locations) {
    if (state_.MediumLive(m)) live.push_back(m);
  }
  return live;
}

void Master::PruneDeadReplicas(BlockRecord* record) {
  // Collect first: RemoveReplica mutates record->locations, so the dead
  // list must be snapshotted before any removal.
  std::vector<MediumId> dead;
  for (MediumId m : record->locations) {
    if (!state_.MediumLive(m)) dead.push_back(m);
  }
  for (MediumId m : dead) {
    OCTO_CHECK_OK(blocks_.RemoveReplica(record->id, m));
  }
}

void Master::ExpireInflight() {
  int64_t now = clock_->NowMicros();
  for (const auto& [block, target] : repair_.ExpiredCopies(now)) {
    AbortInflightCopy(block, target, RepairAbort::kTimeout);
  }
}

void Master::AbortInflightCopy(BlockId block, MediumId target,
                               RepairAbort reason) {
  repair_.NoteAborted(block, target, reason, clock_->NowMicros());
  // A move whose copy never confirmed: release the target reservation
  // and forget the move (the source replica was never touched).
  auto move = pending_moves_.find({block, target});
  if (move != pending_moves_.end()) {
    const BlockRecord* record = blocks_.Find(block);
    if (record != nullptr) {
      (void)state_.AdjustMediumRemaining(target, record->length);
    }
    pending_moves_.erase(move);
  }
  inflight_copies_.erase({block, target});
  // Scrub the matching queued command: once the monitor reschedules the
  // repair, a late delivery of the old command must not execute a second,
  // untracked copy.
  const MediumInfo* m = state_.FindMedium(target);
  if (m == nullptr) return;
  auto queue = command_queues_.find(m->worker);
  if (queue == command_queues_.end()) return;
  auto& commands = queue->second;
  commands.erase(
      std::remove_if(commands.begin(), commands.end(),
                     [&](const QueuedCommand& queued) {
                       return queued.command.kind ==
                                  WorkerCommand::Kind::kCopyReplica &&
                              queued.command.block == block &&
                              queued.command.target_medium == target;
                     }),
      commands.end());
  if (commands.empty()) command_queues_.erase(queue);
}

void Master::ClassifyBlockLocked(const BlockRecord& record) {
  std::vector<MediumId> live = LiveLocations(record);
  const ReplicationVector& rv = record.expected;

  // Per-tier replica counts. Replicas on draining workers are tracked
  // separately: still readable (and the best copy sources) but no longer
  // counting toward the replication factor — their deficits drive
  // decommission-priority copies. Scheduled-but-unconfirmed copies count
  // so repeated rounds do not double-schedule.
  std::array<int, 8> actual{};
  std::array<int, 8> draining{};
  std::vector<MediumId> draining_media;
  for (MediumId m : live) {
    const MediumInfo* info = state_.FindMedium(m);
    if (info == nullptr) continue;
    if (state_.WorkerDraining(info->worker)) {
      draining[info->tier & 7]++;
      draining_media.push_back(m);
    } else {
      actual[info->tier & 7]++;
    }
  }
  bool copies_in_flight = false;
  int inflight_count = 0;
  for (const auto& [key, when] : inflight_copies_) {
    if (key.first != record.id) continue;
    const MediumInfo* info = state_.FindMedium(key.second);
    if (info == nullptr || !state_.MediumLive(key.second)) continue;
    copies_in_flight = true;
    ++inflight_count;
    actual[info->tier & 7]++;
  }

  if (live.empty()) {
    // Nothing to copy from; if every replica is gone the block is lost
    // (lineage/erasure recovery is out of scope, as in stock HDFS).
    repair_.ClearBackoff(record.id);
    return;
  }

  int total_actual = 0;
  int total_expected = rv.unspecified();
  for (TierId t = 0; t < kMaxTiers; ++t) {
    total_actual += actual[t];
    total_expected += rv.Get(t);
  }
  // One live replica anywhere (draining ones included — they still hold
  // the bytes) means data loss is one failure away.
  bool last_replica = static_cast<int>(live.size()) + inflight_count <= 1;

  int copies_needed = 0;
  auto classify_copy = [&](TierId entry_tier, bool drain_covered) {
    RepairWork work;
    work.block = record.id;
    work.tier = entry_tier;
    RepairPriority base;
    if (last_replica) {
      base = RepairPriority::kLastReplica;
    } else if (drain_covered) {
      base = RepairPriority::kDecommission;
    } else if (total_actual >= total_expected) {
      // The count is right, the tiers are wrong: a migration (the
      // tiering engine's vector edits land here).
      base = RepairPriority::kMisTiered;
    } else {
      base = RepairPriority::kUnderReplicated;
    }
    work.priority = repair_.EscalatedPriority(record.id, base);
    repair_.Enqueue(work);
    ++copies_needed;
  };

  // 1. Deficits on explicitly requested tiers.
  for (TierId t = 0; t < kMaxTiers; ++t) {
    int deficit = rv.Get(t) - actual[t];
    int drain_cover = std::min(deficit, draining[t]);
    for (int d = 0; d < deficit; ++d) {
      classify_copy(t, d < drain_cover);
    }
  }
  // 2. Surplus replicas beyond each tier's request count toward U.
  int total_extra = 0;
  int draining_spare = 0;
  for (TierId t = 0; t < kMaxTiers; ++t) {
    total_extra += std::max(0, actual[t] - rv.Get(t));
    draining_spare += std::max(0, draining[t] - std::max(0, rv.Get(t) -
                                                                actual[t]));
  }
  int u_deficit = rv.unspecified() - total_extra;
  int drain_cover_u = std::min(std::max(0, u_deficit), draining_spare);
  for (int d = 0; d < u_deficit; ++d) {
    classify_copy(kUnspecifiedTier, d < drain_cover_u);
  }

  if (copies_needed == 0 && !copies_in_flight) {
    // Healthy (possibly over-replicated): forget any failure history.
    repair_.ClearBackoff(record.id);
  }

  // 3. Over-replication: trim, but never while copies of this block are
  // unconfirmed — including ones classified just above: the replica to
  // be dropped may be the only usable copy source. The trim happens on a
  // later round, once the copies land (HDFS likewise never invalidates a
  // re-replication source).
  if (copies_in_flight || copies_needed > 0) return;
  int excess = -u_deficit;
  for (int i = 0; i < excess; ++i) {
    RepairWork work;
    work.block = record.id;
    work.priority = RepairPriority::kOverReplicated;
    work.is_trim = true;
    repair_.Enqueue(work);
  }
  // 4. Drain trims: every requirement is met by in-service replicas
  // alone, so replicas still sitting on draining workers are now
  // redundant — delete them so the drain can finish.
  for (MediumId m : draining_media) {
    RepairWork work;
    work.block = record.id;
    work.priority = RepairPriority::kDecommission;
    work.is_trim = true;
    work.drain = true;
    work.victim = m;
    repair_.Enqueue(work);
  }
}

int Master::DispatchCopyLocked(const RepairWork& work) {
  const BlockRecord* record = blocks_.Find(work.block);
  if (record == nullptr) return 0;
  int64_t now = clock_->NowMicros();
  if (repair_.InBackoff(work.block, now)) {
    ++repair_.stats().backoff_deferred;
    return 0;
  }
  std::vector<MediumId> live = LiveLocations(*record);
  if (live.empty()) return 0;
  // Exclude from placement: every existing replica, every in-flight
  // target, and every target still cooling down after an expired copy
  // (the expired copy may yet land; re-picking the same target would
  // double-queue). Draining media are excluded by the placement indexes
  // themselves.
  std::vector<MediumId> existing = live;
  for (const auto& [key, when] : inflight_copies_) {
    if (key.first == work.block) existing.push_back(key.second);
  }
  for (MediumId m : repair_.CooldownTargets(work.block, now)) {
    existing.push_back(m);
  }
  PlacementRequest request;
  request.rep_vector.Set(work.tier, 1);
  request.block_size = record->length;
  request.existing = std::move(existing);
  // Scheduled-size accounting (as in HDFS): charge every in-flight
  // repair copy's bytes against its target medium for the duration of
  // this placement decision. Concurrent repairs then spread across
  // targets instead of piling onto the emptiest medium, and a medium
  // cannot be over-committed by copies that have not landed yet.
  std::vector<std::pair<MediumId, int64_t>> charged;
  charged.reserve(repair_.medium_bytes_inflight().size());
  for (const auto& [m, bytes] : repair_.medium_bytes_inflight()) {
    if (state_.AdjustMediumRemaining(m, -bytes).ok()) {
      charged.emplace_back(m, bytes);
    }
  }
  auto placed = placement_->PlaceReplicas(state_, request, &rng_);
  for (const auto& [m, bytes] : charged) {
    (void)state_.AdjustMediumRemaining(m, bytes);
  }
  if (!placed.ok() || placed->empty()) return 0;
  MediumId target = placed->front();
  const MediumInfo* target_info = state_.FindMedium(target);
  if (target_info == nullptr) return 0;
  if (!repair_.CanDispatch(target_info->worker, target, record->length)) {
    // Budget full: drop the item; the next round re-derives and retries
    // it once completions free the budget. Deferral is visible, never a
    // silent loss.
    ++repair_.stats().deferred;
    return 0;
  }
  WorkerCommand cmd;
  cmd.kind = WorkerCommand::Kind::kCopyReplica;
  cmd.block = record->id;
  cmd.target_medium = target;
  cmd.genstamp = record->genstamp;
  cmd.repair_priority = static_cast<int8_t>(work.priority);
  // The receiving worker copies from the most efficient source
  // (paper §5: the new host "will utilize the data retrieval policy").
  cmd.sources =
      retrieval_->OrderReplicas(state_, target_info->location, live, &rng_);
  QueueCommand(target, std::move(cmd));
  inflight_copies_[{record->id, target}] = now;
  repair_.NoteDispatched(record->id, target, target_info->worker,
                         record->length, work.priority, now);
  return 1;
}

int Master::DispatchTrimLocked(const RepairWork& work) {
  const BlockRecord* record = blocks_.Find(work.block);
  if (record == nullptr) return 0;
  MediumId victim = kInvalidMedium;
  if (work.drain) {
    // The victim was chosen at classification time: a redundant replica
    // on a draining worker.
    if (std::find(record->locations.begin(), record->locations.end(),
                  work.victim) == record->locations.end()) {
      return 0;
    }
    victim = work.victim;
  } else {
    // Re-derive the surplus victim from current state: earlier trims of
    // the same block in this round already shrank its location list.
    const ReplicationVector& rv = record->expected;
    std::vector<MediumId> live;
    std::array<int, 8> actual{};
    for (MediumId m : LiveLocations(*record)) {
      const MediumInfo* info = state_.FindMedium(m);
      if (info == nullptr || state_.WorkerDraining(info->worker)) continue;
      live.push_back(m);
      actual[info->tier & 7]++;
    }
    int total_extra = 0;
    for (TierId t = 0; t < kMaxTiers; ++t) {
      total_extra += std::max(0, actual[t] - rv.Get(t));
    }
    if (rv.unspecified() - total_extra >= 0) return 0;  // no longer surplus
    // Drop from the tier with the largest surplus (paper §5: evaluate
    // each removal with Eq. 11, keep the best set).
    TierId victim_tier = kUnspecifiedTier;
    int max_extra = 0;
    for (TierId t = 0; t < kMaxTiers; ++t) {
      int extra = actual[t] - rv.Get(t);
      if (extra > max_extra) {
        max_extra = extra;
        victim_tier = t;
      }
    }
    if (victim_tier == kUnspecifiedTier) return 0;
    auto selected =
        SelectReplicaToRemove(state_, live, victim_tier, record->length);
    if (!selected.ok()) return 0;
    victim = *selected;
  }
  WorkerCommand cmd;
  cmd.kind = WorkerCommand::Kind::kDeleteReplica;
  cmd.block = record->id;
  cmd.target_medium = victim;
  cmd.repair_priority = static_cast<int8_t>(work.priority);
  QueueCommand(victim, std::move(cmd));
  OCTO_CHECK_OK(blocks_.RemoveReplica(record->id, victim));
  (void)state_.AdjustMediumRemaining(victim, record->length);
  if (work.drain) {
    ++repair_.stats().drained_replicas;
  } else {
    ++repair_.stats().trims;
  }
  return 1;
}

int Master::DispatchRepairsLocked() {
  int commands = 0;
  RepairWork work;
  while (repair_.PopNext(&work)) {
    commands += work.is_trim ? DispatchTrimLocked(work)
                             : DispatchCopyLocked(work);
  }
  return commands;
}

int Master::ReconcileBlock(const BlockRecord& record) {
  ClassifyBlockLocked(record);
  return DispatchRepairsLocked();
}

int Master::RunReplicationMonitor() {
  std::lock_guard<std::mutex> service(service_mu_);
  return RunReplicationMonitorLocked();
}

int Master::RunReplicationMonitorLocked() {
  // Re-replication decisions made on a partial block map would copy and
  // delete the wrong things; wait for safe-mode exit.
  if (in_safe_mode()) return 0;
  ExpireInflight();
  // Phase 1: classify every block into the scheduler's priority buckets
  // (transient — re-derived from block-map ground truth each round, so
  // the queue can never go stale).
  repair_.ClearQueue();
  std::vector<BlockId> ids;
  blocks_.ForEach(
      [&ids](const BlockRecord& record) { ids.push_back(record.id); });
  for (BlockId id : ids) {
    // Re-find each round: pruning mutates location lists.
    BlockRecord* record = blocks_.FindMutable(id);
    if (record == nullptr) continue;
    PruneDeadReplicas(record);
    ClassifyBlockLocked(*record);
  }
  // Phase 2: one dispatch pass over all queued work in global priority
  // order — a last-replica block anywhere beats every decommission
  // drain, which beats plain under-replication, and so on — under the
  // per-worker / per-medium budgets.
  int commands = DispatchRepairsLocked();
  AdvanceDrainsLocked();
  return commands;
}

void Master::AdvanceDrainsLocked() {
  for (auto& [id, admin] : admin_states_) {
    if (admin != WorkerAdminState::kDecommissioning) continue;
    bool empty = true;
    for (MediumId m : state_.MediaOnWorker(id)) {
      if (!blocks_.BlocksOnMedium(m).empty()) {
        empty = false;
        break;
      }
    }
    if (empty) {
      admin = WorkerAdminState::kDecommissioned;
      OCTO_LOG(Info) << "worker " << id
                     << " fully drained; decommission complete";
    }
  }
}

Status Master::CommitReplica(BlockId block, MediumId medium) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (inflight_copies_.erase({block, medium}) > 0) {
    repair_.NoteCompleted(block, medium);
  }
  Status st = blocks_.AddReplica(block, medium);
  if (!st.ok() && !st.IsAlreadyExists()) return st;
  const BlockRecord* record = blocks_.Find(block);
  // Replica moves reserved the target's space at scheduling time.
  bool is_move = pending_moves_.count({block, medium}) > 0;
  if (st.ok() && record != nullptr && !is_move) {
    (void)state_.AdjustMediumRemaining(medium, -record->length);
  }
  // Complete a pending replica move: now that the copy is safe, drop the
  // source replica.
  auto move = pending_moves_.find({block, medium});
  if (move != pending_moves_.end()) {
    MediumId source = move->second;
    pending_moves_.erase(move);
    if (blocks_.RemoveReplica(block, source).ok()) {
      if (record != nullptr) {
        (void)state_.AdjustMediumRemaining(source, record->length);
      }
      WorkerCommand cmd;
      cmd.kind = WorkerCommand::Kind::kDeleteReplica;
      cmd.block = block;
      cmd.target_medium = source;
      QueueCommand(source, std::move(cmd));
    }
  } else if (record != nullptr) {
    // Follow-up reconcile: over-replication deletions deferred while this
    // copy was in flight can proceed now that it is confirmed.
    ReconcileBlock(*record);
  }
  return Status::OK();
}

Status Master::ScheduleReplicaMove(BlockId block, MediumId from) {
  OCTO_RETURN_IF_ERROR(CheckNotInSafeMode("replica move"));
  std::lock_guard<std::mutex> service(service_mu_);
  const BlockRecord* record = blocks_.Find(block);
  if (record == nullptr) {
    return Status::NotFound("block " + std::to_string(block));
  }
  if (std::find(record->locations.begin(), record->locations.end(), from) ==
      record->locations.end()) {
    return Status::NotFound("block " + std::to_string(block) +
                            " has no replica on medium " +
                            std::to_string(from));
  }
  const MediumInfo* from_info = state_.FindMedium(from);
  if (from_info == nullptr) {
    return Status::NotFound("medium " + std::to_string(from));
  }
  // One in-flight move per block keeps the bookkeeping simple.
  for (const auto& [key, source] : pending_moves_) {
    if (key.first == block) {
      return Status::AlreadyExists("block " + std::to_string(block) +
                                   " already has a move in flight");
    }
  }
  PlacementRequest request;
  request.rep_vector.Set(from_info->tier, 1);  // stay within the tier
  request.block_size = record->length;
  request.existing = record->locations;
  OCTO_ASSIGN_OR_RETURN(std::vector<MediumId> placed,
                        placement_->PlaceReplicas(state_, request, &rng_));
  if (placed.empty()) {
    return Status::NoSpace("no target medium for moving block " +
                           std::to_string(block));
  }
  MediumId target = placed.front();
  const MediumInfo* target_info = state_.FindMedium(target);
  // Rebalancer moves are the least urgent byte movement there is: they
  // share the repair budgets and yield when repair work has them busy.
  if (target_info != nullptr &&
      !repair_.CanDispatch(target_info->worker, target, record->length)) {
    ++repair_.stats().deferred;
    return Status::Unavailable("repair budget exhausted for worker " +
                               std::to_string(target_info->worker) +
                               "; retry the move later");
  }
  WorkerCommand cmd;
  cmd.kind = WorkerCommand::Kind::kCopyReplica;
  cmd.block = block;
  cmd.target_medium = target;
  cmd.genstamp = record->genstamp;
  cmd.repair_priority = static_cast<int8_t>(RepairPriority::kMisTiered);
  cmd.sources = retrieval_->OrderReplicas(
      state_,
      target_info != nullptr ? target_info->location : NetworkLocation(),
      LiveLocations(*record), &rng_);
  QueueCommand(target, std::move(cmd));
  int64_t now = clock_->NowMicros();
  inflight_copies_[{block, target}] = now;
  if (target_info != nullptr) {
    repair_.NoteDispatched(block, target, target_info->worker, record->length,
                           RepairPriority::kMisTiered, now);
  }
  pending_moves_[{block, target}] = from;
  // Reserve the target's space now so moves scheduled in the same pass
  // spread across targets instead of piling onto one medium.
  (void)state_.AdjustMediumRemaining(target, -record->length);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transfer accounting

void Master::NoteTransferStarted(WorkerId worker, MediumId medium) {
  std::lock_guard<std::mutex> service(service_mu_);
  state_.AddWorkerConnections(worker, +1);
  state_.AddMediumConnections(medium, +1);
}

void Master::NoteTransferEnded(WorkerId worker, MediumId medium) {
  std::lock_guard<std::mutex> service(service_mu_);
  state_.AddWorkerConnections(worker, -1);
  state_.AddMediumConnections(medium, -1);
}

// ---------------------------------------------------------------------------
// Recovery

Status Master::LoadImage(const std::string& image,
                         const std::vector<std::string>& edit_entries,
                         int64_t edits_from) {
  return LoadImageInternal(image, edit_entries, edits_from,
                           FsImage::Mode::kStrict, ReplayMode::kStrict);
}

Status Master::LoadImageInternal(const std::string& image,
                                 const std::vector<std::string>& edit_entries,
                                 int64_t edits_from, FsImage::Mode image_mode,
                                 ReplayMode replay_mode) {
  // Replaces the whole namespace and block map: exclude everything.
  auto oplock = nslocks_.LockStructural();
  std::lock_guard<std::mutex> service(service_mu_);
  auto tree = std::make_unique<NamespaceTree>(clock_);
  tree->EnablePermissions(options_.enable_permissions);
  OCTO_RETURN_IF_ERROR(FsImage::Deserialize(image, tree.get(), image_mode));
  EditReplayInfo replay_info;
  OCTO_RETURN_IF_ERROR(EditLog::Replay(edit_entries, edits_from, tree.get(),
                                       &replay_info, replay_mode));
  if (replay_info.skipped_records > 0 || replay_info.rename_fixups > 0) {
    OCTO_LOG(Info) << "recovery replay absorbed "
                   << replay_info.skipped_records
                   << " already-applied record(s) and "
                   << replay_info.rename_fixups << " rename fixup(s)";
  }
  tree_ = std::move(tree);
  if (replay_info.max_epoch > epoch()) {
    epoch_.store(replay_info.max_epoch, std::memory_order_relaxed);
  }
  if (replay_info.max_genstamp > current_genstamp()) {
    genstamp_.store(replay_info.max_genstamp, std::memory_order_relaxed);
  }
  // Rebuild block records from the namespace; replica locations repopulate
  // from worker block reports. Files still under construction get their
  // write lease re-acquired (journaled holder when available, a synthetic
  // one otherwise — it expires and the file is force-completed, the HDFS
  // lease-recovery endgame).
  blocks_.Reset();
  leases_.Clear();
  Status status = Status::OK();
  tree_->Visit([this, &replay_info, &status](
                   const NamespaceTree::VisitEntry& e) {
    if (e.status.is_dir || !status.ok()) return;
    for (const BlockInfo& info : e.blocks) {
      BlockRecord record;
      record.id = info.id;
      record.file = e.status.path;
      record.file_id = e.status.file_id;
      record.length = info.length;
      record.genstamp = info.genstamp;
      record.expected = e.status.rep_vector;
      // The allocator must clear every stamp in use, even ones whose
      // GENSTAMP record was folded into the checkpoint.
      if (info.genstamp > current_genstamp()) {
        genstamp_.store(info.genstamp, std::memory_order_relaxed);
      }
      Status st = blocks_.AddBlock(std::move(record));
      if (!st.ok()) status = st;
    }
    if (e.status.under_construction) {
      auto holder = replay_info.lease_holders.find(e.status.path);
      std::string name = holder != replay_info.lease_holders.end() &&
                                 !holder->second.empty()
                             ? holder->second
                             : "lease-recovery";
      Status st = leases_.Acquire(e.status.path, name);
      if (!st.ok()) status = st;
    }
  });
  pending_blocks_.clear();
  inflight_copies_.clear();
  pending_moves_.clear();
  command_queues_.clear();
  deferred_orphans_.clear();
  lost_blocks_.clear();
  // The block map the scheduler mirrored is gone; budgets, backoff, and
  // cooldowns with it. Admin states too: operators re-issue drains
  // against the recovered master.
  repair_.Reset();
  admin_states_.clear();
  // Until the surviving workers re-report, every replica location is
  // unknown: hold off on placement and re-replication decisions.
  safe_mode_block_target_.store(blocks_.NumBlocks(),
                                std::memory_order_relaxed);
  safe_mode_.store(safe_mode_block_target_.load(std::memory_order_relaxed) > 0,
                   std::memory_order_relaxed);
  return status;
}

Status Master::CommitJournal() {
  Status st = log_->Commit();
  if (st.ok()) return st;
  if (!journal_failed_.exchange(true, std::memory_order_relaxed)) {
    OCTO_LOG(Error) << "journal commit failed, fail-stopping into safe mode: "
                    << st.ToString();
  }
  // The edit the caller was about to ack is not durable. Refusing all
  // further mutations (and never acking this one) keeps the invariant
  // that every acked edit survives recovery.
  safe_mode_.store(true, std::memory_order_relaxed);
  return st;
}

void Master::RecordRenameForCheckpoint(const std::string& src,
                                       const std::string& dst) {
  if (!checkpoint_active_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  checkpoint_renames_.emplace_back(src, dst);
}

Result<int64_t> Master::WriteCheckpoint() {
  if (images_ == nullptr) {
    return Status::FailedPrecondition(
        "checkpointing requires a metadata_dir");
  }
  bool expected = false;
  if (!checkpoint_active_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("a checkpoint is already running");
  }
  // Arms the clean-up on every early return; disarmed before the normal
  // clear (which must happen under the structural lock, see below).
  bool active = true;
  auto clear_active = [&] {
    if (active) checkpoint_active_.store(false, std::memory_order_release);
    active = false;
  };
  // Pre-pay the finalize fsync: RollSegment below always fdatasyncs the
  // closing segment, and after a long steady window that can be tens of
  // MB of dirty page cache — paid under the structural lock, it would be
  // the longest mutation stall of the whole checkpoint. Syncing here
  // (no locks held) shrinks the in-lock sync to the records that arrive
  // in between.
  if (Status st = log_->SyncToDisk(); !st.ok()) {
    clear_active();
    return st;
  }
  int64_t txid = 0;
  {
    // Brief structural section: every mutation journaled before this
    // point sits in segments below `txid`; everything after lands in the
    // new segment AND is either visible to the walk below or re-applied
    // by the recovery tail replay.
    auto oplock = nslocks_.LockStructural();
    {
      std::lock_guard<std::mutex> lock(checkpoint_mu_);
      checkpoint_renames_.clear();
    }
    auto rolled = log_->RollSegment();
    if (!rolled.ok()) {
      clear_active();
      return rolled.status();
    }
    txid = *rolled;
  }
  // Chunked walk: one directory at a time under its own shared per-path
  // lock, which pins the directory's stripe and so its child map — all
  // other namespace operations proceed concurrently. A directory deleted
  // (or renamed away) between being queued and visited just drops out;
  // the journal tail carries whatever happened to it.
  std::string image = FsImage::Header();
  const auto emit = [&image](const NamespaceTree::VisitEntry& entry) {
    FsImage::AppendEntry(&image, entry);
  };
  std::vector<std::string> pending_dirs;
  pending_dirs.push_back("/");
  constexpr size_t kImageHeadroom = size_t{8} << 20;
  while (!pending_dirs.empty()) {
    std::string dir = std::move(pending_dirs.back());
    pending_dirs.pop_back();
    // Grow the image buffer out here: a doubling realloc of a
    // hundred-MB image inside SnapshotDirectory would hold the
    // directory's stripe for the whole copy and surface as a mutation
    // stall on everything sharing it.
    if (image.capacity() - image.size() < kImageHeadroom) {
      image.reserve(
          std::max(image.capacity() * 2, image.size() + 2 * kImageHeadroom));
    }
    auto oplock = nslocks_.Lock(dir, NamespaceLockManager::OpMode::kRead);
    Status st = tree_->SnapshotDirectory(dir, emit, &pending_dirs);
    if (!st.ok() && !st.IsNotFound()) {
      clear_active();
      return st;
    }
  }
  {
    // Post-walk patch: a subtree renamed while the walk ran may have
    // moved from a not-yet-visited source into an already-visited
    // destination, in which case the walk missed it entirely — and the
    // tail's RENAME record alone cannot recreate it. Re-serialize every
    // such destination subtree; the fuzzy deserializer treats these
    // later lines as authoritative. Renames committing after this
    // section are ordinary post-checkpoint edits handled by tail replay.
    auto oplock = nslocks_.LockStructural();
    std::vector<std::pair<std::string, std::string>> renames;
    {
      std::lock_guard<std::mutex> lock(checkpoint_mu_);
      renames.swap(checkpoint_renames_);
    }
    for (const auto& [src, dst] : renames) {
      Status st = tree_->VisitSubtree(dst, emit);
      if (!st.ok() && !st.IsNotFound()) {
        clear_active();
        return st;
      }
    }
    clear_active();
  }
  OCTO_RETURN_IF_ERROR(images_->WriteImage(txid, image));
  // Read-back verification before this image is allowed to gate a journal
  // purge: an image corrupted on write (kImageCorrupt) otherwise becomes
  // a retained fallback that cannot actually be loaded — and if it is the
  // *oldest* retained image, the purge below destroys the only journal
  // prefix a from-scratch replay would need. Recovery skips the damaged
  // file either way; the purge must not trust it.
  if (auto verified = images_->ReadImage(txid); !verified.ok()) {
    return verified.status();
  }
  log_->MarkCheckpointed(txid);
  // Segments below the *oldest* retained image stay unreachable by every
  // fallback chain and can go.
  int64_t floor = images_->OldestRetainedTxid();
  if (floor > 0) {
    OCTO_RETURN_IF_ERROR(log_->PurgeSegmentsBefore(floor));
  }
  return txid;
}

Status Master::RecoverFromLocalStorage() {
  if (images_ == nullptr) {
    return Status::FailedPrecondition("recovery requires a metadata_dir");
  }
  Status last_error = Status::OK();
  for (int64_t txid : images_->ListImages()) {  // newest first
    auto image = images_->ReadImage(txid);
    if (!image.ok()) {
      OCTO_LOG(Warn) << "checkpoint image at txid " << txid
                     << " failed verification ("
                     << image.status().ToString()
                     << "); falling back to an older image";
      last_error = image.status();
      continue;
    }
    std::vector<std::string> tail;
    int64_t start = log_->ReadEntries(txid, &tail);
    if (start > txid) {
      // The journal records this image needs were purged; only an older
      // (already tried, newer) image could have covered them.
      last_error = Status::Corruption(
          "journal starts at txid " + std::to_string(start) +
          ", image at " + std::to_string(txid) + " cannot be completed");
      continue;
    }
    Status st = LoadImageInternal(*image, tail, 0, FsImage::Mode::kFuzzy,
                                  ReplayMode::kRecovery);
    if (!st.ok()) {
      last_error = st;
      continue;
    }
    log_->MarkCheckpointed(txid);
    return Status::OK();
  }
  if (log_->base_txid() == 0) {
    // No usable image. With the full journal on disk the namespace is
    // still reconstructible from scratch.
    std::vector<std::string> all;
    log_->ReadEntries(0, &all);
    Status st = LoadImageInternal(FsImage::Header(), all, 0,
                                  FsImage::Mode::kFuzzy,
                                  ReplayMode::kRecovery);
    if (st.ok()) return st;
    last_error = st;
  }
  return last_error.ok()
             ? Status::Corruption("no usable checkpoint image or journal")
             : last_error;
}

void Master::InstallDurabilityFaults(fault::FaultRegistry* registry) {
  if (registry == nullptr) return;
  // The registry is not thread-safe; journal writes (any mutator thread)
  // and image writes (the checkpoint thread) may consult concurrently,
  // so both hooks share one mutex.
  auto mu = std::make_shared<std::mutex>();
  log_->SetWriteFaultHook([registry, mu]() {
    std::lock_guard<std::mutex> lock(*mu);
    fault::FaultRegistry::JournalFault f = registry->CheckJournalWrite();
    return EditLog::WriteFault{f.status, f.torn_bytes};
  });
  if (images_ != nullptr) {
    images_->SetWriteFaultHook([registry, mu]() {
      std::lock_guard<std::mutex> lock(*mu);
      fault::FaultRegistry::ImageFault f = registry->CheckImageWrite();
      return ImageStore::WriteFault{f.corrupt, f.crash_before_rename};
    });
  }
}

void Master::NoteEpochFloor(uint64_t floor) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (floor > epoch()) epoch_.store(floor, std::memory_order_relaxed);
}

void Master::BumpEpoch() {
  {
    std::lock_guard<std::mutex> service(service_mu_);
    uint64_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
    log_->LogEpoch(epoch);
  }
  // A takeover with a failing journal still proceeds (the epoch is
  // already effective in memory and stamped on commands); the master is
  // fail-stopped for namespace mutations by CommitJournal's latch.
  Status st = CommitJournal();
  if (!st.ok()) {
    OCTO_LOG(Warn) << "epoch bump not durable: " << st.ToString();
  }
}

void Master::NoteGenstampFloor(uint64_t floor) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (floor > current_genstamp()) {
    genstamp_.store(floor, std::memory_order_relaxed);
  }
}

uint64_t Master::NextGenstamp() {
  uint64_t genstamp = genstamp_.fetch_add(1, std::memory_order_relaxed) + 1;
  log_->LogGenstamp(genstamp);
  return genstamp;
}

Status Master::CheckNotInSafeMode(const char* op) const {
  if (journal_failed()) {
    return Status::Unavailable(std::string(op) +
                               " rejected: journal write failed (" +
                               log_->last_io_error().ToString() +
                               "); master is fail-stopped");
  }
  if (!in_safe_mode()) return Status::OK();
  return Status::Unavailable(
      std::string(op) + " rejected: master in safe mode (" +
      std::to_string(SafeModeReportedFraction() * 100.0) + "% of " +
      std::to_string(safe_mode_block_target_.load(std::memory_order_relaxed)) +
      " blocks reported)");
}

double Master::SafeModeReportedFraction() const {
  int64_t target = safe_mode_block_target_.load(std::memory_order_relaxed);
  if (!in_safe_mode() || target <= 0) return 1.0;
  int64_t reported = 0;
  blocks_.ForEach([&reported](const BlockRecord& record) {
    if (!record.locations.empty()) ++reported;
  });
  return static_cast<double>(reported) / static_cast<double>(target);
}

void Master::MaybeExitSafeMode() {
  if (!in_safe_mode()) return;
  if (journal_failed()) return;  // fail-stopped; reports cannot lift it
  if (SafeModeReportedFraction() + 1e-12 < options_.safe_mode_threshold) {
    return;
  }
  LeaveSafeMode();
}

void Master::ForceExitSafeMode() {
  std::lock_guard<std::mutex> service(service_mu_);
  if (journal_failed()) return;  // fail-stopped; not even -safemode leave
  if (in_safe_mode()) LeaveSafeMode();
}

void Master::LeaveSafeMode() {
  safe_mode_.store(false, std::memory_order_relaxed);
  // Reconcile what reconstruction found. Replicas reported for blocks the
  // namespace never legitimized are true orphans now: scrub them.
  for (const auto& [medium, block] : deferred_orphans_) {
    const BlockRecord* record = blocks_.Find(block);
    if (record != nullptr &&
        std::find(record->locations.begin(), record->locations.end(),
                  medium) != record->locations.end()) {
      continue;  // adopted by a later report after all
    }
    WorkerCommand cmd;
    cmd.kind = WorkerCommand::Kind::kDeleteReplica;
    cmd.block = block;
    cmd.target_medium = medium;
    QueueCommand(medium, std::move(cmd));
  }
  deferred_orphans_.clear();
  // Blocks nobody reported are lost (no source to re-replicate from);
  // under-replicated ones are queued for repair by the monitor below.
  lost_blocks_.clear();
  blocks_.ForEach([this](const BlockRecord& record) {
    if (record.locations.empty()) lost_blocks_.push_back(record.id);
  });
  if (!lost_blocks_.empty()) {
    OCTO_LOG(Warn) << "safe mode exit: " << lost_blocks_.size()
                   << " block(s) have no reported replica (lost)";
  }
  RunReplicationMonitorLocked();
}

int Master::NumQueuedCommands() const {
  std::lock_guard<std::mutex> service(service_mu_);
  int n = 0;
  for (const auto& [worker, commands] : command_queues_) {
    n += static_cast<int>(commands.size());
  }
  return n;
}

std::vector<std::pair<BlockId, MediumId>> Master::InflightCopiesForTest()
    const {
  std::lock_guard<std::mutex> service(service_mu_);
  std::vector<std::pair<BlockId, MediumId>> out;
  out.reserve(inflight_copies_.size());
  for (const auto& [key, when] : inflight_copies_) out.push_back(key);
  return out;
}

std::vector<WorkerCommand> Master::QueuedCommandsForTest(
    WorkerId worker) const {
  std::lock_guard<std::mutex> service(service_mu_);
  std::vector<WorkerCommand> out;
  auto it = command_queues_.find(worker);
  if (it != command_queues_.end()) {
    out.reserve(it->second.size());
    for (const QueuedCommand& queued : it->second) {
      out.push_back(queued.command);
    }
  }
  return out;
}

RepairStats Master::repair_stats() const {
  std::lock_guard<std::mutex> service(service_mu_);
  return repair_.stats();
}

int Master::RepairInflightForWorker(WorkerId worker) const {
  std::lock_guard<std::mutex> service(service_mu_);
  return repair_.WorkerInflight(worker);
}

int64_t Master::NextRepairRetryMicros() const {
  std::lock_guard<std::mutex> service(service_mu_);
  return repair_.NextRetryMicros(clock_->NowMicros());
}

// ---------------------------------------------------------------------------
// Worker lifecycle (graceful decommission / maintenance)

Status Master::StartDecommission(WorkerId worker) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (state_.FindWorker(worker) == nullptr) {
    return Status::NotFound("worker " + std::to_string(worker));
  }
  WorkerAdminState& admin = admin_states_[worker];
  if (admin == WorkerAdminState::kDecommissioned) {
    return Status::FailedPrecondition("worker " + std::to_string(worker) +
                                      " is already decommissioned");
  }
  admin = WorkerAdminState::kDecommissioning;
  OCTO_RETURN_IF_ERROR(state_.SetWorkerDraining(worker, true));
  OCTO_LOG(Info) << "worker " << worker << " decommissioning";
  return Status::OK();
}

Status Master::StartMaintenance(WorkerId worker) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (state_.FindWorker(worker) == nullptr) {
    return Status::NotFound("worker " + std::to_string(worker));
  }
  WorkerAdminState& admin = admin_states_[worker];
  if (admin == WorkerAdminState::kDecommissioned) {
    return Status::FailedPrecondition("worker " + std::to_string(worker) +
                                      " is already decommissioned");
  }
  admin = WorkerAdminState::kMaintenance;
  OCTO_RETURN_IF_ERROR(state_.SetWorkerDraining(worker, true));
  OCTO_LOG(Info) << "worker " << worker << " entering maintenance";
  return Status::OK();
}

Status Master::Recommission(WorkerId worker) {
  std::lock_guard<std::mutex> service(service_mu_);
  if (state_.FindWorker(worker) == nullptr) {
    return Status::NotFound("worker " + std::to_string(worker));
  }
  admin_states_.erase(worker);
  OCTO_RETURN_IF_ERROR(state_.SetWorkerDraining(worker, false));
  OCTO_LOG(Info) << "worker " << worker << " back in service";
  return Status::OK();
}

WorkerAdminState Master::worker_admin_state(WorkerId worker) const {
  std::lock_guard<std::mutex> service(service_mu_);
  auto it = admin_states_.find(worker);
  return it == admin_states_.end() ? WorkerAdminState::kInService
                                   : it->second;
}

bool Master::WorkerDrained(WorkerId worker) const {
  std::lock_guard<std::mutex> service(service_mu_);
  for (MediumId m : state_.MediaOnWorker(worker)) {
    if (!blocks_.BlocksOnMedium(m).empty()) return false;
  }
  return true;
}

}  // namespace octo

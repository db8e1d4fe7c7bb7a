#include "cluster/cluster.h"

#include "common/logging.h"
#include "common/units.h"
#include "fault/fault.h"

namespace octo {

ClusterSpec PaperClusterSpec() {
  ClusterSpec spec;
  spec.num_racks = 3;
  spec.workers_per_rack = 3;
  spec.net_bps = 1.25e9;  // 10 Gbps
  // Table 2 rates; capacities from §7: 4 GB memory, 64 GB SSD, 400 GB of
  // HDD space spread over three drives per worker.
  MediumSpec memory{kMemoryTier, MediaType::kMemory, 4 * kGiB,
                    FromMBps(1897.4), FromMBps(3224.8)};
  MediumSpec ssd{kSsdTier, MediaType::kSsd, 64 * kGiB, FromMBps(340.6),
                 FromMBps(419.5)};
  MediumSpec hdd{kHddTier, MediaType::kHdd, 400 * kGiB / 3, FromMBps(126.3),
                 FromMBps(177.1)};
  spec.media_per_worker = {memory, ssd, hdd, hdd, hdd};
  return spec;
}

namespace {

void DefineCanonicalTiers(Master* master) {
  // The canonical four tiers; only those with registered media activate.
  master->DefineTier({kMemoryTier, "Memory", MediaType::kMemory});
  master->DefineTier({kSsdTier, "SSD", MediaType::kSsd});
  master->DefineTier({kHddTier, "HDD", MediaType::kHdd});
  master->DefineTier({kRemoteTier, "Remote", MediaType::kRemote});
}

}  // namespace

Result<std::unique_ptr<Cluster>> Cluster::Create(const ClusterSpec& spec) {
  if (spec.num_racks < 1 || spec.workers_per_rack < 1) {
    return Status::InvalidArgument("cluster needs at least one worker");
  }
  if (spec.media_per_worker.empty()) {
    return Status::InvalidArgument("workers need at least one medium");
  }
  auto cluster = std::unique_ptr<Cluster>(new Cluster);
  if (spec.with_simulation) {
    cluster->sim_ = std::make_unique<sim::Simulation>();
  }
  Clock* clock = cluster->sim_ != nullptr
                     ? cluster->sim_->clock()
                     : static_cast<Clock*>(SystemClock::Default());
  cluster->clock_ = clock;
  cluster->master_options_ = spec.master;
  cluster->master_ = std::make_unique<Master>(spec.master, clock);
  cluster->channel_ = std::make_unique<MasterChannel>(spec.channel);
  cluster->channel_->Retarget(cluster->master_.get());

  DefineCanonicalTiers(cluster->master_.get());

  for (int rack = 0; rack < spec.num_racks; ++rack) {
    for (int node = 0; node < spec.workers_per_rack; ++node) {
      NetworkLocation location("rack" + std::to_string(rack),
                               "node" + std::to_string(node));
      OCTO_ASSIGN_OR_RETURN(
          WorkerId id,
          cluster->master_->RegisterWorker(location, spec.net_bps));
      WorkerOptions options;
      options.location = location;
      options.net_bps = spec.net_bps;
      if (!spec.block_dir_root.empty()) {
        options.block_dir = spec.block_dir_root + "/worker_" +
                            std::to_string(id);
      }
      auto worker =
          std::make_unique<Worker>(id, options, cluster->sim_.get());
      for (const MediumSpec& medium_spec : spec.media_per_worker) {
        OCTO_ASSIGN_OR_RETURN(MediumId medium,
                              cluster->master_->RegisterMedium(
                                  id, medium_spec, ProfiledRates{}));
        OCTO_ASSIGN_OR_RETURN(ProfiledRates rates,
                              worker->AttachMedium(medium, medium_spec));
        OCTO_RETURN_IF_ERROR(cluster->master_->cluster_state().SetMediumRates(
            medium, rates.write_bps, rates.read_bps));
      }
      cluster->worker_ids_.push_back(id);
      cluster->workers_.emplace(id, std::move(worker));
    }
  }
  return cluster;
}

Worker* Cluster::worker(WorkerId id) {
  auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : it->second.get();
}

Worker* Cluster::WorkerForMedium(MediumId medium) {
  if (master_ == nullptr) return nullptr;
  const MediumInfo* info = master_->cluster_state().FindMedium(medium);
  return info == nullptr ? nullptr : worker(info->worker);
}

Status Cluster::EnableBackup() {
  if (master_ == nullptr) {
    return Status::FailedPrecondition("no primary master to back up");
  }
  backup_ = std::make_unique<BackupMaster>(master_.get(), clock_);
  return backup_->Sync();
}

Status Cluster::CheckpointBackup() {
  if (backup_ == nullptr) {
    return Status::FailedPrecondition("no backup master enabled");
  }
  OCTO_RETURN_IF_ERROR(backup_->Sync());
  if (faults_ != nullptr && master_ != nullptr &&
      !faults_->Check(fault::Site::kMasterCrashDuringCheckpoint).ok()) {
    CrashMaster();
    return Status::Unavailable("primary crashed during checkpoint");
  }
  OCTO_RETURN_IF_ERROR(backup_->CreateCheckpoint().status());
  return Status::OK();
}

void Cluster::CrashMaster() {
  if (master_ == nullptr) return;
  // Keep the corpse: the backup tails its edit log for the takeover. Its
  // command queues and in-flight replication entries are never consulted
  // again — the promoted master rebuilds that state from block reports.
  deposed_masters_.push_back(std::move(master_));
  channel_->Retarget(nullptr);
}

Status Cluster::PromoteBackup() {
  if (backup_ == nullptr) {
    return Status::FailedPrecondition("no backup master enabled");
  }
  if (master_ != nullptr) {
    return Status::FailedPrecondition("primary still alive; crash it first");
  }
  MasterOptions options = master_options_;
  // The promoted master journals afresh in memory; the dead primary's
  // metadata directory must not be appended to by two masters.
  options.metadata_dir.clear();
  OCTO_ASSIGN_OR_RETURN(std::unique_ptr<Master> promoted,
                        backup_->TakeOver(options, clock_));
  DefineCanonicalTiers(promoted.get());
  if (faults_ != nullptr) promoted->InstallDurabilityFaults(faults_);
  master_ = std::move(promoted);
  // The old backup is bound to the dead primary's log; replace it with
  // one seeded from the replacement's live state so a second failover
  // does not lose the pre-takeover namespace.
  backup_ = std::make_unique<BackupMaster>(master_.get(), clock_);
  OCTO_RETURN_IF_ERROR(backup_->Bootstrap());
  channel_->Retarget(master_.get());
  return Status::OK();
}

Status Cluster::EnsureRegistered(Worker* w) {
  if (master_ == nullptr) return Status::Unavailable("no primary master");
  OCTO_RETURN_IF_ERROR(
      master_->ReRegisterWorker(w->id(), w->location(), w->net_bps()));
  for (MediumId medium : w->MediumIds()) {
    OCTO_ASSIGN_OR_RETURN(MediumSpec spec, w->GetSpec(medium));
    OCTO_ASSIGN_OR_RETURN(ProfiledRates rates, w->GetProfiledRates(medium));
    OCTO_RETURN_IF_ERROR(
        master_->ReRegisterMedium(w->id(), medium, spec, rates));
  }
  w->ObserveMasterEpoch(master_->epoch());
  return Status::OK();
}

Result<int> Cluster::DeliverCommands(
    WorkerId id, const std::vector<WorkerCommand>& commands) {
  Worker* w = worker(id);
  if (w == nullptr) {
    return Status::NotFound("unknown worker " + std::to_string(id));
  }
  return ExecuteCommands(w, commands);
}

Result<int> Cluster::ExecuteCommands(
    Worker* target, const std::vector<WorkerCommand>& commands) {
  int executed = 0;
  for (const WorkerCommand& cmd : commands) {
    // The delivered-but-unexecuted window: a crash here leaves this and
    // the remaining commands unacknowledged, so the master redelivers
    // them after the command timeout.
    if (faults_ != nullptr &&
        !faults_->Check(fault::Site::kCrashMidCommands, target->id()).ok()) {
      StopWorker(target->id());
      return executed;
    }
    // Fencing: commands stamped by a deposed master (older epoch than the
    // worker has observed) are refused, not acked — they die with their
    // issuer.
    if (!target->AdmitCommand(cmd)) continue;
    switch (cmd.kind) {
      case WorkerCommand::Kind::kDeleteReplica: {
        Status st = target->DeleteBlock(cmd.target_medium, cmd.block);
        if (st.ok() || st.IsNotFound()) {
          ++executed;
          if (master_ != nullptr) {
            (void)master_->AckCommand(target->id(), cmd.id);
          }
        } else {
          return st;
        }
        break;
      }
      case WorkerCommand::Kind::kCopyReplica: {
        // A failing target device (or a worker melting under a repair
        // storm) drops the copy on the floor *after* acking the command:
        // the master's in-flight entry must expire on its jittered
        // deadline and reschedule elsewhere — and must never double-queue
        // the same (block, target) while the cooldown holds.
        if (faults_ != nullptr &&
            !faults_->Check(fault::Site::kCopyStorm, target->id()).ok()) {
          if (master_ != nullptr) {
            (void)master_->AckCommand(target->id(), cmd.id);
          }
          break;
        }
        bool copied = false;
        for (MediumId source : cmd.sources) {
          Worker* source_worker = WorkerForMedium(source);
          if (source_worker == nullptr ||
              stopped_.count(source_worker->id()) > 0) {
            continue;
          }
          // Never replicate from a stale replica: one that missed a
          // recovery carries an older generation stamp than the command
          // and may hold bytes the recovery truncated away.
          if (cmd.genstamp != 0) {
            auto info = source_worker->GetReplicaInfo(source, cmd.block);
            if (!info.ok() || info->genstamp != cmd.genstamp) continue;
          }
          auto data = source_worker->ReadBlock(source, cmd.block);
          if (!data.ok()) continue;
          Status st = target->WriteBlock(cmd.target_medium, cmd.block,
                                         std::move(data).value(),
                                         cmd.genstamp);
          if (!st.ok()) break;
          if (master_ != nullptr) {
            OCTO_RETURN_IF_ERROR(
                master_->CommitReplica(cmd.block, cmd.target_medium));
          }
          copied = true;
          ++executed;
          break;
        }
        if (!copied) {
          OCTO_LOG(Warn) << "copy of block " << cmd.block << " to medium "
                         << cmd.target_medium << " found no usable source";
        }
        // Acked either way: on failure the in-flight entry still expires
        // (or the next block report clears it) and the monitor
        // reschedules with fresh sources, rather than this exact command
        // retrying stale ones.
        if (master_ != nullptr) {
          (void)master_->AckCommand(target->id(), cmd.id);
        }
        break;
      }
      case WorkerCommand::Kind::kRecoverBlock: {
        // This worker is the recovery primary (HDFS: the DataNode leading
        // block recovery). It may crash before reconciling anything — the
        // master's recovery lease then expires and a new primary is
        // picked from the remaining survivors.
        if (faults_ != nullptr &&
            !faults_->Check(fault::Site::kRecoveryPrimaryCrash, target->id())
                 .ok()) {
          StopWorker(target->id());
          return executed;
        }
        // Survivors may hold different lengths (the writer's crash cut
        // the pipeline mid-packet); only the common prefix is known good.
        int64_t min_len = -1;
        std::vector<std::pair<Worker*, MediumId>> holders;
        for (MediumId m : cmd.sources) {
          Worker* holder = WorkerForMedium(m);
          if (holder == nullptr || stopped_.count(holder->id()) > 0) continue;
          auto info = holder->GetReplicaInfo(m, cmd.block);
          if (!info.ok()) continue;
          holders.push_back({holder, m});
          if (min_len < 0 || info->length < min_len) min_len = info->length;
        }
        std::vector<MediumId> good;
        for (auto& [holder, m] : holders) {
          Status st = holder->RecoverReplica(m, cmd.block, min_len,
                                             cmd.genstamp);
          if (st.ok()) st = holder->FinalizeBlock(m, cmd.block, cmd.genstamp);
          if (st.ok()) good.push_back(m);
        }
        if (master_ != nullptr) {
          Status st = master_->CommitBlockSynchronization(
              cmd.block, cmd.genstamp, good.empty() ? 0 : min_len, good);
          // NotFound / FailedPrecondition: the block was already committed
          // or a newer recovery round superseded this one — drop the
          // command, don't fail the pump.
          if (!st.ok() && !st.IsNotFound() && !st.IsFailedPrecondition()) {
            return st;
          }
          (void)master_->AckCommand(target->id(), cmd.id);
        }
        ++executed;
        break;
      }
    }
  }
  return executed;
}

void Cluster::StopWorker(WorkerId id) {
  stopped_.insert(id);
  // A crashed worker would be noticed after the heartbeat timeout; mark it
  // immediately so tests need not advance the clock.
  if (master_ != nullptr) {
    (void)master_->cluster_state().SetWorkerAlive(id, false);
  }
}

void Cluster::CrashWorkerSilently(WorkerId id) { stopped_.insert(id); }

void Cluster::RestartWorker(WorkerId id) { stopped_.erase(id); }

void Cluster::InstallFaultRegistry(fault::FaultRegistry* faults) {
  faults_ = faults;
  if (master_ != nullptr) master_->InstallDurabilityFaults(faults);
  for (auto& [id, w] : workers_) w->SetFaultRegistry(faults);
}

Result<int> Cluster::PumpHeartbeats() {
  if (faults_ != nullptr && master_ != nullptr &&
      !faults_->Check(fault::Site::kMasterCrash).ok()) {
    CrashMaster();
  }
  // Headless round: workers have no master to heartbeat to. Their state
  // is untouched; the channel's waiter (or the test) promotes the backup.
  if (master_ == nullptr) return 0;
  int executed = 0;
  for (WorkerId id : worker_ids_) {
    if (stopped_.count(id) > 0) continue;
    if (faults_ != nullptr) {
      if (!faults_->Check(fault::Site::kWorkerCrash, id).ok()) {
        StopWorker(id);
        continue;
      }
      // A decommissioning worker can die mid-drain; its remaining
      // replicas lose their kDecommission head start and the next
      // monitor round re-queues them as ordinary (or last-replica)
      // repairs sourced from the survivors.
      if (master_->worker_admin_state(id) ==
              WorkerAdminState::kDecommissioning &&
          !faults_->Check(fault::Site::kDecommissionCrash, id).ok()) {
        StopWorker(id);
        continue;
      }
      // A dropped (or delayed past the round) heartbeat: the worker
      // neither reports stats nor receives commands this round.
      if (!faults_->Check(fault::Site::kHeartbeat, id).ok()) continue;
    }
    Worker* w = worker(id);
    Result<std::vector<WorkerCommand>> commands =
        master_->Heartbeat(w->BuildHeartbeat());
    if (!commands.ok() && (commands.status().IsNotFound() ||
                           commands.status().IsFailedPrecondition())) {
      // Unknown to (or fenced off by) a freshly promoted master: run the
      // registration handshake and retry once.
      OCTO_RETURN_IF_ERROR(EnsureRegistered(w));
      commands = master_->Heartbeat(w->BuildHeartbeat());
    }
    OCTO_RETURN_IF_ERROR(commands.status());
    // The master consumed queued corrupt-replica reports (it skips them
    // in safe mode — keep those pending for after reconstruction).
    if (!master_->in_safe_mode()) w->ClearPendingBadReplicas();
    // Read statistics were folded into the master's access-stats buffer.
    w->ClearPendingBlockReads();
    OCTO_ASSIGN_OR_RETURN(int n, ExecuteCommands(w, commands.value()));
    executed += n;
  }
  return executed;
}

Status Cluster::SendBlockReports() {
  if (master_ == nullptr) return Status::Unavailable("no primary master");
  for (WorkerId id : worker_ids_) {
    // A crashed worker cannot report; processing its report anyway would
    // resurrect replicas the master has already written off.
    if (stopped_.count(id) > 0) continue;
    if (faults_ != nullptr &&
        !faults_->Check(fault::Site::kBlockReport, id).ok()) {
      continue;
    }
    Worker* w = worker(id);
    Status st = master_->ProcessBlockReport(id, w->BuildBlockReport(),
                                            w->master_epoch());
    if (st.IsNotFound() || st.IsFailedPrecondition()) {
      OCTO_RETURN_IF_ERROR(EnsureRegistered(w));
      st = master_->ProcessBlockReport(id, w->BuildBlockReport(),
                                       w->master_epoch());
    }
    OCTO_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Result<int> Cluster::RunScrubber() {
  if (master_ == nullptr) return Status::Unavailable("no primary master");
  int found = 0;
  for (WorkerId id : worker_ids_) {
    if (stopped_.count(id) > 0) continue;
    Worker* w = worker(id);
    for (const auto& [medium, block] : w->ScrubBlocks()) {
      Status st = master_->ReportBadBlock(block, medium);
      // NotFound: the master already dropped this replica (e.g. a client
      // read reported it first); the queued delete will clean the bytes.
      if (!st.ok() && !st.IsNotFound()) return st;
      ++found;
    }
    // Findings were reported directly; don't repeat them via heartbeat.
    // In safe mode the master ignored them — keep them queued instead.
    if (!master_->in_safe_mode()) w->ClearPendingBadReplicas();
  }
  return found;
}

Result<int> Cluster::RunReplicationToQuiescence(int max_rounds) {
  int rounds = 0;
  for (; rounds < max_rounds; ++rounds) {
    if (master_ == nullptr) break;
    int queued = master_->RunReplicationMonitor();
    OCTO_ASSIGN_OR_RETURN(int executed, PumpHeartbeats());
    if (queued == 0 && executed == 0) {
      // Nothing dispatchable right now, but backoff delays and in-flight
      // copy deadlines can unblock more work later. Advance virtual time
      // to the next such instant and re-run; true quiescence is when no
      // such instant exists (or time cannot be advanced).
      int64_t next =
          master_ != nullptr ? master_->NextRepairRetryMicros() : -1;
      if (sim_ == nullptr || next < 0 || next <= clock_->NowMicros()) break;
      // +2 µs: the micros -> seconds -> micros round-trip through the
      // sim's double clock truncates, and landing short of `next` would
      // spin this loop without progress.
      sim_->RunUntil(static_cast<double>(next + 2) * 1e-6);
    }
  }
  return rounds;
}

}  // namespace octo

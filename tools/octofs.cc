// octofs — a command-line client for a persistent, single-machine
// OctopusFS instance. Each invocation boots the cluster from a state
// directory, runs one command, checkpoints, and exits — exercising the
// Master's crash recovery on every run. The state directory holds
// `config`, the disk-backed block stores under `blocks/`, and the
// Master's metadata under `meta/`: the segmented, checksummed edit log
// (`edits_*`, fsynced before each mutation is acknowledged) and the
// atomic checkpoint images (`fsimage_<txid>`). A process killed at any
// point leaves a directory the next invocation recovers from.
//
//   octofs --state DIR init [racks workers]   create an instance
//   octofs --state DIR mkdir /path
//   octofs --state DIR put LOCAL /path [M,S,H,R,U]
//   octofs --state DIR get /path LOCAL
//   octofs --state DIR cat /path
//   octofs --state DIR ls /path
//   octofs --state DIR rm [-r] /path
//   octofs --state DIR mv /src /dst
//   octofs --state DIR setrep /path M,S,H,R,U
//   octofs --state DIR locations /path
//   octofs --state DIR report
//   octofs --state DIR fsck
//   octofs --state DIR balance

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "cluster/rebalancer.h"
#include "common/config.h"
#include "common/units.h"

using namespace octo;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "octofs: %s\n", message.c_str());
  return 1;
}

int FailIfError(const Status& st) {
  if (!st.ok()) return Fail(st.ToString());
  return 0;
}

ClusterSpec SpecFromConfig(const Config& config, const std::string& state) {
  ClusterSpec spec;
  spec.num_racks = static_cast<int>(config.GetInt("racks", 2));
  spec.workers_per_rack = static_cast<int>(config.GetInt("workers", 2));
  spec.with_simulation = false;  // a real (if small) file system
  spec.block_dir_root = state + "/blocks";
  spec.master.metadata_dir = state + "/meta";
  int64_t mem = config.GetInt("memory_mib", 64) * kMiB;
  int64_t ssd = config.GetInt("ssd_mib", 256) * kMiB;
  int64_t hdd = config.GetInt("hdd_mib", 1024) * kMiB;
  spec.media_per_worker = {
      {kMemoryTier, MediaType::kMemory, mem, FromMBps(1897.4),
       FromMBps(3224.8)},
      {kSsdTier, MediaType::kSsd, ssd, FromMBps(340.6), FromMBps(419.5)},
      {kHddTier, MediaType::kHdd, hdd, FromMBps(126.3), FromMBps(177.1)},
      {kHddTier, MediaType::kHdd, hdd, FromMBps(126.3), FromMBps(177.1)},
  };
  return spec;
}

Result<Config> LoadConfig(const std::string& state) {
  std::ifstream in(state + "/config");
  if (!in) {
    return Status::NotFound("no instance at " + state +
                            " (run 'octofs --state " + state + " init')");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Config config;
  OCTO_RETURN_IF_ERROR(config.ParseLines(buffer.str()));
  return config;
}

/// Boots the cluster: newest checkpoint image + journal tail -> namespace
/// & block records; block reports from the disk stores -> replica
/// locations.
Result<std::unique_ptr<Cluster>> Boot(const std::string& state,
                                      const Config& config) {
  OCTO_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                        Cluster::Create(SpecFromConfig(config, state)));
  Master* master = cluster->master();
  master->edit_log()->SetFsyncOnFlush(true);
  OCTO_RETURN_IF_ERROR(master->RecoverFromLocalStorage());
  OCTO_RETURN_IF_ERROR(cluster->SendBlockReports());
  // Repair any under-replication found at boot.
  OCTO_RETURN_IF_ERROR(cluster->RunReplicationToQuiescence().status());
  return cluster;
}

Result<ReplicationVector> ParseVector(const std::string& text) {
  return ReplicationVector::ParseShorthand(text);
}

void PrintStatus(const FileStatus& st) {
  std::printf("%c%03o %-8s %10lld  %-24s", st.is_dir ? 'd' : '-', st.mode,
              st.owner.c_str(), static_cast<long long>(st.length),
              st.path.c_str());
  if (!st.is_dir) std::printf("  %s", st.rep_vector.ToString().c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string state;
  size_t i = 0;
  if (i + 1 < args.size() && args[i] == "--state") {
    state = args[i + 1];
    i += 2;
  }
  if (state.empty() || i >= args.size()) {
    return Fail("usage: octofs --state DIR COMMAND [args] (see header)");
  }
  std::string command = args[i++];
  std::vector<std::string> rest(args.begin() + i, args.end());

  if (command == "init") {
    Config config;
    config.SetInt("racks", rest.size() > 0 ? std::atoi(rest[0].c_str()) : 2);
    config.SetInt("workers",
                  rest.size() > 1 ? std::atoi(rest[1].c_str()) : 2);
    std::error_code ec;
    std::filesystem::create_directories(state, ec);
    if (ec) return Fail("cannot create " + state + ": " + ec.message());
    std::ofstream out(state + "/config");
    for (const auto& [key, value] : config.entries()) {
      out << key << " = " << value << "\n";
    }
    if (!out) return Fail("cannot write " + state + "/config");
    std::printf("initialized OctopusFS instance at %s\n", state.c_str());
    return 0;
  }

  auto config = LoadConfig(state);
  if (!config.ok()) return Fail(config.status().ToString());
  auto booted = Boot(state, *config);
  if (!booted.ok()) return Fail(booted.status().ToString());
  Cluster* cluster = booted->get();
  FileSystem fs(cluster, cluster->worker(0)->location());

  int rc = 0;
  if (command == "mkdir" && rest.size() == 1) {
    rc = FailIfError(fs.Mkdirs(rest[0]));
  } else if (command == "put" && (rest.size() == 2 || rest.size() == 3)) {
    std::ifstream in(rest[0], std::ios::binary);
    if (!in) return Fail("cannot read local file " + rest[0]);
    std::ostringstream data;
    data << in.rdbuf();
    CreateOptions options;
    options.block_size = 8 * kMiB;
    options.overwrite = true;
    if (rest.size() == 3) {
      auto rv = ParseVector(rest[2]);
      if (!rv.ok()) return Fail(rv.status().ToString());
      options.rep_vector = *rv;
    }
    rc = FailIfError(fs.WriteFile(rest[1], data.str(), options));
  } else if (command == "get" && rest.size() == 2) {
    auto data = fs.ReadFile(rest[0]);
    if (!data.ok()) return Fail(data.status().ToString());
    std::ofstream out(rest[1], std::ios::binary);
    out.write(data->data(), static_cast<std::streamsize>(data->size()));
    if (!out) return Fail("cannot write local file " + rest[1]);
  } else if (command == "cat" && rest.size() == 1) {
    auto data = fs.ReadFile(rest[0]);
    if (!data.ok()) return Fail(data.status().ToString());
    std::fwrite(data->data(), 1, data->size(), stdout);
  } else if (command == "ls" && rest.size() == 1) {
    auto listing = fs.ListDirectory(rest[0]);
    if (!listing.ok()) return Fail(listing.status().ToString());
    for (const FileStatus& st : *listing) PrintStatus(st);
  } else if (command == "rm" && !rest.empty()) {
    bool recursive = rest[0] == "-r";
    const std::string& path = recursive ? rest[1] : rest[0];
    rc = FailIfError(fs.Delete(path, recursive));
  } else if (command == "mv" && rest.size() == 2) {
    rc = FailIfError(fs.Rename(rest[0], rest[1]));
  } else if (command == "setrep" && rest.size() == 2) {
    auto rv = ParseVector(rest[1]);
    if (!rv.ok()) return Fail(rv.status().ToString());
    rc = FailIfError(fs.SetReplication(rest[0], *rv));
    if (rc == 0) {
      // Execute the moves/copies before exiting (they are asynchronous).
      auto rounds = cluster->RunReplicationToQuiescence();
      if (!rounds.ok()) rc = Fail(rounds.status().ToString());
    }
  } else if (command == "locations" && rest.size() == 1) {
    auto status = fs.GetFileStatus(rest[0]);
    if (!status.ok()) return Fail(status.status().ToString());
    auto located = fs.GetFileBlockLocations(rest[0], 0, status->length);
    if (!located.ok()) return Fail(located.status().ToString());
    for (const LocatedBlock& block : *located) {
      std::printf("block %lld offset %lld length %lld\n",
                  static_cast<long long>(block.block.id),
                  static_cast<long long>(block.offset),
                  static_cast<long long>(block.block.length));
      for (const PlacedReplica& replica : block.locations) {
        const TierInfo* tier =
            cluster->master()->cluster_state().FindTier(replica.tier);
        std::printf("  %-8s %s (medium %d)\n",
                    tier != nullptr ? tier->name.c_str() : "?",
                    replica.location.ToString().c_str(), replica.medium);
      }
    }
  } else if (command == "report" && rest.empty()) {
    auto reports = fs.GetStorageTierReports();
    if (!reports.ok()) return Fail(reports.status().ToString());
    std::printf("%-8s %7s %8s %12s %12s %10s %10s\n", "Tier", "#media",
                "#workers", "capacity", "remaining", "write", "read");
    for (const StorageTierReport& tier : *reports) {
      std::printf("%-8s %7d %8d %12s %12s %10s %10s\n", tier.name.c_str(),
                  tier.num_media, tier.num_workers,
                  FormatBytes(tier.capacity_bytes).c_str(),
                  FormatBytes(tier.remaining_bytes).c_str(),
                  FormatThroughputMBps(tier.avg_write_bps).c_str(),
                  FormatThroughputMBps(tier.avg_read_bps).c_str());
    }
    std::printf("files: %lld  directories: %lld  blocks: %lld\n",
                static_cast<long long>(
                    cluster->master()->namespace_tree().NumFiles()),
                static_cast<long long>(
                    cluster->master()->namespace_tree().NumDirectories()),
                static_cast<long long>(
                    cluster->master()->block_manager().NumBlocks()));
  } else if (command == "fsck" && rest.empty()) {
    int under = 0, total = 0;
    cluster->master()->block_manager().ForEach([&](const BlockRecord& rec) {
      ++total;
      if (static_cast<int>(rec.locations.size()) < rec.expected.total()) {
        ++under;
        std::printf("under-replicated: block %lld of %s (%zu/%d)\n",
                    static_cast<long long>(rec.id), rec.file.c_str(),
                    rec.locations.size(), rec.expected.total());
      }
    });
    auto corrupt = cluster->RunScrubber();
    if (!corrupt.ok()) return Fail(corrupt.status().ToString());
    std::printf("fsck: %d blocks, %d under-replicated, %d corrupt replicas "
                "found%s\n",
                total, under, *corrupt,
                *corrupt > 0 ? " (repair scheduled)" : "");
  } else if (command == "balance" && rest.empty()) {
    Rebalancer rebalancer(cluster->master());
    for (int pass = 0; pass < 10; ++pass) {
      auto report = rebalancer.Run();
      if (!report.ok()) return Fail(report.status().ToString());
      auto pumped = cluster->PumpHeartbeats();
      if (!pumped.ok()) return Fail(pumped.status().ToString());
      (void)cluster->PumpHeartbeats();
      std::printf("pass %d: %d moves (%s)\n", pass, report->moves_scheduled,
                  FormatBytes(report->bytes_scheduled).c_str());
      if (report->moves_scheduled == 0) break;
    }
  } else {
    return Fail("unknown command or wrong arguments: " + command);
  }

  if (rc == 0) {
    // Folds this run's journal records into a new image so the next boot
    // replays a short tail.
    Status st = cluster->master()->WriteCheckpoint().status();
    if (!st.ok()) return Fail("checkpoint failed: " + st.ToString());
  }
  return rc;
}

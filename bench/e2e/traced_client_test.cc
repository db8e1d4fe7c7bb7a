// Guards the traced fork: for a short op stream of every workload, the real
// FileSystem and the benchmark's TracedClient, each on a fresh cluster, must
// leave the same namespace, the same block placements (the timing
// decorators must not consume the Master's rng), the same number of journal
// records, and read the same bytes. Single-threaded with no control loop,
// so both sides are deterministic.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace.h"
#include "traced_client.h"
#include "workload.h"

namespace octo::e2e {
namespace {

struct Outcome {
  std::map<std::string, int64_t> namespace_listing;
  std::map<BlockId, std::vector<MediumId>> placements;
  int64_t journal_records = 0;
  int64_t bytes_read = 0;
  int failed_ops = 0;
  int wrong_reads = 0;
  TraceSummary trace;
};

Params TestParams(Workload workload) {
  Params p = BenchParams(workload, /*seed=*/7);
  // Several blocks, a partial last block and a partial last packet.
  p.block_bytes = 256 * 1024;
  p.file_bytes = 600 * 1024 + 7;
  switch (workload) {
    case Workload::kDfsioRead:
    case Workload::kMixedTiered:
      p.preload_files = 6;
      break;
    case Workload::kSliveMix:
      p.tree_dirs = 4;
      p.tree_files_per_dir = 8;
      p.pool_files = 4;
      break;
    case Workload::kDfsioWrite:
      break;
  }
  return p;
}

Outcome RunSide(const Params& params, bool traced, const std::string& dir) {
  std::filesystem::remove_all(dir);
  auto created = MakeCluster(dir, params);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  Outcome out;
  if (!created.ok()) return out;
  std::unique_ptr<Cluster> cluster = std::move(created).value();
  if (traced) InstallTimedPolicies(cluster->master());
  ResetTraces();
  SetTracing(traced);

  auto make_client = [&](int c, bool setup) -> std::unique_ptr<Client> {
    NetworkLocation where = ClientLocation(params, c, setup);
    if (traced) return std::make_unique<TracedClient>(cluster.get(), where);
    return std::make_unique<FsClient>(cluster.get(), where);
  };
  std::vector<OpStream> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(params, c);

  std::string content;
  std::string read_out;
  int64_t op_id = 0;
  auto run = [&](Client* client, const Op& op) {
    if (op.kind == OpKind::kWrite) {
      FillContent(params.seed, op.path, op.bytes, &content);
    }
    Status st;
    {
      ScopedOp scope(RootSpan(op.kind), ++op_id);
      st = ExecuteOp(client, op, params, content, &read_out);
    }
    if (!st.ok()) {
      ++out.failed_ops;
      ADD_FAILURE() << op.path << ": " << st.ToString();
      return;
    }
    if (op.kind == OpKind::kRead) {
      out.bytes_read += static_cast<int64_t>(read_out.size());
      if (!ContentMatches(params.seed, op.path, read_out)) ++out.wrong_reads;
    }
  };
  for (int c = 0; c < kClients; ++c) {
    std::unique_ptr<Client> client = make_client(c, /*setup=*/true);
    for (const Op& op : streams[c].SetupOps()) run(client.get(), op);
  }
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(make_client(c, /*setup=*/false));
  }
  constexpr int kOps = 60;
  for (int i = 0; i < kOps; ++i) {
    const int c = i % kClients;
    run(clients[static_cast<size_t>(c)].get(), streams[c].Next());
  }
  SetTracing(false);
  out.trace = SummarizeTraces();

  Master* master = cluster->master();
  out.namespace_listing = ListNamespace(*master);
  master->block_manager().ForEach([&out](const BlockRecord& record) {
    out.placements[record.id] = record.locations;
  });
  out.journal_records = master->edit_log()->size();
  cluster.reset();
  std::filesystem::remove_all(dir);
  return out;
}

class TracedClientTest : public ::testing::TestWithParam<Workload> {};

TEST_P(TracedClientTest, MatchesFileSystem) {
  const Params params = TestParams(GetParam());
  const std::string root =
      (std::filesystem::current_path() / "traced_client_test_work").string();
  const std::string name = WorkloadName(params.workload);
  Outcome fs = RunSide(params, /*traced=*/false, root + "/" + name + "_fs");
  Outcome traced = RunSide(params, /*traced=*/true, root + "/" + name + "_tc");

  EXPECT_EQ(fs.failed_ops, 0);
  EXPECT_EQ(traced.failed_ops, 0);
  EXPECT_EQ(fs.wrong_reads, 0);
  EXPECT_EQ(traced.wrong_reads, 0);
  EXPECT_FALSE(fs.namespace_listing.empty());
  EXPECT_EQ(fs.namespace_listing, traced.namespace_listing);
  EXPECT_EQ(fs.placements, traced.placements);
  EXPECT_EQ(fs.journal_records, traced.journal_records);
  EXPECT_EQ(fs.bytes_read, traced.bytes_read);

  // The untraced side records nothing; the traced side records a root span
  // per op, and a placement span under every block allocation.
  EXPECT_EQ(fs.trace.spans, 0);
  EXPECT_GT(traced.trace.spans, 0);
  EXPECT_EQ(traced.trace.dropped, 0);
  const auto& by_name = traced.trace.by_name;
  EXPECT_EQ(by_name[static_cast<int>(SpanName::kPlacementPlace)].calls,
            by_name[static_cast<int>(SpanName::kMasterAddBlock)].calls);
  EXPECT_EQ(by_name[static_cast<int>(SpanName::kMasterAddBlock)].calls,
            static_cast<int64_t>(traced.placements.size()));
  std::filesystem::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TracedClientTest,
    ::testing::Values(Workload::kDfsioWrite, Workload::kDfsioRead,
                      Workload::kSliveMix, Workload::kMixedTiered),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return std::string(WorkloadName(info.param));
    });

}  // namespace
}  // namespace octo::e2e

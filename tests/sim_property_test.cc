// Property test for the incremental max-min solver: random churn of
// starts / cancels / time advances / completions, with the production
// solver's rates compared BITWISE after every step against
// Simulation::NaiveRatesForTest() — a retained from-scratch progressive
// filling oracle that shares no incremental state (no slab, no
// component cache, no worklists, no share heap). Any divergence in
// freeze order, slack handling, or lazy accounting shows up as a rate
// mismatch long before it would skew a figure bench.
//
// Also covered: rate-capped flows, cap-only (zero-resource) flows,
// instant (zero-byte) flows, stale/recycled FlowId detection, and byte
// conservation through the lazy per-resource counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace octo {
namespace {

using sim::FlowId;
using sim::ResourceId;
using sim::Simulation;

// Deterministic LCG (Numerical Recipes), same family as the benches.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Asserts every live flow's production rate equals the oracle's, with
// exact (bitwise) double equality.
void ExpectRatesMatchOracle(Simulation& sim, const std::vector<FlowId>& live) {
  std::vector<std::pair<FlowId, double>> oracle = sim.NaiveRatesForTest();
  std::map<FlowId, double> by_id(oracle.begin(), oracle.end());
  for (FlowId id : live) {
    auto it = by_id.find(id);
    ASSERT_NE(it, by_id.end()) << "live flow " << id << " missing from oracle";
    double got = sim.FlowRate(id);
    // EXPECT_EQ on doubles is exact comparison — the contract is
    // bit-identical rates, not rates-within-epsilon.
    EXPECT_EQ(got, it->second) << "rate mismatch for flow " << id;
  }
  EXPECT_EQ(by_id.size(), live.size())
      << "oracle sees a different live-flow population";
}

struct Churn {
  // Topology scale. A shared backbone resource keeps a large fraction
  // of flows in one connected component so the worklist (large-
  // component) solver path is exercised, not just the reference scans.
  int racks = 4;
  int workers_per_rack = 4;
  int max_flows = 120;
  int steps = 260;
  int prefill = 0;  // pipeline flows started up-front, before churning
  uint64_t seed = 1;
  // Spill pipelines (shape 7) cross the NIC and disk of seven consecutive
  // workers plus the core: 15 resources, more than the adjacency arena's
  // initial stride, so the arena must widen mid-churn.
  bool wide_spills = false;
};

void RunChurn(const Churn& cfg) {
  Rng rng(cfg.seed);
  Simulation sim;

  std::vector<ResourceId> disks, nics;
  for (int rk = 0; rk < cfg.racks; ++rk) {
    for (int w = 0; w < cfg.workers_per_rack; ++w) {
      std::string p = "r" + std::to_string(rk) + "w" + std::to_string(w);
      // Coarse capacity grid: collisions between share values happen
      // through exact ties (equal capacities, equal counts), the case
      // the slack window must batch identically in both solvers.
      disks.push_back(sim.AddResource(p + ":disk", 50e6 * (1 + rng.Below(4))));
      nics.push_back(sim.AddResource(p + ":nic", 250e6 * (1 + rng.Below(3))));
    }
  }
  ResourceId core = sim.AddResource("core", 2e9);

  struct Live {
    FlowId id = -1;
    bool done = false;
  };
  // Completion callbacks mark entries done; capturing the vector by
  // reference is safe (the vector object is stable even as it grows).
  std::vector<Live> flows;
  flows.reserve(static_cast<size_t>(cfg.steps) + 8);

  std::vector<FlowId> retired;  // completed or cancelled ids (stale)
  int workers = cfg.racks * cfg.workers_per_rack;

  auto live_ids = [&] {
    std::vector<FlowId> out;
    for (const Live& l : flows) {
      if (!l.done && l.id >= 0) out.push_back(l.id);
    }
    return out;
  };

  // Pre-fill with long pipeline flows so the backbone component starts
  // (and stays) well above the small-component solver cutoff.
  for (int i = 0; i < cfg.prefill; ++i) {
    int src = static_cast<int>(rng.Below(workers));
    int dst = static_cast<int>(rng.Below(workers));
    size_t idx = flows.size();
    flows.push_back(Live{});
    flows[idx].id = sim.StartFlow(
        1e9 + 1e6 * static_cast<double>(rng.Below(256)),
        {nics[src], nics[dst], disks[dst], core},
        [&flows, idx] { flows[idx].done = true; },
        (rng.Below(3) == 0) ? 40e6 : 0.0);
  }
  ExpectRatesMatchOracle(sim, live_ids());

  int max_live = 0;
  for (int step = 0; step < cfg.steps; ++step) {
    int live_count = 0;
    for (const Live& l : flows) live_count += l.done ? 0 : 1;
    max_live = std::max(max_live, live_count);
    uint64_t op = rng.Below(10);
    if (live_count >= cfg.max_flows) op = 9;  // at the cap: advance/drain

    if (op <= 5) {
      // Start a flow: a replication-pipeline-shaped resource set.
      int src = static_cast<int>(rng.Below(workers));
      int dst = static_cast<int>(rng.Below(workers));
      std::vector<ResourceId> rs;
      uint64_t shape = rng.Below(8);
      if (shape == 0) {
        // Cap-only flow (no resources): rate pinned at its cap.
      } else if (shape <= 3) {
        rs = {disks[src]};  // local write
      } else {
        rs = {nics[src], nics[dst], disks[dst], core};  // pipeline
        if (shape == 7 && cfg.wide_spills) {
          rs = {core};
          for (int k = 0; k < 7; ++k) {
            rs.push_back(nics[(src + k) % workers]);
            rs.push_back(disks[(src + k) % workers]);
          }
        } else if (shape == 7) {
          rs.push_back(disks[src]);  // + local spill
        }
      }
      double bytes = (rng.Below(20) == 0)
                         ? 0.0  // instant flow: completes via timer
                         : 1e6 * static_cast<double>(1 + rng.Below(64));
      double cap = (rng.Below(3) == 0)
                       ? 20e6 * static_cast<double>(1 + rng.Below(8))
                       : 0.0;
      if (rs.empty() && cap == 0) cap = 25e6;  // keep it a real flow
      size_t idx = flows.size();
      flows.push_back(Live{});
      FlowId id = sim.StartFlow(
          bytes, rs, [&flows, idx] { flows[idx].done = true; }, cap);
      flows[idx].id = id;
      if (id < 0) flows[idx].done = true;  // instant: completes as timer
      if (!rs.empty() && bytes > 0 && cap == 0) {
        // A freshly started, uncapped flow crossing resources must get
        // a positive share immediately (queries flush the deferred
        // solve).
        EXPECT_GT(sim.FlowRate(id), 0) << "fresh flow has no rate";
      }
    } else if (op == 6 && !live_ids().empty()) {
      // Cancel a random live flow.
      std::vector<FlowId> ids = live_ids();
      FlowId victim = ids[rng.Below(ids.size())];
      sim.CancelFlow(victim);
      for (Live& l : flows) {
        if (l.id == victim) l.done = true;
      }
      retired.push_back(victim);
    } else if (op == 7 && !retired.empty()) {
      // Stale / recycled ids must be inert: rate 0, cancel is a no-op.
      FlowId stale = retired[rng.Below(retired.size())];
      EXPECT_EQ(sim.FlowRate(stale), 0.0);
      sim.CancelFlow(stale);
    } else {
      // Advance virtual time; some flows complete and fire callbacks.
      sim.RunUntil(sim.now() + 0.02 * static_cast<double>(1 + rng.Below(5)));
    }

    ExpectRatesMatchOracle(sim, live_ids());
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The point of the exercise is sustained concurrency: the churn must
  // actually have kept a crowd of flows in flight.
  EXPECT_GT(max_live, cfg.prefill * 3 / 4 + cfg.max_flows / 4)
      << "churn never built up load";

  // Drain; every remaining flow completes.
  sim.RunUntilIdle();
  for (const Live& l : flows) {
    EXPECT_TRUE(l.done || sim.FlowRate(l.id) == 0.0);
  }
  EXPECT_EQ(sim.num_active_flows(), 0);
}

TEST(SimPropertyTest, RandomChurnMatchesNaiveOracleBitwise) {
  for (uint64_t seed : {1ull, 7ull, 0xdecafbadull}) {
    Churn cfg;
    cfg.seed = seed;
    RunChurn(cfg);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimPropertyTest, LargeSingleComponentMatchesOracle) {
  // Everything crosses one backbone: one connected component well above
  // the small-component cutoff, so the share-heap worklist solver (not
  // the reference scan) produces every rate — and must match the
  // oracle's reference scans bitwise.
  Churn cfg;
  cfg.racks = 6;
  cfg.workers_per_rack = 6;
  cfg.max_flows = 220;
  cfg.steps = 200;
  cfg.prefill = 100;
  cfg.seed = 42;
  RunChurn(cfg);
}

TEST(SimPropertyTest, WideFlowsGrowTheAdjacencyArena) {
  for (uint64_t seed : {3ull, 11ull}) {
    Churn cfg;
    cfg.seed = seed;
    cfg.wide_spills = true;
    RunChurn(cfg);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimPropertyTest, CapOnlyAndInstantFlows) {
  Simulation sim;
  ResourceId r = sim.AddResource("disk", 100.0);

  // Cap-only flow: rate equals its cap, independent of any resource.
  FlowId cap_only = sim.StartFlow(50.0, {}, nullptr, 5.0);
  EXPECT_EQ(sim.FlowRate(cap_only), 5.0);

  // Capped flow on a shared resource: cap binds below the fair share.
  FlowId capped = sim.StartFlow(100.0, {r}, nullptr, 10.0);
  FlowId open = sim.StartFlow(1000.0, {r}, nullptr);
  EXPECT_EQ(sim.FlowRate(capped), 10.0);
  EXPECT_EQ(sim.FlowRate(open), 90.0);

  // Instant flow: completes via the timer path with a negative id.
  bool instant_done = false;
  FlowId instant = sim.StartFlow(0.0, {r}, [&] { instant_done = true; });
  EXPECT_LT(instant, 0);
  EXPECT_EQ(sim.FlowRate(instant), 0.0);

  ExpectRatesMatchOracle(sim, {cap_only, capped, open});
  sim.RunUntil(sim.now() + 1e-9);
  EXPECT_TRUE(instant_done);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.num_active_flows(), 0);
}

TEST(SimPropertyTest, RecycledSlotGetsFreshGeneration) {
  Simulation sim;
  ResourceId r = sim.AddResource("disk", 100.0);
  FlowId a = sim.StartFlow(100.0, {r});
  sim.CancelFlow(a);
  // The slab recycles the slot LIFO; the old id must not alias the new
  // tenant.
  FlowId b = sim.StartFlow(100.0, {r});
  EXPECT_NE(a, b);
  EXPECT_EQ(sim.FlowRate(a), 0.0);
  EXPECT_EQ(sim.FlowRate(b), 100.0);
  sim.CancelFlow(a);  // stale cancel must not touch b
  EXPECT_EQ(sim.FlowRate(b), 100.0);
}

TEST(SimPropertyTest, BytesConservedThroughLazyCounters) {
  Simulation sim;
  ResourceId r = sim.AddResource("disk", 100.0);
  double bytes[] = {150.0, 400.0, 50.0, 275.0};
  double total = 0;
  for (double b : bytes) {
    sim.StartFlow(b, {r});
    total += b;
  }
  sim.RunUntilIdle();
  // Every byte of every flow crossed the single resource; the lazily
  // integrated per-resource counter must account for all of them.
  EXPECT_NEAR(sim.ResourceBytesTransferred(r), total, 1e-6 * total);
}

}  // namespace
}  // namespace octo

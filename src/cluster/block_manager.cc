#include "cluster/block_manager.h"

#include <algorithm>
#include <mutex>

namespace octo {

Status BlockManager::AddBlock(BlockRecord record) {
  BlockId id = record.id;
  Stripe& stripe = StripeFor(id);
  {
    std::unique_lock<std::shared_mutex> lock(stripe.mu);
    if (stripe.blocks.count(id) > 0) {
      return Status::AlreadyExists("block " + std::to_string(id));
    }
    stripe.blocks.emplace(id, std::move(record));
  }
  // Keep the allocator past replayed/loaded ids.
  BlockId floor = id + 1;
  BlockId cur = next_block_id_.load(std::memory_order_relaxed);
  while (cur < floor && !next_block_id_.compare_exchange_weak(
                            cur, floor, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status BlockManager::RemoveBlock(BlockId id) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock<std::shared_mutex> lock(stripe.mu);
  if (stripe.blocks.erase(id) == 0) {
    return Status::NotFound("block " + std::to_string(id));
  }
  return Status::OK();
}

Status BlockManager::AddReplica(BlockId id, MediumId medium) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  auto& locs = it->second.locations;
  if (std::find(locs.begin(), locs.end(), medium) != locs.end()) {
    return Status::AlreadyExists("block " + std::to_string(id) +
                                 " already has a replica on medium " +
                                 std::to_string(medium));
  }
  locs.push_back(medium);
  return Status::OK();
}

Status BlockManager::RemoveReplica(BlockId id, MediumId medium) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  auto& locs = it->second.locations;
  auto pos = std::find(locs.begin(), locs.end(), medium);
  if (pos == locs.end()) {
    return Status::NotFound("block " + std::to_string(id) +
                            " has no replica on medium " +
                            std::to_string(medium));
  }
  locs.erase(pos);
  return Status::OK();
}

Status BlockManager::SetExpected(BlockId id, const ReplicationVector& expected,
                                 int64_t* length_out) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  it->second.expected = expected;
  if (length_out != nullptr) *length_out = it->second.length;
  return Status::OK();
}

const BlockRecord* BlockManager::Find(BlockId id) const {
  const Stripe& stripe = StripeFor(id);
  std::shared_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  return it == stripe.blocks.end() ? nullptr : &it->second;
}

BlockRecord* BlockManager::FindMutable(BlockId id) {
  Stripe& stripe = StripeFor(id);
  std::shared_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  return it == stripe.blocks.end() ? nullptr : &it->second;
}

bool BlockManager::Snapshot(BlockId id, BlockRecord* out) const {
  const Stripe& stripe = StripeFor(id);
  std::shared_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) return false;
  *out = it->second;
  return true;
}

std::vector<BlockId> BlockManager::BlocksOnMedium(MediumId medium) const {
  std::vector<BlockId> out;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock<std::shared_mutex> lock(stripe.mu);
    for (const auto& [id, record] : stripe.blocks) {
      if (std::find(record.locations.begin(), record.locations.end(),
                    medium) != record.locations.end()) {
        out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BlockManager::ForEach(
    const std::function<void(const BlockRecord&)>& fn) const {
  std::vector<BlockId> ids;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock<std::shared_mutex> lock(stripe.mu);
    for (const auto& [id, record] : stripe.blocks) ids.push_back(id);
  }
  // Ascending-id order, matching the pre-striping single map: the
  // replication monitor's decision (and rng) order stays deterministic.
  std::sort(ids.begin(), ids.end());
  BlockRecord copy;
  for (BlockId id : ids) {
    if (Snapshot(id, &copy)) fn(copy);
  }
}

int64_t BlockManager::NumBlocks() const {
  int64_t n = 0;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock<std::shared_mutex> lock(stripe.mu);
    n += static_cast<int64_t>(stripe.blocks.size());
  }
  return n;
}

void BlockManager::Reset() {
  for (Stripe& stripe : stripes_) {
    std::unique_lock<std::shared_mutex> lock(stripe.mu);
    stripe.blocks.clear();
  }
  next_block_id_.store(1, std::memory_order_relaxed);
}

}  // namespace octo

#include "topology/topology.h"

namespace octo {

Status NetworkTopology::AddNode(const NetworkLocation& location) {
  if (location.off_cluster() || location.node().empty()) {
    return Status::InvalidArgument("AddNode requires a /rack/node location: " +
                                   location.ToString());
  }
  if (!nodes_.insert(location).second) {
    return Status::AlreadyExists("node already registered: " +
                                 location.ToString());
  }
  racks_[location.rack()].insert(location.node());
  return Status::OK();
}

Status NetworkTopology::RemoveNode(const NetworkLocation& location) {
  if (nodes_.erase(location) == 0) {
    return Status::NotFound("node not registered: " + location.ToString());
  }
  auto it = racks_.find(location.rack());
  if (it != racks_.end()) {
    it->second.erase(location.node());
    if (it->second.empty()) racks_.erase(it);
  }
  return Status::OK();
}

bool NetworkTopology::ContainsNode(const NetworkLocation& location) const {
  return nodes_.count(location) > 0;
}

std::vector<std::string> NetworkTopology::Racks() const {
  std::vector<std::string> out;
  out.reserve(racks_.size());
  for (const auto& [rack, _] : racks_) out.push_back(rack);
  return out;
}

std::vector<NetworkLocation> NetworkTopology::NodesInRack(
    const std::string& rack) const {
  std::vector<NetworkLocation> out;
  auto it = racks_.find(rack);
  if (it == racks_.end()) return out;
  out.reserve(it->second.size());
  for (const std::string& node : it->second) {
    out.emplace_back(rack, node);
  }
  return out;
}

}  // namespace octo

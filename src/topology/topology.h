#ifndef OCTOPUSFS_TOPOLOGY_TOPOLOGY_H_
#define OCTOPUSFS_TOPOLOGY_TOPOLOGY_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "topology/network_location.h"

namespace octo {

/// Registry of the cluster's nodes and their rack placement. The Master
/// holds one and uses it for rack-aware placement and for computing
/// client-to-worker distances during retrieval ordering.
class NetworkTopology {
 public:
  NetworkTopology() = default;

  /// Registers a node at `location` (must be a full /rack/node location).
  Status AddNode(const NetworkLocation& location);

  /// Removes a node; NotFound when unknown.
  Status RemoveNode(const NetworkLocation& location);

  bool ContainsNode(const NetworkLocation& location) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_racks() const { return static_cast<int>(racks_.size()); }

  /// Rack names, sorted.
  std::vector<std::string> Racks() const;

  /// Nodes within one rack (empty if the rack is unknown).
  std::vector<NetworkLocation> NodesInRack(const std::string& rack) const;

 private:
  std::set<NetworkLocation> nodes_;
  std::map<std::string, std::set<std::string>> racks_;  // rack -> node names
};

}  // namespace octo

#endif  // OCTOPUSFS_TOPOLOGY_TOPOLOGY_H_

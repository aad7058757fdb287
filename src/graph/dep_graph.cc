#include "graph/dep_graph.h"

#include <algorithm>
#include <cassert>

namespace aptrace {

void DepGraph::SetStart(ObjectId start) {
  start_ = start;
  Node& n = EnsureNode(start);
  AssignHop(n, 0);
  n.state = 1;
}

DepGraph::Node& DepGraph::EnsureNode(ObjectId id) {
  auto [it, inserted] = nodes_.try_emplace(id);
  if (inserted) {
    it->second.object = id;
    it->second.hop = 0;
    it->second.state = 0;
    CountHop(0);
  }
  return it->second;
}

void DepGraph::AssignHop(Node& n, int hop) {
  if (n.hop == hop) return;
  UncountHop(n.hop);
  CountHop(hop);
  n.hop = hop;
}

void DepGraph::CountHop(int hop) {
  assert(hop >= 0);
  const auto h = static_cast<size_t>(hop);
  if (hop_counts_.size() <= h) hop_counts_.resize(h + 1, 0);
  hop_counts_[h]++;
}

void DepGraph::UncountHop(int hop) {
  hop_counts_[static_cast<size_t>(hop)]--;
  while (!hop_counts_.empty() && hop_counts_.back() == 0) {
    hop_counts_.pop_back();
  }
}

DepGraph::AddResult DepGraph::AddEventEdge(const Event& event) {
  if (edges_.count(event.id)) return AddResult::kDuplicate;

  const ObjectId src = event.FlowSource();
  const ObjectId dst = event.FlowDest();

  const bool src_new = !HasNode(src);
  const bool dst_new = !HasNode(dst);

  Edge e;
  e.event = event.id;
  e.src = src;
  e.dst = dst;
  e.timestamp = event.timestamp;
  e.action = event.action;
  e.amount = event.amount;
  edges_.emplace(event.id, e);

  Node& sn = EnsureNode(src);
  Node& dn = EnsureNode(dst);
  sn.out_edges.push_back(event.id);
  dn.in_edges.push_back(event.id);

  // Hop assignment: in backtracking we discover `src` from `dst`, so a new
  // source node is one hop farther from the start than its destination.
  if (src_new && !dst_new) {
    AssignHop(sn, dn.hop + 1);
  } else if (dst_new && !src_new) {
    AssignHop(dn, sn.hop + 1);
  } else if (!src_new && !dst_new) {
    // A shortcut edge may shorten the source's distance.
    AssignHop(sn, std::min(sn.hop, dn.hop + 1));
  }
  // Both new (disconnected seed): hops stay 0; the engine only seeds the
  // start node, so this occurs for the first edge touching the start.

  return (src_new || dst_new) ? AddResult::kNewEdgeAndNode
                              : AddResult::kNewEdge;
}

int DepGraph::HopOf(ObjectId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second.hop;
}

int DepGraph::StateOf(ObjectId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second.state;
}

void DepGraph::SetState(ObjectId id, int state) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) it->second.state = state;
}

void DepGraph::SetHop(ObjectId id, int hop) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) AssignHop(it->second, hop);
}

void DepGraph::ClearStates() {
  for (auto& [id, node] : nodes_) {
    node.state = (id == start_) ? 1 : 0;
  }
}

size_t DepGraph::RemoveNodesIf(const std::function<bool(ObjectId)>& pred) {
  std::vector<ObjectId> doomed;
  for (const auto& [id, node] : nodes_) {
    (void)node;
    if (id != start_ && pred(id)) doomed.push_back(id);
  }
  for (ObjectId id : doomed) {
    Node& victim = nodes_.at(id);
    // Collect incident edge ids, then remove them from both endpoints.
    std::vector<EventId> incident = victim.in_edges;
    incident.insert(incident.end(), victim.out_edges.begin(),
                    victim.out_edges.end());
    std::sort(incident.begin(), incident.end());
    incident.erase(std::unique(incident.begin(), incident.end()),
                   incident.end());
    for (EventId eid : incident) {
      auto eit = edges_.find(eid);
      if (eit == edges_.end()) continue;
      const Edge edge = eit->second;
      edges_.erase(eit);
      for (ObjectId endpoint : {edge.src, edge.dst}) {
        if (endpoint == id) continue;
        auto nit = nodes_.find(endpoint);
        if (nit == nodes_.end()) continue;
        auto strip = [eid](std::vector<EventId>& v) {
          v.erase(std::remove(v.begin(), v.end(), eid), v.end());
        };
        strip(nit->second.in_edges);
        strip(nit->second.out_edges);
      }
    }
    UncountHop(victim.hop);
    nodes_.erase(id);
  }
  return doomed.size();
}

size_t DepGraph::RemoveEdgesIf(
    const std::function<bool(const Edge&)>& pred) {
  std::vector<EventId> doomed;
  for (const auto& [id, edge] : edges_) {
    (void)id;
    if (pred(edge)) doomed.push_back(edge.event);
  }
  for (EventId eid : doomed) {
    auto eit = edges_.find(eid);
    if (eit == edges_.end()) continue;
    const Edge edge = eit->second;
    edges_.erase(eit);
    for (ObjectId endpoint : {edge.src, edge.dst}) {
      auto nit = nodes_.find(endpoint);
      if (nit == nodes_.end()) continue;
      auto strip = [eid](std::vector<EventId>& v) {
        v.erase(std::remove(v.begin(), v.end(), eid), v.end());
      };
      strip(nit->second.in_edges);
      strip(nit->second.out_edges);
    }
  }
  return doomed.size();
}

void DepGraph::ForEachNode(const std::function<void(const Node&)>& fn) const {
  for (const auto& [id, node] : nodes_) {
    (void)id;
    fn(node);
  }
}

void DepGraph::ForEachEdge(const std::function<void(const Edge&)>& fn) const {
  for (const auto& [id, edge] : edges_) {
    (void)id;
    fn(edge);
  }
}

std::vector<ObjectId> DepGraph::NodeIds() const {
  std::vector<ObjectId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    (void)node;
    out.push_back(id);
  }
  return out;
}

}  // namespace aptrace

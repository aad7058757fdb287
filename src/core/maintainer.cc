#include "core/maintainer.h"

#include <deque>
#include <vector>

namespace aptrace {

namespace {

bool CompareAmounts(bdl::CompareOp op, uint64_t down, uint64_t up) {
  switch (op) {
    case bdl::CompareOp::kLt: return down < up;
    case bdl::CompareOp::kLe: return down <= up;
    case bdl::CompareOp::kGt: return down > up;
    case bdl::CompareOp::kGe: return down >= up;
    case bdl::CompareOp::kEq: return down == up;
    case bdl::CompareOp::kNe: return down != up;
  }
  return false;
}

}  // namespace

GraphMaintainer::GraphMaintainer(const TrackingContext* ctx, DepGraph* graph)
    : ctx_(ctx), graph_(graph) {}

void GraphMaintainer::UpdateContext(const TrackingContext* ctx) {
  ctx_ = ctx;
  end_point_reached_ = false;
}

bool GraphMaintainer::NodeMatchesPattern(size_t chain_index, ObjectId node,
                                         const Event* event) const {
  const auto& chain = ctx_->spec.chain;
  if (chain_index >= chain.size()) return false;
  bdl::EvalContext ectx;
  const SystemObject& obj = ctx_->store->catalog().Get(node);
  ectx.object = &obj;
  ectx.event = event;
  ectx.catalog = &ctx_->store->catalog();
  ectx.derived = ctx_->derived.get();
  return chain[chain_index].Matches(ectx);
}

int GraphMaintainer::StateAfterEdge(int known_state, ObjectId fresh,
                                    const Event& event) const {
  const int k = static_cast<int>(ctx_->spec.chain.size());
  if (known_state <= 0) return 0;  // discoverer not on an explored path
  if (known_state >= k) return known_state;  // already a full match: carry
  // chain[known_state] is the next pattern n_{known_state+1} (0-based).
  if (NodeMatchesPattern(static_cast<size_t>(known_state), fresh, &event)) {
    return known_state + 1;
  }
  return known_state;  // carry the matched prefix along the path
}

int GraphMaintainer::OnEdgeAdded(const Event& event) {
  FeedRules(event);

  const bool fwd = ctx_->spec.direction == bdl::TrackDirection::kForward;
  const ObjectId known = fwd ? event.FlowSource() : event.FlowDest();
  const ObjectId fresh = fwd ? event.FlowDest() : event.FlowSource();
  if (!graph_->HasNode(known) || !graph_->HasNode(fresh)) return 0;

  const int k = static_cast<int>(ctx_->spec.chain.size());
  const int proposed = StateAfterEdge(graph_->StateOf(known), fresh, event);
  if (proposed <= graph_->StateOf(fresh)) return graph_->StateOf(fresh);

  // The discovered node's state improved: cascade through neighbours
  // already explored from it (exploration walks against the flow for
  // backward tracking, with it for forward tracking).
  graph_->SetState(fresh, proposed);
  if (k >= 2 && proposed >= k) end_point_reached_ = true;
  std::deque<ObjectId> queue{fresh};
  while (!queue.empty()) {
    const ObjectId node = queue.front();
    queue.pop_front();
    const int node_state = graph_->StateOf(node);
    const auto& node_edges = fwd ? graph_->GetNode(node).out_edges
                                 : graph_->GetNode(node).in_edges;
    for (EventId eid : node_edges) {
      const DepGraph::Edge& edge = graph_->GetEdge(eid);
      const ObjectId next_node = fwd ? edge.dst : edge.src;
      const int next = StateAfterEdge(node_state, next_node, edge.row());
      if (next > graph_->StateOf(next_node)) {
        graph_->SetState(next_node, next);
        if (k >= 2 && next >= k) end_point_reached_ = true;
        queue.push_back(next_node);
      }
    }
  }
  return graph_->StateOf(fresh);
}

void GraphMaintainer::RepropagateStates() {
  graph_->ClearStates();
  end_point_reached_ = false;
  const bool fwd = ctx_->spec.direction == bdl::TrackDirection::kForward;
  const int k = static_cast<int>(ctx_->spec.chain.size());
  if (!graph_->HasNode(graph_->start())) return;
  std::deque<ObjectId> queue{graph_->start()};
  while (!queue.empty()) {
    const ObjectId node = queue.front();
    queue.pop_front();
    const int node_state = graph_->StateOf(node);
    const auto& node_edges = fwd ? graph_->GetNode(node).out_edges
                                 : graph_->GetNode(node).in_edges;
    for (EventId eid : node_edges) {
      const DepGraph::Edge& edge = graph_->GetEdge(eid);
      const ObjectId next_node = fwd ? edge.dst : edge.src;
      const int next = StateAfterEdge(node_state, next_node, edge.row());
      if (next > graph_->StateOf(next_node)) {
        graph_->SetState(next_node, next);
        if (k >= 2 && next >= k) end_point_reached_ = true;
        queue.push_back(next_node);
      }
    }
  }
}

bool GraphMaintainer::EventMatchesRulePattern(
    const Event& event, const bdl::QuantityRule::EventPattern& p) const {
  const SystemObject& obj = ctx_->store->catalog().Get(event.object);
  if (p.object_type.has_value() && obj.type() != *p.object_type) return false;
  bdl::EvalContext ectx;
  ectx.object = &obj;
  ectx.event = &event;
  ectx.catalog = &ctx_->store->catalog();
  ectx.derived = ctx_->derived.get();
  return bdl::ConditionMatches(p.cond.get(), ectx);
}

void GraphMaintainer::FeedRules(const Event& event) {
  const auto& rules = ctx_->spec.prioritize;
  for (size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].chain.size() < 2) continue;
    const auto& upstream = rules[r].chain[0];
    const auto& downstream = rules[r].chain[1];
    // The pivot is the process the data moves through: the flow
    // destination of the upstream event, the flow source of the
    // downstream one.
    if (EventMatchesRulePattern(event, upstream)) {
      const ObjectId pivot = event.FlowDest();
      if (ctx_->store->catalog().Get(pivot).is_process()) {
        RuleProgress& p = rule_progress_[{r, pivot}];
        p.upstream_seen = true;
        p.upstream_amount = std::max(p.upstream_amount, event.amount);
        if (p.downstream_seen &&
            (!downstream.amount_vs_upstream ||
             CompareAmounts(downstream.amount_op, p.downstream_amount,
                            p.upstream_amount))) {
          boosted_.insert(pivot);
        }
      }
    }
    if (EventMatchesRulePattern(event, downstream)) {
      const ObjectId pivot = event.FlowSource();
      if (ctx_->store->catalog().Get(pivot).is_process()) {
        RuleProgress& p = rule_progress_[{r, pivot}];
        p.downstream_seen = true;
        p.downstream_amount = std::max(p.downstream_amount, event.amount);
        if (p.upstream_seen &&
            (!downstream.amount_vs_upstream ||
             CompareAmounts(downstream.amount_op, p.downstream_amount,
                            p.upstream_amount))) {
          boosted_.insert(pivot);
        }
      }
    }
  }
}

void GraphMaintainer::RecomputeBoosts() {
  rule_progress_.clear();
  boosted_.clear();
  graph_->ForEachEdge([&](const DepGraph::Edge& edge) {
    FeedRules(edge.row());
  });
}

size_t GraphMaintainer::PruneUnreachable() {
  if (!graph_->HasNode(graph_->start())) return 0;
  std::unordered_set<ObjectId> reachable;
  std::deque<ObjectId> queue{graph_->start()};
  reachable.insert(graph_->start());
  while (!queue.empty()) {
    const ObjectId node = queue.front();
    queue.pop_front();
    const DepGraph::Node& n = graph_->GetNode(node);
    for (const auto* edges : {&n.in_edges, &n.out_edges}) {
      for (EventId eid : *edges) {
        const DepGraph::Edge& edge = graph_->GetEdge(eid);
        for (ObjectId other : {edge.src, edge.dst}) {
          if (reachable.insert(other).second) queue.push_back(other);
        }
      }
    }
  }
  return graph_->RemoveNodesIf(
      [&](ObjectId id) { return reachable.count(id) == 0; });
}

size_t GraphMaintainer::PruneToMatchedPaths() {
  const int k = static_cast<int>(ctx_->spec.chain.size());
  if (k < 2) return 0;
  RepropagateStates();
  if (!end_point_reached_) return 0;

  // Nodes with a full match are the path ends; walk back towards the
  // start along the reverse of the exploration direction.
  const bool fwd = ctx_->spec.direction == bdl::TrackDirection::kForward;
  std::unordered_set<ObjectId> keep;
  std::deque<ObjectId> queue;
  graph_->ForEachNode([&](const DepGraph::Node& n) {
    if (n.state >= k) {
      keep.insert(n.object);
      queue.push_back(n.object);
    }
  });
  while (!queue.empty()) {
    const ObjectId node = queue.front();
    queue.pop_front();
    const auto& node_edges = fwd ? graph_->GetNode(node).in_edges
                                 : graph_->GetNode(node).out_edges;
    for (EventId eid : node_edges) {
      const DepGraph::Edge& edge = graph_->GetEdge(eid);
      const ObjectId toward_start = fwd ? edge.src : edge.dst;
      if (keep.insert(toward_start).second) queue.push_back(toward_start);
    }
  }
  keep.insert(graph_->start());
  return graph_->RemoveNodesIf(
      [&](ObjectId id) { return keep.count(id) == 0; });
}

}  // namespace aptrace

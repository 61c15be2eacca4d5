#include "mdag/auto_partition.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "mdag/io_volume.hpp"

namespace fblas::mdag {
namespace {

/// Reachability over the DAG (from -> to through >= 0 edges).
bool reachable(const Mdag& g, int from, int to) {
  if (from == to) return true;
  return count_paths(g, from, to) > 0;
}

/// Number of compute vertices on the shortest path from `from` to `to`
/// (BFS; interface vertices are free).
int compute_hops(const Mdag& g, int from, int to) {
  std::vector<int> dist(g.nodes().size(), -1);
  std::vector<int> queue{from};
  dist[static_cast<std::size_t>(from)] = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int u = queue[qi];
    for (const Edge& e : g.edges()) {
      if (e.from != u) continue;
      const int cost = g.node(e.to).type == NodeType::Compute ? 1 : 0;
      const int nd = dist[static_cast<std::size_t>(u)] + cost;
      auto& dv = dist[static_cast<std::size_t>(e.to)];
      if (dv == -1 || nd < dv) {
        dv = nd;
        queue.push_back(e.to);
      }
    }
  }
  return dist[static_cast<std::size_t>(to)];
}

}  // namespace

std::vector<ChannelSizing> required_channel_depths(const Mdag& g) {
  std::vector<ChannelSizing> sizings;
  for (const DisjointPairIssue& issue : disjoint_path_issues(g)) {
    // Among the sink's incoming edges reachable from the source, the one
    // on the path with the fewest compute vertices is the "early" stream
    // that must buffer while the other paths crunch their data.
    int best_edge = -1;
    int best_hops = 1 << 30;
    std::int64_t lag = 0;
    for (int ei = 0; ei < static_cast<int>(g.edges().size()); ++ei) {
      const Edge& e = g.edge(ei);
      if (e.to != issue.to) continue;
      if (!reachable(g, issue.from, e.from)) continue;
      const int hops = compute_hops(g, issue.from, e.from);
      if (hops < best_hops) {
        best_hops = hops;
        best_edge = ei;
      }
      // The lag is set by the slowest sibling path's first output.
      lag = std::max(lag, e.produced.first_output_lag());
    }
    if (best_edge >= 0) {
      sizings.push_back({best_edge, lag});
    }
  }
  // Deduplicate edges, keeping the largest requirement.
  std::sort(sizings.begin(), sizings.end(),
            [](const ChannelSizing& a, const ChannelSizing& b) {
              return a.edge < b.edge ||
                     (a.edge == b.edge && a.min_depth > b.min_depth);
            });
  sizings.erase(std::unique(sizings.begin(), sizings.end(),
                            [](const ChannelSizing& a,
                               const ChannelSizing& b) {
                              return a.edge == b.edge;
                            }),
                sizings.end());
  return sizings;
}

Plan derive_plan(const Mdag& g, const PlanOptions& options) {
  const auto edge_issues = validate_edges(g);
  if (!edge_issues.empty()) {
    throw ConfigError(
        "composition has invalid edges (count/order mismatch); no schedule "
        "can fix it: " + edge_issues.front().reason);
  }
  Plan plan;
  const auto issues = disjoint_path_issues(g);
  if (issues.empty()) {
    // Already a valid streaming composition.
    Component all;
    for (int i = 0; i < g.node_count(); ++i) all.nodes.push_back(i);
    plan.feasible = true;
    plan.components = {all};
    plan.io_ops = total_io_ops(g);
    plan.cycles = streaming_cycles(g, options.width);
    plan.explanation = "composition is a valid multitree: fully streaming";
    return plan;
  }
  // Option (a): size the offending channels.
  if (options.prefer_sizing) {
    const auto sizings = required_channel_depths(g);
    // A pinned channel is the caller's choice, not the budget's.
    const bool fits = std::all_of(
        sizings.begin(), sizings.end(), [&](const ChannelSizing& s) {
          return s.min_depth <= options.max_channel_depth ||
                 g.edge(s.edge).channel_depth.has_value();
        });
    if (fits && !sizings.empty()) {
      Component all;
      for (int i = 0; i < g.node_count(); ++i) all.nodes.push_back(i);
      plan.feasible = true;
      plan.sizings = sizings;
      plan.components = {all};
      plan.io_ops = total_io_ops(g);
      plan.cycles = streaming_cycles(g, options.width);
      std::ostringstream os;
      os << "fully streaming with " << sizings.size()
         << " sized channel(s):";
      for (const auto& s : sizings) {
        os << " [" << g.node(g.edge(s.edge).from).name << " -> "
           << g.node(g.edge(s.edge).to).name << "] >= " << s.min_depth;
      }
      plan.explanation = os.str();
      return plan;
    }
  }
  // Option (b): greedy topological split into valid components.
  std::vector<Component> parts;
  Component current;
  for (const int v : g.topo_order()) {
    Component tentative = current;
    tentative.nodes.push_back(v);
    const Mdag sub = component_subgraph(g, tentative);
    if (disjoint_path_issues(sub).empty()) {
      current = std::move(tentative);
    } else {
      parts.push_back(current);
      current = Component{{v}};
    }
  }
  if (!current.nodes.empty()) parts.push_back(current);
  const auto cost = partition_cost(g, parts, options.width);
  plan.feasible = true;
  plan.components = parts;
  plan.io_ops = cost.io_ops;
  plan.cycles = cost.cycles;
  std::ostringstream os;
  os << "split into " << parts.size()
     << " sequential streaming components (cut edges round-trip DRAM)";
  plan.explanation = os.str();
  return plan;
}

}  // namespace fblas::mdag

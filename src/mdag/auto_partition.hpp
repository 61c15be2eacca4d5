// Automatic derivation of a valid execution plan for an arbitrary MDAG —
// the "full general case analysis ... that could help the user in
// deriving valid FBLAS compositions", which the paper leaves as future
// work (Sec. V / VIII).
//
// Given a composition that is invalid because of vertex-disjoint path
// pairs, the planner can either
//   (a) size the offending channels (when the input sizes are known and
//       the buffers fit on chip), or
//   (b) cut a minimal set of edges and split the MDAG into sequential
//       streaming components, each of which is a valid multitree.
// The planner prefers (b) cuts that minimize the extra DRAM traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "mdag/graph.hpp"
#include "mdag/schedule.hpp"
#include "mdag/validity.hpp"

namespace fblas::mdag {

/// One resolution option for an invalid composition.
struct ChannelSizing {
  int edge;                    ///< edge whose FIFO must grow
  std::int64_t min_depth;      ///< required capacity in elements
};

struct Plan {
  /// True when the composition (or every component of the partition) is
  /// valid and can execute.
  bool feasible = false;
  /// Channel sizings applied (empty when the graph was split instead).
  std::vector<ChannelSizing> sizings;
  /// Sequential components (a single component = fully streaming).
  std::vector<Component> components;
  /// Total DRAM I/O of the plan, including cut-edge round trips.
  std::int64_t io_ops = 0;
  /// Completion estimate at width 1 (streaming_cycles summed over
  /// components).
  double cycles = 0;
  std::string explanation;
};

struct PlanOptions {
  /// Largest FIFO the planner may allocate on chip, in elements. Edges
  /// whose lag exceeds this cannot be resolved by sizing (b) applies,
  /// unless their depth is pinned (Edge::channel_depth).
  std::int64_t max_channel_depth = 1 << 16;
  /// When true the planner prefers sizing channels over splitting, as
  /// long as the depth budget allows it.
  bool prefer_sizing = true;
  int width = 1;  ///< vectorization width for the cycle estimate
};

/// For each vertex-disjoint-path issue, the channel that would need
/// sizing (the direct edge of the shorter path) and the depth it needs:
/// the volume the longer path buffers before producing its first output,
/// approximated by the largest edge volume on the longer path.
std::vector<ChannelSizing> required_channel_depths(const Mdag& g);

/// Derives an execution plan: a fully-streaming plan with channel
/// sizings when possible, otherwise a minimal sequential partition whose
/// components are individually valid. Throws ConfigError for edge-invalid
/// graphs (mismatched counts/orders cannot be fixed by scheduling).
Plan derive_plan(const Mdag& g, const PlanOptions& options = {});

}  // namespace fblas::mdag

// Immutable undirected unweighted graph in compressed-sparse-row form.
//
// This is the topology substrate of the library: the Internet AS-level graph
// (paper Sec. 2.1) is loaded/generated into a Graph, and every algorithm
// (clique enumeration, percolation, k-core, k-dense, metrics) reads it
// through this interface. Neighbour lists are sorted, enabling O(deg)
// merge-based intersection, which dominates clique-enumeration cost.
//
// Invariants: no self-loops, no parallel edges, adjacency sorted ascending.
// Construct through GraphBuilder (which establishes the invariants) or the
// checked Graph::from_edges factory.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace kcc {

class GraphBuilder;

class Graph {
 public:
  /// Empty graph.
  Graph() = default;

  /// Builds a graph with `num_nodes` nodes from an edge list. Self-loops are
  /// rejected; duplicate edges (in either orientation) are merged.
  static Graph from_edges(std::size_t num_nodes,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  std::size_t num_nodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_edges() const { return adjacency_.size() / 2; }

  /// Sorted neighbours of `v`.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  std::size_t degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Edge test over the smaller adjacency list: linear scan for short
  /// lists, galloping (exponential bracket + binary search) for hub lists.
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges as (u, v) pairs with u < v, ordered by (u, v).
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Fraction of present edges over possible edges; 0 for graphs with < 2
  /// nodes.
  double density() const;

  /// Maximum degree over all nodes (0 for the empty graph).
  std::size_t max_degree() const;

 private:
  friend class GraphBuilder;

  std::vector<std::size_t> offsets_;  // size num_nodes + 1
  std::vector<NodeId> adjacency_;     // size 2 * num_edges
};

/// Incremental edge collector that produces a canonical Graph.
///
/// add_edge accepts edges in any order and orientation; self-loops raise
/// kcc::Error (the AS topology is loop-free by construction) and duplicates
/// are merged silently, matching the paper's "spurious data removed" step.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes = 0);

  /// Grows the node count to at least `num_nodes`.
  void ensure_nodes(std::size_t num_nodes);

  std::size_t num_nodes() const { return num_nodes_; }

  /// Reserves room for `num_edges` add_edge calls.
  void reserve_edges(std::size_t num_edges) { edges_.reserve(num_edges); }

  /// Records the undirected edge {u, v}; grows the node count as needed.
  void add_edge(NodeId u, NodeId v);

  /// Finalises into a Graph. The builder is left empty.
  Graph build();

 private:
  std::size_t num_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace kcc

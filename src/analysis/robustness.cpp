#include "analysis/robustness.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "cpm/engine.h"
#include "graph/graph_algorithms.h"
#include "graph/subgraph.h"

namespace kcc {

std::vector<RobustnessPoint> community_robustness(
    const Graph& g, const RobustnessOptions& options) {
  require(g.num_nodes() > 0, "community_robustness: empty graph");
  for (double f : options.fractions) {
    require(f > 0.0 && f < 1.0,
            "community_robustness: fractions must be in (0, 1)");
  }

  // Removal order shared by all points (cumulative removal).
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
  if (options.policy == RemovalPolicy::kTargetedByDegree) {
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
      return a < b;
    });
  } else {
    Rng rng(options.seed);
    rng.shuffle(order);
  }

  std::vector<RobustnessPoint> out;
  for (double fraction : options.fractions) {
    const auto removed_count = static_cast<std::size_t>(
        fraction * double(g.num_nodes()));
    NodeSet survivors;
    std::vector<bool> removed(g.num_nodes(), false);
    for (std::size_t i = 0; i < removed_count; ++i) removed[order[i]] = true;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!removed[v]) survivors.push_back(v);
    }
    const InducedSubgraph sub = induced_subgraph(g, survivors);

    RobustnessPoint point;
    point.removed_fraction = fraction;
    point.nodes_left = sub.graph.num_nodes();
    point.edges_left = sub.graph.num_edges();
    point.giant_component = largest_component(sub.graph).size();
    const CpmResult result = cpm::Engine().run(sub.graph).cpm;
    point.total_communities = result.total_communities();
    point.max_k = result.max_k >= result.min_k ? result.max_k : 0;
    out.push_back(point);
  }
  return out;
}

}  // namespace kcc

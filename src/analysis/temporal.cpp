#include "analysis/temporal.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "cpm/engine.h"
#include "metrics/similarity.h"

namespace kcc {

Graph churn_step(const Graph& topology, const ChurnParams& params,
                 std::uint64_t seed) {
  require(topology.num_nodes() >= 10, "churn_step: graph too small");
  Rng rng(seed);
  auto edges = topology.edges();

  // Drop a fraction of edges, but never disconnect a degree-1 node: track
  // residual degrees and refuse drops that would strand an endpoint.
  std::vector<std::size_t> degree(topology.num_nodes());
  for (NodeId v = 0; v < topology.num_nodes(); ++v) {
    degree[v] = topology.degree(v);
  }
  std::vector<std::pair<NodeId, NodeId>> kept;
  kept.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    const bool droppable = degree[u] > 1 && degree[v] > 1;
    if (droppable && rng.next_bool(params.edge_drop_fraction)) {
      --degree[u];
      --degree[v];
      continue;
    }
    kept.push_back({u, v});
  }

  // Rewire a fraction of low-degree ("stub-like") nodes: move one of their
  // edges to a random high-degree target.
  const std::size_t rewires = static_cast<std::size_t>(
      params.stub_rewire_fraction * double(topology.num_nodes()));
  // High-degree targets: the top decile.
  std::vector<NodeId> by_degree(topology.num_nodes());
  for (NodeId v = 0; v < topology.num_nodes(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [&](NodeId a, NodeId b) {
    return topology.degree(a) > topology.degree(b);
  });
  const std::size_t top = std::max<std::size_t>(1, by_degree.size() / 10);
  for (std::size_t i = 0; i < rewires; ++i) {
    const NodeId v =
        static_cast<NodeId>(rng.next_below(topology.num_nodes()));
    const NodeId target = by_degree[rng.next_below(top)];
    if (target != v) kept.push_back({std::min(v, target), std::max(v, target)});
  }

  // Fresh attachment edges (new customers multi-homing).
  for (std::size_t i = 0; i < params.new_edges; ++i) {
    const NodeId v =
        static_cast<NodeId>(rng.next_below(topology.num_nodes()));
    const NodeId target = by_degree[rng.next_below(top)];
    if (target != v) kept.push_back({std::min(v, target), std::max(v, target)});
  }

  return Graph::from_edges(topology.num_nodes(), kept);
}

std::vector<CommunityEvent> match_communities(
    const std::vector<NodeSet>& before, const std::vector<NodeSet>& after,
    double min_jaccard) {
  const auto forward = best_matches(before, after);
  const auto backward = best_matches(after, before);

  std::vector<CommunityEvent> events;
  std::vector<bool> after_matched(after.size(), false);
  for (std::size_t i = 0; i < before.size(); ++i) {
    const BestMatch& match = forward[i];
    const bool mutual =
        match.index >= 0 && match.jaccard >= min_jaccard &&
        backward[static_cast<std::size_t>(match.index)].index ==
            static_cast<int>(i);
    if (mutual) {
      CommunityEvent event;
      event.kind = CommunityEvent::Kind::kSurvived;
      event.from_index = static_cast<int>(i);
      event.to_index = match.index;
      event.jaccard = match.jaccard;
      event.size_change =
          static_cast<std::ptrdiff_t>(after[match.index].size()) -
          static_cast<std::ptrdiff_t>(before[i].size());
      after_matched[match.index] = true;
      events.push_back(event);
    } else {
      CommunityEvent event;
      event.kind = CommunityEvent::Kind::kDied;
      event.from_index = static_cast<int>(i);
      events.push_back(event);
    }
  }
  for (std::size_t j = 0; j < after.size(); ++j) {
    if (!after_matched[j]) {
      CommunityEvent event;
      event.kind = CommunityEvent::Kind::kBorn;
      event.to_index = static_cast<int>(j);
      events.push_back(event);
    }
  }
  return events;
}

TemporalSummary track_communities(const Graph& initial, std::size_t k,
                                  std::size_t steps,
                                  const ChurnParams& params,
                                  std::uint64_t seed) {
  TemporalSummary summary;
  summary.steps = steps;

  auto communities_of = [&](const Graph& g) {
    cpm::Options options;
    options.min_k = std::max<std::size_t>(2, k);
    options.max_k = k;
    const CpmResult result = cpm::Engine(options).run(g).cpm;
    std::vector<NodeSet> out;
    if (result.has_k(k)) {
      for (const auto& c : result.at(k).communities) out.push_back(c.nodes);
    }
    return out;
  };

  Graph current = initial;
  std::vector<NodeSet> communities = communities_of(current);
  summary.community_counts.push_back(communities.size());

  double jaccard_sum = 0.0;
  for (std::size_t step = 0; step < steps; ++step) {
    current = churn_step(current, params, seed + step + 1);
    std::vector<NodeSet> next = communities_of(current);
    for (const CommunityEvent& event :
         match_communities(communities, next)) {
      switch (event.kind) {
        case CommunityEvent::Kind::kSurvived:
          ++summary.survivals;
          jaccard_sum += event.jaccard;
          break;
        case CommunityEvent::Kind::kBorn:
          ++summary.births;
          break;
        case CommunityEvent::Kind::kDied:
          ++summary.deaths;
          break;
      }
    }
    communities = std::move(next);
    summary.community_counts.push_back(communities.size());
  }
  if (summary.survivals > 0) {
    summary.mean_survivor_jaccard = jaccard_sum / double(summary.survivals);
  }
  return summary;
}

}  // namespace kcc

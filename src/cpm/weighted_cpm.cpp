#include "cpm/weighted_cpm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/set_ops.h"
#include "common/union_find.h"
#include "cpm/clique_index.h"

namespace kcc {

double clique_intensity(const Graph& g, const EdgeWeights& weights,
                        const NodeSet& nodes) {
  require(nodes.size() >= 2, "clique_intensity: need at least two nodes");
  double log_sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      require(g.has_edge(nodes[i], nodes[j]),
              "clique_intensity: nodes do not form a clique");
      log_sum += std::log(weights.weight(nodes[i], nodes[j]));
      ++pairs;
    }
  }
  return std::exp(log_sum / static_cast<double>(pairs));
}

namespace {

// Ordered k-clique enumeration with an intensity accumulator: extend the
// current clique only with larger-id common neighbours, carrying the log
// weight sum so intensity falls out without re-scanning pairs.
struct Enumerator {
  const Graph& g;
  const EdgeWeights& weights;
  std::size_t k;
  double log_threshold_total;  // log(I) * C(k,2); -inf disables
  std::size_t max_cliques;
  std::vector<NodeSet> out;

  void run() {
    NodeSet current;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      current.assign(1, v);
      NodeSet candidates;
      for (NodeId w : g.neighbors(v)) {
        if (w > v) candidates.push_back(w);
      }
      extend(current, candidates, 0.0);
    }
  }

  void extend(NodeSet& current, const NodeSet& candidates, double log_sum) {
    if (current.size() == k) {
      // Total pairs C(k,2); keep when log_sum >= log_threshold_total.
      if (log_sum >= log_threshold_total) {
        require(max_cliques == 0 || out.size() < max_cliques,
                "weighted_k_clique_communities: clique budget exceeded");
        out.push_back(current);
      }
      return;
    }
    if (current.size() + candidates.size() < k) return;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const NodeId v = candidates[i];
      // Weights of v against the current clique.
      double added = 0.0;
      for (NodeId m : current) added += std::log(weights.weight(m, v));
      NodeSet next;
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        if (g.has_edge(v, candidates[j])) next.push_back(candidates[j]);
      }
      current.push_back(v);
      extend(current, next, log_sum + added);
      current.pop_back();
    }
  }
};

// Percolates k-cliques: two are adjacent when they share k - 1 nodes,
// counted through the node -> clique index by count_overlaps.
UnionFind percolate(const std::vector<NodeSet>& cliques, std::size_t num_nodes,
                    std::size_t k) {
  UnionFind uf(cliques.size());
  const auto index = build_node_clique_index(cliques, num_nodes);
  std::vector<std::uint32_t> count(cliques.size(), 0);
  std::vector<CliqueId> touched(cliques.size() + 1);
  std::vector<std::uint32_t> overlap(cliques.size());
  for (CliqueId c = 0; c < cliques.size(); ++c) {
    const OverlapCounts counts = count_overlaps(
        [&](auto&& hit) {
          for (NodeId v : cliques[c]) {
            for (CliqueId other : index[v]) {
              if (other >= c) break;
              hit(other);
            }
          }
        },
        count.data(), touched.data(), overlap.data(),
        static_cast<std::uint32_t>(k - 1));
    for (std::size_t i = 0; i < counts.kept; ++i) uf.unite(c, touched[i]);
  }
  return uf;
}

}  // namespace

std::vector<NodeSet> weighted_k_clique_communities(
    const Graph& g, const EdgeWeights& weights,
    const WeightedCpmOptions& options) {
  require(options.k >= 2, "weighted_k_clique_communities: k must be >= 2");
  const double pairs =
      double(options.k) * double(options.k - 1) / 2.0;
  Enumerator enumerator{
      g, weights, options.k,
      options.intensity_threshold > 0.0
          ? std::log(options.intensity_threshold) * pairs
          : -std::numeric_limits<double>::infinity(),
      options.max_cliques,
      {}};
  enumerator.run();
  const std::vector<NodeSet>& cliques = enumerator.out;

  UnionFind uf = percolate(cliques, g.num_nodes(), options.k);
  std::vector<NodeSet> communities;
  for (const auto& group : uf.groups()) {
    NodeSet nodes;
    for (std::uint32_t c : group) {
      nodes.insert(nodes.end(), cliques[c].begin(), cliques[c].end());
    }
    sort_unique(nodes);
    communities.push_back(std::move(nodes));
  }
  std::sort(communities.begin(), communities.end());
  return communities;
}

std::vector<IntensitySweepPoint> intensity_sweep(
    const Graph& g, const EdgeWeights& weights, std::size_t k,
    const std::vector<double>& thresholds) {
  // Enumerate once at the lowest threshold, then filter by the per-clique
  // intensity for each sweep point (the enumeration is the expensive part).
  require(!thresholds.empty(), "intensity_sweep: need at least one threshold");
  const double lowest = *std::min_element(thresholds.begin(), thresholds.end());
  WeightedCpmOptions base;
  base.k = k;
  base.intensity_threshold = lowest;
  Enumerator enumerator{
      g, weights, k,
      lowest > 0.0 ? std::log(lowest) * double(k) * double(k - 1) / 2.0
                   : -std::numeric_limits<double>::infinity(),
      base.max_cliques,
      {}};
  enumerator.run();
  std::vector<double> intensities;
  intensities.reserve(enumerator.out.size());
  for (const NodeSet& clique : enumerator.out) {
    intensities.push_back(clique_intensity(g, weights, clique));
  }

  std::vector<IntensitySweepPoint> out;
  for (double threshold : thresholds) {
    IntensitySweepPoint point;
    point.threshold = threshold;
    // Percolate over the surviving subset.
    std::vector<NodeSet> cliques;
    for (std::size_t i = 0; i < enumerator.out.size(); ++i) {
      if (intensities[i] >= threshold || threshold <= 0.0) {
        cliques.push_back(enumerator.out[i]);
      }
    }
    point.surviving_cliques = cliques.size();

    UnionFind uf = percolate(cliques, g.num_nodes(), k);
    point.community_count = uf.set_count();
    for (auto& group : uf.groups()) {
      NodeSet nodes;
      for (std::uint32_t c : group) {
        nodes.insert(nodes.end(), cliques[c].begin(), cliques[c].end());
      }
      sort_unique(nodes);
      point.largest_community = std::max(point.largest_community, nodes.size());
    }
    out.push_back(point);
  }
  return out;
}

}  // namespace kcc

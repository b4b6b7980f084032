#include "analysis/percolation_threshold.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "cpm/engine.h"
#include "graph/graph.h"

namespace kcc {

double critical_probability(std::size_t n, std::size_t k) {
  require(n >= 2 && k >= 2, "critical_probability: need n >= 2, k >= 2");
  return std::pow(double(k - 1) * double(n), -1.0 / double(k - 1));
}

std::vector<PercolationPoint> percolation_sweep(
    const PercolationSweepOptions& options) {
  require(options.trials >= 1, "percolation_sweep: trials must be >= 1");
  const double pc = critical_probability(options.n, options.k);

  std::vector<PercolationPoint> out;
  Rng rng(options.seed);
  for (double ratio : options.ratios) {
    const double p = std::min(1.0, ratio * pc);
    PercolationPoint point;
    point.p = p;
    point.p_over_pc = ratio;

    double communities_sum = 0.0, largest_sum = 0.0;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      GraphBuilder builder(options.n);
      for (NodeId i = 0; i < options.n; ++i) {
        for (NodeId j = i + 1; j < options.n; ++j) {
          if (rng.next_bool(p)) builder.add_edge(i, j);
        }
      }
      builder.ensure_nodes(options.n);
      const Graph g = builder.build();

      cpm::Options cpm_options;
      cpm_options.min_k = std::max<std::size_t>(2, options.k);
      cpm_options.max_k = options.k;
      const CpmResult result = cpm::Engine(cpm_options).run(g).cpm;
      std::size_t communities = 0, largest = 0;
      if (result.has_k(options.k)) {
        communities = result.at(options.k).count();
        for (const Community& c : result.at(options.k).communities) {
          largest = std::max(largest, c.size());
        }
      }
      communities_sum += double(communities);
      largest_sum += double(largest);
    }
    point.communities = static_cast<std::size_t>(
        communities_sum / double(options.trials) + 0.5);
    point.largest = static_cast<std::size_t>(
        largest_sum / double(options.trials) + 0.5);
    point.largest_fraction =
        largest_sum / double(options.trials) / double(options.n);
    out.push_back(point);
  }
  return out;
}

}  // namespace kcc

#include "clique/bron_kerbosch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "clique/clique_stats.h"
#include "clique/enumerator.h"
#include "clique/reference_enumerator.h"
#include "common/error.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::make_graph;
using testing::random_graph;

std::vector<NodeSet> sorted_cliques(std::vector<NodeSet> cliques) {
  std::sort(cliques.begin(), cliques.end());
  return cliques;
}

TEST(BronKerbosch, CompleteGraphSingleClique) {
  const auto cliques = maximal_cliques(complete_graph(7));
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].size(), 7u);
}

TEST(BronKerbosch, EmptyAndIsolatedGraphs) {
  EXPECT_TRUE(maximal_cliques(Graph{}).empty());
  GraphBuilder b;
  b.ensure_nodes(3);
  const auto cliques = maximal_cliques(b.build());
  EXPECT_EQ(cliques.size(), 3u);  // three singleton maximal cliques
  for (const auto& c : cliques) EXPECT_EQ(c.size(), 1u);
}

TEST(BronKerbosch, MinSizeFiltersIsolated) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.ensure_nodes(4);
  const auto cliques = maximal_cliques(b.build(), 2);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (NodeSet{0, 1}));
}

TEST(BronKerbosch, CycleGivesEdges) {
  const auto cliques = maximal_cliques(cycle_graph(6));
  EXPECT_EQ(cliques.size(), 6u);
  for (const auto& c : cliques) EXPECT_EQ(c.size(), 2u);
}

TEST(BronKerbosch, TwoTrianglesSharingEdge) {
  // {0,1,2} and {1,2,3}
  const Graph g = make_graph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  const auto cliques = sorted_cliques(maximal_cliques(g));
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (NodeSet{0, 1, 2}));
  EXPECT_EQ(cliques[1], (NodeSet{1, 2, 3}));
}

TEST(BronKerbosch, MoonMoserCounts) {
  // Complete multipartite with parts of size 3 maximises maximal-clique
  // count: K(3,3) has 3*3 = 9, K(3,3,3) has 3^3 = 27 (Moon-Moser bound
  // 3^(n/3)); the cocktail-party graph K(2,2,2) has 2^3 = 8.
  auto multipartite = [](std::size_t parts, std::size_t part_size) {
    GraphBuilder b(parts * part_size);
    const NodeId n = static_cast<NodeId>(parts * part_size);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (i / part_size != j / part_size) b.add_edge(i, j);
      }
    }
    b.ensure_nodes(parts * part_size);
    return b.build();
  };
  EXPECT_EQ(maximal_cliques(multipartite(2, 3)).size(), 9u);
  EXPECT_EQ(maximal_cliques(multipartite(3, 3)).size(), 27u);
  EXPECT_EQ(maximal_cliques(multipartite(3, 2)).size(), 8u);
}

TEST(BronKerbosch, MatchesReferenceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const double p = 0.1 + 0.04 * double(seed);
    const Graph g = random_graph(14, p, seed);
    EXPECT_EQ(sorted_cliques(maximal_cliques(g)),
              reference_maximal_cliques(g))
        << "seed " << seed << " p " << p;
  }
}

TEST(BronKerbosch, MinSizePruningConsistent) {
  const Graph g = random_graph(16, 0.4, 77);
  const auto all = maximal_cliques(g);
  for (std::size_t min_size = 2; min_size <= 6; ++min_size) {
    std::vector<NodeSet> expected;
    for (const auto& c : all) {
      if (c.size() >= min_size) expected.push_back(c);
    }
    EXPECT_EQ(sorted_cliques(maximal_cliques(g, min_size)),
              sorted_cliques(std::move(expected)));
  }
}

TEST(BronKerbosch, EveryReportedCliqueIsMaximal) {
  const Graph g = random_graph(30, 0.3, 5);
  for (const auto& clique : maximal_cliques(g)) {
    // Clique check.
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(g.has_edge(clique[i], clique[j]));
      }
    }
    // Maximality check.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (std::binary_search(clique.begin(), clique.end(), v)) continue;
      bool extends = true;
      for (NodeId m : clique) {
        if (!g.has_edge(v, m)) {
          extends = false;
          break;
        }
      }
      EXPECT_FALSE(extends) << "node " << v << " extends a reported clique";
    }
  }
}

TEST(BronKerbosch, MaximumCliqueSize) {
  EXPECT_EQ(maximum_clique_size(complete_graph(9)), 9u);
  EXPECT_EQ(maximum_clique_size(cycle_graph(5)), 2u);
  EXPECT_EQ(maximum_clique_size(Graph{}), 0u);
  const Graph g = testing::overlapping_cliques(6, 4, 2);
  EXPECT_EQ(maximum_clique_size(g), 6u);
}

TEST(CliqueStats, HistogramAndRange) {
  const Graph g = testing::overlapping_cliques(5, 5, 3);
  const auto stats = compute_clique_stats(maximal_cliques(g));
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.max_size, 5u);
  EXPECT_EQ(stats.min_size, 5u);
  EXPECT_DOUBLE_EQ(stats.mean_size, 5.0);
  ASSERT_GT(stats.histogram.size(), 5u);
  EXPECT_EQ(stats.histogram[5], 2u);
  EXPECT_DOUBLE_EQ(stats.fraction_in_range(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(stats.fraction_in_range(6, 10), 0.0);
}

TEST(CliqueStats, EmptyInput) {
  const auto stats = compute_clique_stats({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.fraction_in_range(1, 10), 0.0);
}

// ---------------------------------------------------- clique::Enumerator

TEST(Enumerator, ParseAndNameRoundTrip) {
  using clique::Backend;
  EXPECT_EQ(clique::parse_backend("auto"), Backend::kAuto);
  EXPECT_EQ(clique::parse_backend("sparse"), Backend::kSparse);
  EXPECT_EQ(clique::parse_backend("bitset"), Backend::kBitset);
  for (Backend b : {Backend::kAuto, Backend::kSparse, Backend::kBitset}) {
    EXPECT_EQ(clique::parse_backend(clique::backend_name(b)), b);
  }
  EXPECT_THROW(clique::parse_backend("dense"), Error);
  EXPECT_THROW(clique::parse_backend(""), Error);
}

TEST(Enumerator, AutoResolvesByDegeneracy) {
  const clique::Options opts;  // kAuto
  // Trees and cycles (degeneracy <= 2) have tiny subproblems where bit rows
  // cannot pay for themselves; dense graphs resolve to the bitset kernel.
  EXPECT_EQ(clique::Enumerator(cycle_graph(8), opts).backend(),
            clique::Backend::kSparse);
  EXPECT_EQ(clique::Enumerator(complete_graph(6), opts).backend(),
            clique::Backend::kBitset);
  // Explicit requests are never overridden.
  clique::Options forced;
  forced.backend = clique::Backend::kBitset;
  EXPECT_EQ(clique::Enumerator(cycle_graph(8), forced).backend(),
            clique::Backend::kBitset);
}

TEST(Enumerator, MinSizeZeroRejected) {
  clique::Options opts;
  opts.min_size = 0;
  EXPECT_THROW(clique::Enumerator(complete_graph(3), opts), Error);
}

TEST(Enumerator, ExposesDegeneracy) {
  const Graph g = random_graph(40, 0.2, 7);
  const clique::Enumerator e(g);
  EXPECT_EQ(e.degeneracy().degeneracy, degeneracy_order(g).degeneracy);
}

TEST(Enumerator, BackendsAgreeIncludingVisitOrder) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = random_graph(50, 0.1 + 0.05 * double(seed), seed);
    clique::Options sparse;
    sparse.backend = clique::Backend::kSparse;
    clique::Options bitset;
    bitset.backend = clique::Backend::kBitset;
    // Vector equality checks contents *and* order — the deterministic
    // degeneracy-driven visit order must not depend on the kernel.
    EXPECT_EQ(clique::Enumerator(g, bitset).collect(),
              clique::Enumerator(g, sparse).collect())
        << "seed " << seed;
  }
}

TEST(Enumerator, ForEachMatchesCollect) {
  const Graph g = random_graph(40, 0.25, 13);
  const clique::Enumerator e(g);
  std::vector<NodeSet> seen;
  e.for_each([&](std::span<const NodeId> c) {
    seen.emplace_back(c.begin(), c.end());
  });
  EXPECT_EQ(seen, e.collect());
}

TEST(Enumerator, LegacyWrappersMatchFacade) {
  const Graph g = random_graph(45, 0.2, 17);
  EXPECT_EQ(maximal_cliques(g), clique::Enumerator(g).collect());
  clique::Options opts;
  opts.min_size = 3;
  EXPECT_EQ(maximal_cliques(g, 3), clique::Enumerator(g, opts).collect());
  std::vector<NodeSet> visited;
  clique::Enumerator(g).for_each([&](std::span<const NodeId> c) {
    visited.emplace_back(c.begin(), c.end());
  });
  EXPECT_EQ(visited, maximal_cliques(g));
}

TEST(ReferenceEnumerator, AllKCliquesOnCompleteGraph) {
  // C(5,3) = 10 triangles in K5.
  EXPECT_EQ(all_k_cliques(complete_graph(5), 3).size(), 10u);
  EXPECT_EQ(all_k_cliques(complete_graph(5), 5).size(), 1u);
  EXPECT_EQ(all_k_cliques(complete_graph(5), 6).size(), 0u);
}

TEST(ReferenceEnumerator, KCliquesAreCliques) {
  const Graph g = random_graph(12, 0.5, 9);
  for (const auto& c : all_k_cliques(g, 3)) {
    ASSERT_EQ(c.size(), 3u);
    EXPECT_TRUE(g.has_edge(c[0], c[1]));
    EXPECT_TRUE(g.has_edge(c[0], c[2]));
    EXPECT_TRUE(g.has_edge(c[1], c[2]));
  }
}

}  // namespace
}  // namespace kcc

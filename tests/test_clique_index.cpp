#include "cpm/clique_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "clique/bron_kerbosch.h"
#include "common/rng.h"
#include "common/set_ops.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::random_graph;

// Oracle: all-pairs overlap computation.
std::vector<CliqueOverlap> naive_overlaps(const std::vector<NodeSet>& cliques,
                                          std::size_t min_overlap) {
  std::vector<CliqueOverlap> out;
  for (CliqueId a = 0; a < cliques.size(); ++a) {
    for (CliqueId b = a + 1; b < cliques.size(); ++b) {
      const auto o = intersection_size(cliques[a], cliques[b]);
      if (o >= min_overlap) {
        out.push_back({a, b, static_cast<std::uint32_t>(o)});
      }
    }
  }
  return out;
}

bool same_overlaps(const std::vector<CliqueOverlap>& x,
                   const std::vector<CliqueOverlap>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b || x[i].overlap != y[i].overlap) {
      return false;
    }
  }
  return true;
}

TEST(CliqueIndex, NodeCliqueIndexComplete) {
  const std::vector<NodeSet> cliques{{0, 1, 2}, {1, 2, 3}, {4}};
  const auto index = build_node_clique_index(cliques, 5);
  EXPECT_EQ(index[0], (std::vector<CliqueId>{0}));
  EXPECT_EQ(index[1], (std::vector<CliqueId>{0, 1}));
  EXPECT_EQ(index[2], (std::vector<CliqueId>{0, 1}));
  EXPECT_EQ(index[3], (std::vector<CliqueId>{1}));
  EXPECT_EQ(index[4], (std::vector<CliqueId>{2}));
}

TEST(CliqueIndex, SequentialMatchesNaive) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = random_graph(25, 0.35, seed);
    const auto cliques = maximal_cliques(g, 2);
    for (std::size_t min_overlap : {1u, 2u, 3u}) {
      const auto fast =
          compute_clique_overlaps_sequential(cliques, g.num_nodes(), min_overlap);
      const auto naive = naive_overlaps(cliques, min_overlap);
      EXPECT_TRUE(same_overlaps(fast, naive))
          << "seed " << seed << " min_overlap " << min_overlap;
    }
  }
}

TEST(CliqueIndex, ParallelMatchesSequential) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const Graph g = random_graph(40, 0.3, 7);
    const auto cliques = maximal_cliques(g, 2);
    const auto seq =
        compute_clique_overlaps_sequential(cliques, g.num_nodes(), 2);
    const auto par = compute_clique_overlaps(cliques, g.num_nodes(), 2, pool);
    EXPECT_TRUE(same_overlaps(seq, par)) << "threads " << threads;
  }
}

TEST(CliqueIndex, EmptyCliqueSet) {
  ThreadPool pool(2);
  EXPECT_TRUE(compute_clique_overlaps({}, 10, 1, pool).empty());
  EXPECT_TRUE(compute_clique_overlaps_sequential({}, 10, 1).empty());
}

TEST(CliqueIndex, MinOverlapZeroThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(compute_clique_overlaps({{0, 1}}, 2, 0, pool), Error);
}

TEST(CliqueIndex, DisjointCliquesNoPairs) {
  const std::vector<NodeSet> cliques{{0, 1, 2}, {3, 4, 5}};
  EXPECT_TRUE(compute_clique_overlaps_sequential(cliques, 6, 1).empty());
}

// A random clique table over `num_nodes` nodes for the counting kernel.
// With `hubs` > 0, every clique holds node 0 and about a third of them also
// hold nodes 1 .. hubs-1, so the hub index lists name most of the table.
std::vector<NodeSet> random_clique_table(std::size_t num_cliques,
                                         std::size_t num_nodes,
                                         std::size_t hubs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeSet> cliques;
  for (std::size_t c = 0; c < num_cliques; ++c) {
    NodeSet clique;
    if (hubs > 0) {
      clique.push_back(0);
      if (rng.next_below(3) == 0) {
        for (NodeId h = 1; h < hubs; ++h) clique.push_back(h);
      }
    }
    const std::size_t extra = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < extra; ++i) {
      clique.push_back(static_cast<NodeId>(rng.next_below(num_nodes)));
    }
    sort_unique(clique);
    cliques.push_back(std::move(clique));
  }
  return cliques;
}

// Runs count_overlaps for probe `b` over the index lists of b's nodes,
// skipping b itself, with scratch buffers of exactly the sizes the kernel's
// contract asks for: candidates + 1 touched slots, candidates overlaps. The
// buffers are heap vectors, so a write past either end fails under ASan.
struct KernelRun {
  OverlapCounts counts;
  std::vector<std::pair<CliqueId, std::uint32_t>> kept;  // sorted by id
};

KernelRun run_kernel(const std::vector<NodeSet>& cliques,
                     const std::vector<std::vector<CliqueId>>& index,
                     CliqueId b, std::uint32_t floor,
                     std::vector<std::uint32_t>& count) {
  std::vector<CliqueId> distinct;
  for (NodeId v : cliques[b]) {
    for (CliqueId a : index[v]) {
      if (a != b) distinct.push_back(a);
    }
  }
  sort_unique(distinct);
  std::vector<CliqueId> touched(distinct.size() + 1);
  std::vector<std::uint32_t> overlap(distinct.size());
  KernelRun run;
  run.counts = count_overlaps(
      [&](auto&& hit) {
        for (NodeId v : cliques[b]) {
          for (CliqueId a : index[v]) {
            if (a != b) hit(a);
          }
        }
      },
      count.data(), touched.data(), overlap.data(), floor);
  EXPECT_EQ(run.counts.candidates, distinct.size());
  for (std::size_t i = 0; i < run.counts.kept; ++i) {
    run.kept.push_back({touched[i], overlap[i]});
  }
  std::sort(run.kept.begin(), run.kept.end());
  return run;
}

TEST(CountOverlaps, MatchesSetIntersectionOnRandomTables) {
  for (std::size_t hubs : {0u, 1u, 3u}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const std::size_t num_nodes = 40;
      const auto cliques = random_clique_table(120, num_nodes, hubs, seed);
      const auto index = build_node_clique_index(cliques, num_nodes);
      std::vector<std::uint32_t> count(cliques.size(), 0);
      for (std::uint32_t floor = 1; floor <= 4; ++floor) {
        for (CliqueId b = 0; b < cliques.size(); ++b) {
          const KernelRun run = run_kernel(cliques, index, b, floor, count);
          std::vector<std::pair<CliqueId, std::uint32_t>> expected;
          std::size_t hits = 0;
          for (CliqueId a = 0; a < cliques.size(); ++a) {
            if (a == b) continue;
            NodeSet shared;
            std::set_intersection(cliques[a].begin(), cliques[a].end(),
                                  cliques[b].begin(), cliques[b].end(),
                                  std::back_inserter(shared));
            hits += shared.size();
            if (shared.size() >= floor) {
              expected.push_back(
                  {a, static_cast<std::uint32_t>(shared.size())});
            }
          }
          ASSERT_EQ(run.kept, expected) << "hubs " << hubs << " seed "
                                        << seed << " floor " << floor
                                        << " probe " << b;
          EXPECT_EQ(run.counts.hits, hits);
          EXPECT_EQ(run.counts.kept, expected.size());
          ASSERT_TRUE(std::all_of(count.begin(), count.end(),
                                  [](std::uint32_t c) { return c == 0; }))
              << "count not reset after probe " << b;
        }
      }
    }
  }
}

TEST(CountOverlaps, EveryEntryOnOneCandidateFitsTwoSlots) {
  // One candidate hit through every one of the probe's nodes: n never
  // leaves 1, so every hit after the first lands on touched[1].
  const std::vector<NodeSet> cliques{{0, 1, 2, 3, 4}, {0, 1, 2, 3, 5}};
  const auto index = build_node_clique_index(cliques, 6);
  std::vector<std::uint32_t> count(cliques.size(), 0);
  const KernelRun run = run_kernel(cliques, index, 1, 2, count);
  EXPECT_EQ(run.counts.hits, 4u);
  EXPECT_EQ(run.counts.candidates, 1u);
  EXPECT_EQ(run.kept,
            (std::vector<std::pair<CliqueId, std::uint32_t>>{{0, 4}}));
  EXPECT_EQ(count, (std::vector<std::uint32_t>{0, 0}));
}

TEST(CountOverlaps, NoHitsKeepsNothing) {
  const std::vector<NodeSet> cliques{{0, 1}, {2, 3}};
  const auto index = build_node_clique_index(cliques, 4);
  std::vector<std::uint32_t> count(cliques.size(), 0);
  const KernelRun run = run_kernel(cliques, index, 0, 1, count);
  EXPECT_EQ(run.counts.hits, 0u);
  EXPECT_EQ(run.counts.candidates, 0u);
  EXPECT_TRUE(run.kept.empty());
}

}  // namespace
}  // namespace kcc

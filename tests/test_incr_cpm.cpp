// Unit tests for the incremental CPM engine: digest identity with a
// from-scratch sweep after add-only / remove-only / mixed batches, batch
// inversion, strict batch validation, restricted k ranges and both clique
// backends. The randomized cross-family coverage lives in the
// check::churn_differential harness (kcc_fuzz --schedules); these are the
// deterministic corner cases.

#include "cpm/incr_cpm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/rng.h"
#include "cpm/engine.h"
#include "synth/as_topology.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using cpm::EdgeBatch;
using cpm::IncrementalCpm;

/// Canonical digest of a from-scratch sweep on `g`, clique table
/// re-sorted lexicographically to match the incremental serialization.
std::string sweep_digest(const Graph& g, cpm::Options options = {}) {
  options.engine = "sweep";
  cpm::Result fresh = cpm::Engine(options).run(g);
  cpm::canonicalise_clique_order(fresh);
  return cpm::canonical_text(fresh);
}

std::string digest(const IncrementalCpm& state) {
  return cpm::canonical_text(state.result());
}

/// Mutable edge-set mirror of the incremental state, for rebuilding the
/// from-scratch comparison graph after each batch.
struct Mirror {
  std::size_t n = 0;
  std::vector<std::pair<NodeId, NodeId>> edges;

  explicit Mirror(const Graph& g) : n(g.num_nodes()), edges(g.edges()) {}

  void apply(const EdgeBatch& batch) {
    for (const auto& [u, v] : batch.remove) {
      const auto lo = std::min(u, v), hi = std::max(u, v);
      edges.erase(std::remove_if(edges.begin(), edges.end(),
                                 [&](const std::pair<NodeId, NodeId>& e) {
                                   return std::min(e.first, e.second) == lo &&
                                          std::max(e.first, e.second) == hi;
                                 }),
                  edges.end());
    }
    for (const auto& e : batch.add) {
      edges.push_back(e);
      n = std::max<std::size_t>(
          n, static_cast<std::size_t>(std::max(e.first, e.second)) + 1);
    }
  }

  Graph build() const { return Graph::from_edges(n, edges); }
};

/// Draws `count` absent non-loop pairs from the mirror's node universe.
EdgeBatch add_batch(const Mirror& mirror, std::size_t count, Rng& rng) {
  EdgeBatch batch;
  const std::size_t n = std::max<std::size_t>(mirror.n, 2);
  auto present = [&](NodeId u, NodeId v) {
    for (const auto& e : mirror.edges) {
      if (std::minmax(e.first, e.second) == std::minmax(u, v)) return true;
    }
    for (const auto& e : batch.add) {
      if (std::minmax(e.first, e.second) == std::minmax(u, v)) return true;
    }
    return false;
  };
  while (batch.add.size() < count) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || present(u, v)) continue;
    batch.add.emplace_back(std::min(u, v), std::max(u, v));
  }
  return batch;
}

/// Draws `count` present edges, without replacement.
EdgeBatch remove_batch(const Mirror& mirror, std::size_t count, Rng& rng) {
  EdgeBatch batch;
  std::vector<std::pair<NodeId, NodeId>> pool = mirror.edges;
  batch.remove = rng.sample_without_replacement(
      pool, std::min<std::size_t>(count, pool.size()));
  return batch;
}

/// Applies `batch` to both the live state and the mirror, then asserts
/// digest identity against a from-scratch sweep of the mirror.
void apply_and_check(IncrementalCpm& state, Mirror& mirror,
                     const EdgeBatch& batch, const cpm::Options& options,
                     const std::string& label) {
  state.apply(batch);
  mirror.apply(batch);
  ASSERT_EQ(digest(state), sweep_digest(mirror.build(), options)) << label;
}

TEST(IncrCpm, BootstrapMatchesSweepAcrossFamilies) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"empty", Graph::from_edges(0, {})},
      {"k5", testing::complete_graph(5)},
      {"cycle", testing::cycle_graph(9)},
      {"er", testing::random_graph(24, 0.3, 11)},
      {"pa", testing::preferential_attachment_graph(40, 3, 7)},
      {"overlap", testing::overlapping_cliques(6, 5, 3)},
  };
  for (const auto& [name, g] : graphs) {
    const IncrementalCpm state(g);
    EXPECT_EQ(digest(state), sweep_digest(g)) << name;
  }
}

TEST(IncrCpm, AddOnlyBatchesKeepDigestIdentity) {
  const Graph g = testing::random_graph(20, 0.15, 3);
  Mirror mirror(g);
  IncrementalCpm state(g);
  Rng rng(17);
  for (int b = 0; b < 5; ++b) {
    apply_and_check(state, mirror, add_batch(mirror, 4, rng), {},
                    "add batch " + std::to_string(b));
  }
}

TEST(IncrCpm, RemoveOnlyBatchesKeepDigestIdentity) {
  const Graph g = testing::random_graph(18, 0.4, 5);
  Mirror mirror(g);
  IncrementalCpm state(g);
  Rng rng(23);
  for (int b = 0; b < 5; ++b) {
    apply_and_check(state, mirror, remove_batch(mirror, 5, rng), {},
                    "remove batch " + std::to_string(b));
  }
}

TEST(IncrCpm, RemoveThenReAddAcrossBatchesRoundTrips) {
  // A remove-then-re-add round trip is two batches (one batch rejects the
  // same pair on both sides) and must land back on the original digest.
  const Graph g = testing::overlapping_cliques(5, 5, 2);
  IncrementalCpm state(g);
  const std::string before = digest(state);
  const auto e = g.edges().front();
  EdgeBatch removes, adds;
  removes.remove.push_back(e);
  adds.add.push_back(e);
  state.apply(removes);
  state.apply(adds);
  EXPECT_EQ(digest(state), before);
  EXPECT_EQ(state.num_edges(), g.num_edges());
}

TEST(IncrCpm, BatchThenInverseRestoresDigest) {
  const Graph g = testing::preferential_attachment_graph(30, 3, 19);
  Mirror mirror(g);
  IncrementalCpm state(g);
  Rng rng(31);
  const std::string before = digest(state);

  EdgeBatch batch = add_batch(mirror, 3, rng);
  EdgeBatch removes = remove_batch(mirror, 4, rng);
  batch.remove = std::move(removes.remove);

  state.apply(batch);
  EXPECT_NE(digest(state), before) << "batch should change the structure";
  state.apply(batch.inverse());
  EXPECT_EQ(digest(state), before);
  EXPECT_EQ(state.batches_applied(), 2u);
}

TEST(IncrCpm, EmptyBatchIsANoOp) {
  const Graph g = testing::random_graph(15, 0.3, 2);
  IncrementalCpm state(g);
  const std::string before = digest(state);
  state.apply(EdgeBatch{});
  EXPECT_EQ(digest(state), before);
  EXPECT_EQ(state.num_edges(), g.num_edges());
}

TEST(IncrCpm, RejectsInvalidBatchesAndLeavesStateUntouched) {
  const Graph g = testing::complete_graph(4);  // edges 0-1, 0-2, ... 2-3
  IncrementalCpm state(g);
  const std::string before = digest(state);

  const auto expect_rejected = [&](const EdgeBatch& batch,
                                   const std::string& label) {
    EXPECT_THROW(state.apply(batch), Error) << label;
    EXPECT_EQ(digest(state), before) << label << ": state mutated";
  };

  EdgeBatch add_present;
  add_present.add.emplace_back(0, 1);
  expect_rejected(add_present, "adding a present edge");

  EdgeBatch remove_absent;
  remove_absent.remove.emplace_back(0, 5);
  expect_rejected(remove_absent, "removing an absent edge");

  EdgeBatch self_loop;
  self_loop.add.emplace_back(7, 7);
  expect_rejected(self_loop, "self-loop add");

  EdgeBatch dup_side;
  dup_side.add.emplace_back(0, 4);
  dup_side.add.emplace_back(4, 0);  // same pair, other orientation
  expect_rejected(dup_side, "pair listed twice on one side");

  EdgeBatch both_sides;
  both_sides.remove.emplace_back(0, 1);
  both_sides.add.emplace_back(1, 0);
  expect_rejected(both_sides, "same pair on both sides");
}

TEST(IncrCpm, RestrictedKRangeMatchesSweepUnderChurn) {
  cpm::Options options;
  options.min_k = 3;
  options.max_k = 5;
  const Graph g = testing::random_graph(22, 0.35, 13);
  Mirror mirror(g);
  IncrementalCpm state(g, options);
  ASSERT_EQ(digest(state), sweep_digest(g, options));
  Rng rng(41);
  for (int b = 0; b < 4; ++b) {
    EdgeBatch batch = add_batch(mirror, 2, rng);
    EdgeBatch removes = remove_batch(mirror, 2, rng);
    batch.remove = std::move(removes.remove);
    apply_and_check(state, mirror, batch, options,
                    "restricted batch " + std::to_string(b));
  }
}

TEST(IncrCpm, CliqueBackendsAgreeUnderChurn) {
  const Graph g = testing::preferential_attachment_graph(36, 4, 29);
  cpm::Options sparse, bitset;
  sparse.clique_backend = clique::Backend::kSparse;
  bitset.clique_backend = clique::Backend::kBitset;
  Mirror mirror(g);
  IncrementalCpm a(g, sparse), b(g, bitset);
  Rng rng(53);
  for (int i = 0; i < 4; ++i) {
    EdgeBatch batch = add_batch(mirror, 3, rng);
    EdgeBatch removes = remove_batch(mirror, 3, rng);
    batch.remove = std::move(removes.remove);
    mirror.apply(batch);
    a.apply(batch);
    b.apply(batch);
    ASSERT_EQ(digest(a), digest(b)) << "backend divergence at batch " << i;
    ASSERT_EQ(digest(a), sweep_digest(mirror.build()))
        << "both backends diverged at batch " << i;
  }
}

TEST(IncrCpm, RegistryEngineIsExactAndCoversThePatchPath) {
  // The registry full-run hook holds back a suffix of edges and apply()s
  // them, so running it at all exercises churn; its digest must match the
  // canonicalised sweep.
  const Graph g = testing::preferential_attachment_graph(45, 3, 37);
  cpm::Options options;
  options.engine = "incremental";
  const cpm::Result run = cpm::Engine(options).run(g);
  EXPECT_EQ(run.engine_name, "incremental");
  EXPECT_EQ(run.exactness, cpm::Exactness::kExact);
  EXPECT_TRUE(cpm::engine_info("incremental").caps.canonical_clique_order);
  EXPECT_EQ(cpm::canonical_text(run), sweep_digest(g));
}

TEST(IncrCpm, NodeUniverseGrowsWithAddedEdges) {
  IncrementalCpm state(Graph::from_edges(0, {}));
  EdgeBatch batch;
  batch.add.emplace_back(2, 5);
  state.apply(batch);
  EXPECT_EQ(state.num_nodes(), 6u);
  EXPECT_EQ(state.num_edges(), 1u);
  EXPECT_EQ(digest(state), sweep_digest(Graph::from_edges(6, {{2, 5}})));
}

TEST(IncrCpm, TwoMemberFragmentWithACommonNeighborIsNotMaximal) {
  // Triangles {0, 1, 2} and {1, 2, 3}. Removing (0, 1) kills the first;
  // its fragment {1, 2} has the common neighbor 3 and must not be
  // inserted, while {0, 2} has none and must be.
  const Graph g =
      Graph::from_edges(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  IncrementalCpm state(g);
  EdgeBatch batch;
  batch.remove.emplace_back(0, 1);
  state.apply(batch);
  EXPECT_EQ(state.num_cliques(), 2u);  // {1, 2, 3} and {0, 2}
  EXPECT_EQ(digest(state),
            sweep_digest(Graph::from_edges(
                4, {{0, 2}, {1, 2}, {1, 3}, {2, 3}})));
}

TEST(IncrCpm, FragmentWitnessIsDecidedByTheThirdLowestDegreeMember) {
  // Removing (2, 3) from the clique {0, 1, 2, 3} leaves the fragment
  // {0, 1, 2}: 0 and 1 have the lowest degrees, and 2 (padded with the
  // leaves 6, 7, 8) the third lowest. The common neighbors of 0 and 1 are
  // 2 itself, 3 (no longer adjacent to 2) and 4 (never adjacent to 2), so
  // each candidate is rejected only by the third-lowest member. With node
  // 5 adjacent to 0, 1 and 2, 5 is the fragment's only witness, and it
  // passes only once it is tested against that member too.
  for (const bool with_witness : {false, true}) {
    std::vector<std::pair<NodeId, NodeId>> edges{
        {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},  // the clique
        {0, 4}, {1, 4},                                  // 4: not at 2
        {2, 6}, {2, 7}, {2, 8}};                         // 2's leaves
    if (with_witness) edges.insert(edges.end(), {{0, 5}, {1, 5}, {2, 5}});
    IncrementalCpm state(Graph::from_edges(9, edges));
    EdgeBatch batch;
    batch.remove.emplace_back(2, 3);
    state.apply(batch);
    edges.erase(std::find(edges.begin(), edges.end(),
                          std::pair<NodeId, NodeId>{2, 3}));
    // {0, 1, 2} (or {0, 1, 2, 5}), {0, 1, 3}, {0, 1, 4} and three leaves.
    EXPECT_EQ(state.num_cliques(), 6u) << "with_witness " << with_witness;
    EXPECT_EQ(digest(state), sweep_digest(Graph::from_edges(9, edges)))
        << "with_witness " << with_witness;
  }
}

TEST(IncrCpm, RetainedStateStaysBoundedUnderFlapChurn) {
  // Link flaps at the AS edge: a batch touching 1% of the edges with an
  // endpoint of degree <= 64, then its inverse. Retired clique slots and
  // compacted lists must give their storage back, so the reserved state
  // tracks the live state instead of ratcheting up batch after batch.
  const Graph g = generate_ecosystem(SynthParams::test_scale()).topology.graph;
  IncrementalCpm state(g);
  const std::size_t bootstrap_bytes = state.state_bytes();
  ASSERT_GT(bootstrap_bytes, 0u);

  std::vector<std::pair<NodeId, NodeId>> edges = g.edges();
  std::vector<std::size_t> degree(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) degree[v] = g.degree(v);
  auto flappable = [&](NodeId u, NodeId v) {
    return std::min(degree[u], degree[v]) <= 64;
  };
  std::vector<std::pair<NodeId, NodeId>> pool;
  for (const auto& e : edges) {
    if (flappable(e.first, e.second)) pool.push_back(e);
  }
  const std::size_t ops = std::max<std::size_t>(2, edges.size() / 100);
  Rng rng(2011);
  std::size_t peak = bootstrap_bytes;
  for (int flap = 0; flap < 100; ++flap) {
    EdgeBatch batch;
    batch.remove = rng.sample_without_replacement(pool, ops / 2);
    while (batch.add.size() < ops / 2) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (u == v || !flappable(u, v)) continue;
      const std::pair<NodeId, NodeId> e{std::min(u, v), std::max(u, v)};
      if (g.has_edge(u, v) ||
          std::find(batch.add.begin(), batch.add.end(), e) != batch.add.end()) {
        continue;
      }
      batch.add.push_back(e);
    }
    state.apply(batch);
    peak = std::max(peak, state.state_bytes());
    state.apply(batch.inverse());
    peak = std::max(peak, state.state_bytes());
  }
  EXPECT_EQ(state.batches_applied(), 200u);
  EXPECT_EQ(state.num_edges(), g.num_edges());
  EXPECT_LE(peak, 2 * bootstrap_bytes)
      << "bootstrap " << bootstrap_bytes << " B, peak " << peak << " B";
}

}  // namespace
}  // namespace kcc

// The sweep engine — the one exact batch engine — against the per-k oracle:
// structural identity (communities, ids, clique maps, tree) on a spread of
// graph families and seeds, the nesting invariant of the in-pass community
// tree, the pre-joined entry point, the memory-budget/spill machinery, and
// the cpm::Engine facade that fronts every engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cpm/clique_index.h"
#include "cpm/cpm.h"
#include "cpm/engine.h"
#include "cpm/sweep_cpm.h"
#include "synth/as_topology.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;
using testing::expect_differential_ok;
using testing::expect_nesting;
using testing::expect_same_cpm;
using testing::expect_same_tree;
using testing::make_graph;
using testing::overlapping_cliques;
using testing::preferential_attachment_graph;
using testing::random_graph;

// Oracle identity, tree nesting and tree identity with the post-hoc
// construction, under the given options. Default-option graphs additionally
// go through the check:: differential matrix (see tests/test_helpers.h).
void check_graph(const Graph& g, const std::string& label,
                 cpm::Options options = {}) {
  const CpmResult oracle = run_cpm(g, options.cpm_options());
  const SweepCpmResult sweep = run_sweep_engine(g, options);
  expect_same_cpm(oracle, sweep.cpm, label);
  if (options.min_k == 2 && options.max_k == 0 &&
      options.memory_budget == 0) {
    expect_differential_ok(g, label);
  }
  if (sweep.cpm.max_k < sweep.cpm.min_k) return;  // nothing to arrange
  expect_nesting(sweep.cpm, sweep.tree, label);
  // The in-pass tree must agree with the post-hoc construction.
  expect_same_tree(CommunityTree::build(oracle), sweep.tree, label);
}

std::vector<NodeSet> maximal_cliques_of(const Graph& g) {
  ThreadPool pool(2);
  clique::Options copt;
  copt.min_size = 2;
  return clique::Enumerator(g, copt).collect(pool);
}

cpm::Result as_result(SweepCpmResult sweep) {
  cpm::Result result;
  result.has_tree = sweep.cpm.max_k >= sweep.cpm.min_k;
  result.cpm = std::move(sweep.cpm);
  result.tree = std::move(sweep.tree);
  return result;
}

// ------------------------------------------------ sweep vs per-k oracle

TEST(SweepCpm, MatchesOracleOnRandomGraphs) {
  // 12 independent seeds across two densities.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check_graph(random_graph(60, 0.2, seed),
                "random n=60 p=0.2 seed=" + std::to_string(seed));
  }
  for (std::uint64_t seed = 7; seed <= 12; ++seed) {
    check_graph(random_graph(40, 0.4, seed),
                "random n=40 p=0.4 seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnScaleFreeGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_graph(preferential_attachment_graph(150, 4, seed),
                "pa n=150 m=4 seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnSyntheticEcosystem) {
  SynthParams params = SynthParams::test_scale();
  for (std::uint64_t seed : {7u, 42u}) {
    params.seed = seed;
    const Graph g = generate_ecosystem(params).topology.graph;
    check_graph(g, "synth seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnStructuredGraphs) {
  check_graph(complete_graph(8), "K8");
  check_graph(overlapping_cliques(5, 5, 3), "two 5-cliques sharing 3");
  check_graph(overlapping_cliques(6, 4, 2), "6-clique and 4-clique sharing 2");
  check_graph(make_graph(4, {{0, 1}, {2, 3}}), "two disjoint edges");
}

TEST(SweepCpm, MatchesOracleWithRestrictedKRange) {
  const Graph g = random_graph(50, 0.3, 99);
  for (std::size_t min_k : {2u, 3u, 4u, 6u}) {
    cpm::Options options;
    options.min_k = min_k;
    check_graph(g, "min_k=" + std::to_string(min_k), options);
    options.max_k = min_k + 2;
    check_graph(g, "k in [" + std::to_string(min_k) + ", +2]", options);
  }
}

// At min_k >= 4 the sweep neither joins nor indexes a clique of size
// <= max(3, min_k) - 1: such a clique shares too few nodes with any other
// maximal clique for a pair the sweep keeps. Full-range runs only skip
// edges (size-2 cliques), so these windows are where the skip bites.
TEST(SweepCpm, MatchesOracleWhereTheJoinSkipsSmallCliques) {
  SynthParams params = SynthParams::test_scale();
  params.seed = 7;
  const Graph g = generate_ecosystem(params).topology.graph;
  const std::vector<NodeSet> cliques = maximal_cliques_of(g);
  std::size_t max_size = 0;
  for (const NodeSet& c : cliques) max_size = std::max(max_size, c.size());
  ASSERT_GE(max_size, 6u);
  ThreadPool pool(2);
  const std::vector<CliqueOverlap> all_pairs =
      compute_clique_overlaps_unsorted(cliques, g.num_nodes(), 2, pool);

  for (const std::size_t min_k : {std::size_t{4}, max_size - 1}) {
    const std::string label = "min_k=" + std::to_string(min_k);
    const std::size_t floor = min_k - 1;  // the sweep's prune floor
    const auto skipped = std::count_if(
        cliques.begin(), cliques.end(),
        [&](const NodeSet& c) { return c.size() <= floor; });
    ASSERT_GT(skipped, 0) << label << ": the skip branch is never taken";
    // Pairs the sweep keeps, counted from the unpruned join: the number a
    // join over every clique stores.
    const auto kept = std::count_if(
        all_pairs.begin(), all_pairs.end(),
        [&](const CliqueOverlap& p) { return p.overlap >= floor; });

    cpm::Options options;
    options.min_k = min_k;
    cpm::Options oracle_options = options;
    oracle_options.engine = "per_k";
    const cpm::Engine sweep(options);
    const cpm::Engine oracle(oracle_options);
    EXPECT_EQ(cpm::canonical_digest(sweep.run(g)),
              cpm::canonical_digest(oracle.run(g)))
        << label;
    EXPECT_EQ(cpm::canonical_digest(sweep.run_on_cliques(g, cliques)),
              cpm::canonical_digest(oracle.run_on_cliques(g, cliques)))
        << label;

    EXPECT_EQ(run_sweep_engine(g, options).stats.pairs_total,
              static_cast<std::uint64_t>(kept))
        << label;
    EXPECT_EQ(run_sweep_engine_on_cliques(g, cliques, options)
                  .stats.pairs_total,
              static_cast<std::uint64_t>(kept))
        << label;
    // The prejoined entry takes the unpruned pair list, so it also pins
    // the count the join must reproduce.
    EXPECT_EQ(run_sweep_cpm_prejoined(g, cliques, all_pairs,
                                      options.cpm_options())
                  .stats.pairs_total,
              static_cast<std::uint64_t>(kept))
        << label;
  }
}

TEST(SweepCpm, JoinCountersAgreeAcrossEntryPoints) {
  SynthParams params = SynthParams::test_scale();
  params.seed = 7;
  const Graph g = generate_ecosystem(params).topology.graph;
  const std::vector<NodeSet> cliques = maximal_cliques_of(g);
  ThreadPool pool(2);
  const std::vector<CliqueOverlap> sharing =
      compute_clique_overlaps_unsorted(cliques, g.num_nodes(), 1, pool);

  for (const std::size_t min_k : {std::size_t{2}, std::size_t{4}}) {
    const std::string label = "min_k=" + std::to_string(min_k);
    // The join sees only cliques above the prune floor; among them every
    // pair sharing a node is one candidate, read once per shared node.
    const std::size_t floor = std::max<std::size_t>(3, min_k) - 1;
    std::uint64_t candidates = 0, hits = 0, kept = 0;
    for (const CliqueOverlap& p : sharing) {
      if (cliques[p.a].size() <= floor || cliques[p.b].size() <= floor) {
        continue;
      }
      ++candidates;
      hits += p.overlap;
      kept += p.overlap >= floor;
    }
    ASSERT_GT(kept, 0u) << label;

    cpm::Options options;
    options.min_k = min_k;
    const SweepCpmStats streamed = run_sweep_engine(g, options).stats;
    const SweepCpmStats tabled =
        run_sweep_engine_on_cliques(g, cliques, options).stats;
    for (const SweepCpmStats& stats : {streamed, tabled}) {
      EXPECT_EQ(stats.join_hits, hits) << label;
      EXPECT_EQ(stats.join_candidates, candidates) << label;
      EXPECT_EQ(stats.join_pairs, kept) << label;
      EXPECT_EQ(stats.join_pairs, stats.pairs_total) << label;
    }
  }
}

TEST(SweepCpm, MatchesOracleOnPreEnumeratedCliques) {
  const Graph g = random_graph(50, 0.3, 23);
  const std::vector<NodeSet> cliques = maximal_cliques_of(g);
  const CpmResult oracle = run_cpm_on_cliques(g, cliques, {});
  const SweepCpmResult sweep = run_sweep_engine_on_cliques(g, cliques, {});
  expect_same_cpm(oracle, sweep.cpm, "pre-enumerated");
  expect_same_tree(CommunityTree::build(oracle), sweep.tree,
                   "pre-enumerated");
}

TEST(SweepCpm, EmptyGraphAndEmptyRange) {
  EXPECT_TRUE(run_sweep_engine(Graph{}, {}).cpm.by_k.empty());
  // Min_k above the largest clique: nothing percolates.
  cpm::Options options;
  options.min_k = 9;
  const SweepCpmResult sweep = run_sweep_engine(complete_graph(5), options);
  EXPECT_LT(sweep.cpm.max_k, sweep.cpm.min_k);
  EXPECT_TRUE(sweep.cpm.by_k.empty());
  EXPECT_TRUE(sweep.tree.nodes().empty());
}

TEST(SweepCpm, RejectsBadInput) {
  cpm::Options options;
  options.min_k = 1;
  EXPECT_THROW(run_sweep_engine(complete_graph(3), options), Error);
  EXPECT_THROW(
      run_sweep_engine_on_cliques(complete_graph(3), {{2, 0, 1}}, {}), Error);
  EXPECT_THROW(
      run_sweep_cpm_prejoined(complete_graph(3), {{2, 0, 1}}, {}, {}), Error);
  // A pair naming a clique outside the table is caught, not dereferenced.
  EXPECT_THROW(run_sweep_cpm_prejoined(overlapping_cliques(4, 4, 2),
                                       {{0, 1, 2, 3}, {2, 3, 4, 5}},
                                       {{0, 7, 2}}, {}),
               Error);
}

// -------------------------------------------------- the pre-joined entry

TEST(SweepCpm, PrejoinedIsIndependentOfPairOrder) {
  // The incremental engine hands its maintained pair multiset to
  // run_sweep_cpm_prejoined in whatever order its maps yield; the buckets
  // impose the only order the sweep needs.
  SynthParams params = SynthParams::test_scale();
  params.seed = 7;
  const Graph g = generate_ecosystem(params).topology.graph;
  const std::vector<NodeSet> cliques = maximal_cliques_of(g);
  ThreadPool pool(2);
  const std::vector<CliqueOverlap> pairs =
      compute_clique_overlaps_unsorted(cliques, g.num_nodes(), 2, pool);
  ASSERT_FALSE(pairs.empty());

  const std::uint64_t in_order = cpm::canonical_digest(
      as_result(run_sweep_cpm_prejoined(g, cliques, pairs)));
  std::vector<CliqueOverlap> shuffled = pairs;
  Rng rng(2024);
  rng.shuffle(shuffled);
  const std::uint64_t reordered = cpm::canonical_digest(
      as_result(run_sweep_cpm_prejoined(g, cliques, std::move(shuffled))));
  EXPECT_EQ(reordered, in_order);
  EXPECT_EQ(in_order, cpm::canonical_digest(cpm::Engine().run(g)));
}

// ------------------------------------------------- memory budget + spill
// (suite SweepCpmStream, run as the ctest entry test_stream_cpm)

TEST(SweepCpmStream, ParsesMemoryBudgetUnits) {
  EXPECT_EQ(parse_memory_budget("0"), 0u);
  EXPECT_EQ(parse_memory_budget("65536"), 65536u);
  EXPECT_EQ(parse_memory_budget("64K"), 64u * 1024);
  EXPECT_EQ(parse_memory_budget("64k"), 64u * 1024);
  EXPECT_EQ(parse_memory_budget("200M"), 200u * 1024 * 1024);
  EXPECT_EQ(parse_memory_budget("1G"), 1024ull * 1024 * 1024);
  EXPECT_EQ(parse_memory_budget("3g"), 3ull * 1024 * 1024 * 1024);
}

TEST(SweepCpmStream, RejectsMalformedMemoryBudgets) {
  EXPECT_THROW(parse_memory_budget(""), Error);
  EXPECT_THROW(parse_memory_budget("K"), Error);
  EXPECT_THROW(parse_memory_budget("12X"), Error);
  EXPECT_THROW(parse_memory_budget("64KB"), Error);
  EXPECT_THROW(parse_memory_budget("1.5G"), Error);
  EXPECT_THROW(parse_memory_budget("-1M"), Error);
  EXPECT_THROW(parse_memory_budget("99999999999999999999"), Error);
}

TEST(SweepCpmStream, RejectsBudgetSmallerThanTheSpillChunk) {
  // A budget that cannot stage even one reload chunk must fail loudly at
  // entry, not thrash or silently ignore the cap.
  cpm::Options options;
  options.memory_budget = stream_min_memory_budget() - 1;
  EXPECT_THROW(run_sweep_engine(complete_graph(4), options), Error);
  EXPECT_THROW(cpm::Engine(options).run(complete_graph(4)), Error);
  options.memory_budget = 1024;
  EXPECT_THROW(run_sweep_engine(complete_graph(4), options), Error);
  // The floor itself is accepted.
  options.memory_budget = stream_min_memory_budget();
  EXPECT_NO_THROW(run_sweep_engine(complete_graph(4), options));
}

TEST(SweepCpmStream, SpillsUnderAMinimalBudgetAndStaysExact) {
  // Dense enough that the pair store far exceeds one spill chunk.
  const Graph g = random_graph(80, 0.5, 5);
  cpm::Options options;
  options.memory_budget = stream_min_memory_budget();
  const SweepCpmResult budgeted = run_sweep_engine(g, options);
  EXPECT_GT(budgeted.stats.spilled_pairs, 0u);
  EXPECT_GT(budgeted.stats.spill_bytes, 0u);
  EXPECT_LE(budgeted.stats.spilled_pairs, budgeted.stats.pairs_total)
      << "spilled pairs are a subset of stored pairs";

  const CpmResult oracle = run_cpm(g, {});
  expect_same_cpm(oracle, budgeted.cpm, "spilling run");
  expect_same_tree(CommunityTree::build(oracle), budgeted.tree,
                   "spilling run");

  // Unlimited run on the same graph: same output, nothing spilled.
  const SweepCpmResult unlimited = run_sweep_engine(g, {});
  EXPECT_EQ(unlimited.stats.spilled_pairs, 0u);
  EXPECT_EQ(unlimited.stats.pairs_total, budgeted.stats.pairs_total);
  expect_same_cpm(oracle, unlimited.cpm, "unlimited run");

  // The facade forwards the budget: still exact.
  const cpm::Result facade = cpm::Engine(options).run(g);
  EXPECT_EQ(cpm::canonical_digest(facade),
            cpm::canonical_digest(cpm::Engine().run(g)));
}

TEST(SweepCpmStream, StatsReportPairsAndPeak) {
  const Graph g = overlapping_cliques(6, 5, 3);
  const SweepCpmResult sweep = run_sweep_engine(g, {});
  // Two overlapping maximal cliques -> exactly one overlap pair.
  EXPECT_EQ(sweep.stats.pairs_total, 1u);
  EXPECT_EQ(sweep.stats.resident_pair_bytes_peak, 8u);
  EXPECT_EQ(sweep.stats.spilled_pairs, 0u);
  EXPECT_GE(sweep.stats.windows, 1u);
}

// ------------------------------------------------------- engine facade

TEST(CpmEngine, SweepAndPerKDispatchAgree) {
  const Graph g = random_graph(50, 0.3, 5);
  cpm::Options options;
  options.engine = "sweep";
  const cpm::Result sweep = cpm::Engine(options).run(g);
  options.engine = "per_k";
  const cpm::Result per_k = cpm::Engine(options).run(g);

  expect_same_cpm(per_k.cpm, sweep.cpm, "engine dispatch");
  ASSERT_TRUE(sweep.has_tree);
  ASSERT_TRUE(per_k.has_tree);
  expect_same_tree(per_k.tree, sweep.tree, "engine dispatch");
  EXPECT_EQ(sweep.engine_name, "sweep");
  EXPECT_EQ(per_k.engine_name, "per_k");
  EXPECT_EQ(sweep.exactness, cpm::Exactness::kExact);
  EXPECT_EQ(per_k.exactness, cpm::Exactness::kExact);
  // The fused pass has no separate clique stage.
  EXPECT_EQ(sweep.timings.cliques_seconds, 0.0);
  EXPECT_GT(sweep.timings.percolate_seconds, 0.0);
  EXPECT_GT(sweep.timings.total_seconds, 0.0);
  EXPECT_GT(per_k.timings.cliques_seconds, 0.0);
}

TEST(CpmEngine, RunOnCliquesDispatch) {
  const Graph g = random_graph(40, 0.35, 9);
  std::vector<NodeSet> cliques = maximal_cliques_of(g);
  cpm::Options options;
  options.engine = "per_k";
  const cpm::Result per_k = cpm::Engine(options).run_on_cliques(g, cliques);
  options.engine = "sweep";
  const cpm::Result sweep =
      cpm::Engine(options).run_on_cliques(g, std::move(cliques));
  expect_same_cpm(per_k.cpm, sweep.cpm, "run_on_cliques dispatch");
  expect_same_tree(per_k.tree, sweep.tree, "run_on_cliques dispatch");
}

TEST(CpmEngine, ReferenceEngineAgreesOnNodeSets) {
  const Graph g = overlapping_cliques(5, 5, 3);
  cpm::Options options;
  options.engine = "reference";
  const cpm::Result ref = cpm::Engine(options).run(g);
  options.engine = "sweep";
  const cpm::Result sweep = cpm::Engine(options).run(g);

  ASSERT_EQ(ref.cpm.min_k, sweep.cpm.min_k);
  ASSERT_EQ(ref.cpm.max_k, sweep.cpm.max_k);
  for (std::size_t k = ref.cpm.min_k; k <= ref.cpm.max_k; ++k) {
    ASSERT_EQ(ref.cpm.at(k).count(), sweep.cpm.at(k).count()) << "k=" << k;
    for (CommunityId id = 0; id < ref.cpm.at(k).count(); ++id) {
      EXPECT_EQ(ref.cpm.at(k).communities[id].nodes,
                sweep.cpm.at(k).communities[id].nodes)
          << "k=" << k;
    }
  }
  // The reference result carries no clique ids; its tree comes from the
  // containment fallback and must still nest correctly.
  ASSERT_TRUE(ref.has_tree);
  expect_nesting(ref.cpm, ref.tree, "reference tree");
}

TEST(CpmEngine, ReferenceEngineRejectsPreEnumeratedCliques) {
  cpm::Options options;
  options.engine = "reference";
  EXPECT_THROW(
      cpm::Engine(options).run_on_cliques(complete_graph(4), {{0, 1, 2, 3}}),
      Error);
}

TEST(CpmEngine, BuildTreeCanBeDisabled) {
  cpm::Options options;
  options.build_tree = false;
  const cpm::Result result = cpm::Engine(options).run(complete_graph(6));
  EXPECT_FALSE(result.has_tree);
  EXPECT_EQ(result.cpm.max_k, 6u);
}

TEST(CpmEngine, WeightedRunFiltersAndNeverBuildsATree) {
  const Graph g = overlapping_cliques(4, 4, 2);
  // All edge weights 1 except a heavy triangle {0, 1, 2}.
  std::vector<double> per_edge;
  for (const auto& [u, v] : g.edges()) {
    per_edge.push_back(u <= 2 && v <= 2 ? 4.0 : 1.0);
  }
  const EdgeWeights weights(g, std::move(per_edge));

  cpm::Options options;
  options.min_k = 3;
  options.max_k = 3;
  options.intensity_threshold = 2.0;
  const cpm::Result result = cpm::Engine(options).run_weighted(g, weights);
  EXPECT_FALSE(result.has_tree);
  ASSERT_TRUE(result.cpm.has_k(3));
  ASSERT_EQ(result.cpm.at(3).count(), 1u);
  EXPECT_EQ(result.cpm.at(3).communities[0].nodes, (NodeSet{0, 1, 2}));
}

TEST(CpmEngine, ValidatesOptions) {
  cpm::Options options;
  options.min_k = 1;
  EXPECT_THROW(cpm::Engine{options}, Error);
  options.min_k = 2;
  options.min_clique_size = 1;
  EXPECT_THROW(cpm::Engine{options}, Error);
}

TEST(CpmEngine, OptionsFromCliAppliesSharedFlags) {
  const char* argv[] = {"prog", "--k-min=3", "--k-max=7", "--engine=per_k",
                        "--threads=2", "--memory-budget=64M"};
  const CliArgs args(6, argv, cpm::engine_cli_flags());
  const cpm::Options options = cpm::options_from_cli(args);
  EXPECT_EQ(options.min_k, 3u);
  EXPECT_EQ(options.max_k, 7u);
  EXPECT_EQ(options.threads, 2u);
  EXPECT_EQ(options.engine, "per_k");
  EXPECT_EQ(options.memory_budget, 64ull * 1024 * 1024);

  // Defaults pass through untouched when no flag is given.
  const char* bare[] = {"prog"};
  cpm::Options defaults;
  defaults.min_k = 4;
  const cpm::Options kept =
      cpm::options_from_cli(CliArgs(1, bare, cpm::engine_cli_flags()),
                            defaults);
  EXPECT_EQ(kept.min_k, 4u);
  EXPECT_EQ(kept.engine, "sweep");

  const char* bad_budget[] = {"prog", "--memory-budget=12X"};
  EXPECT_THROW(cpm::options_from_cli(
                   CliArgs(2, bad_budget, cpm::engine_cli_flags())),
               Error);
  const char* stream[] = {"prog", "--engine=stream"};
  EXPECT_THROW(
      cpm::options_from_cli(CliArgs(2, stream, cpm::engine_cli_flags())),
      Error);
}

}  // namespace
}  // namespace kcc

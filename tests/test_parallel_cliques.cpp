#include "clique/parallel_cliques.h"

#include <gtest/gtest.h>

#include <span>
#include <tuple>

#include "clique/bron_kerbosch.h"
#include "clique/clique_stream.h"
#include "clique/enumerator.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::random_graph;

class ParallelCliquesThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelCliquesThreads, MatchesSequentialExactly) {
  ThreadPool pool(GetParam());
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = random_graph(60, 0.15, seed);
    EXPECT_EQ(parallel_maximal_cliques(g, pool), maximal_cliques(g))
        << "seed " << seed << " threads " << GetParam();
  }
}

TEST_P(ParallelCliquesThreads, MinSizeRespected) {
  ThreadPool pool(GetParam());
  const Graph g = random_graph(50, 0.2, 3);
  EXPECT_EQ(parallel_maximal_cliques(g, pool, 3), maximal_cliques(g, 3));
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, ParallelCliquesThreads,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelCliques, EmptyGraph) {
  ThreadPool pool(4);
  EXPECT_TRUE(parallel_maximal_cliques(Graph{}, pool).empty());
}

TEST(ParallelCliques, DenseGraph) {
  ThreadPool pool(4);
  const Graph g = random_graph(40, 0.6, 11);
  EXPECT_EQ(parallel_maximal_cliques(g, pool), maximal_cliques(g));
}

TEST(ParallelCliques, RepeatedRunsIdentical) {
  ThreadPool pool(8);
  const Graph g = random_graph(80, 0.1, 42);
  const auto first = parallel_maximal_cliques(g, pool);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(parallel_maximal_cliques(g, pool), first);
  }
}

// Streaming enumerator: same cliques in the same order as the batch
// enumerator, for any window size and thread count.
std::vector<NodeSet> collect_stream(const Graph& g, std::size_t threads,
                                    std::size_t window,
                                    std::size_t min_size = 1) {
  ThreadPool pool(threads);
  CliqueStreamOptions options;
  options.min_size = min_size;
  options.window_positions = window;
  std::vector<NodeSet> out;
  stream_maximal_cliques(g, pool, options,
                         [&](NodeSet&& c) { out.push_back(std::move(c)); });
  return out;
}

TEST(CliqueStream, MatchesBatchEnumeratorAcrossWindowSizes) {
  ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(60, 0.15, seed);
    const auto batch = parallel_maximal_cliques(g, pool);
    for (std::size_t window : {1u, 3u, 16u, 1000u}) {
      EXPECT_EQ(collect_stream(g, 4, window), batch)
          << "seed " << seed << " window " << window;
    }
  }
}

TEST(CliqueStream, MatchesAcrossThreadCounts) {
  const Graph g = random_graph(50, 0.25, 8);
  const auto expected = collect_stream(g, 1, 7);
  for (std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(collect_stream(g, threads, 7), expected)
        << "threads " << threads;
  }
}

TEST(CliqueStream, MinSizeRespected) {
  ThreadPool pool(4);
  const Graph g = random_graph(50, 0.2, 3);
  EXPECT_EQ(collect_stream(g, 4, 16, 3), maximal_cliques(g, 3));
}

// The sweep CPM engine percolates the sequence Enumerator::stream hands it,
// so its output is independent of the window size exactly when that
// sequence is: tiny windows force many enumerate/join hand-offs on a graph
// whose default run fits one window.
TEST(CliqueStream, EnumeratorWindowSizeDoesNotChangeTheSequence) {
  ThreadPool pool(4);
  const Graph g = random_graph(60, 0.25, 17);
  clique::Options opts;
  opts.min_size = 2;
  const auto expected = clique::Enumerator(g, opts).collect();
  for (std::size_t window : {1u, 7u, 64u}) {
    opts.window_positions = window;
    std::vector<NodeSet> streamed;
    const std::size_t windows = clique::Enumerator(g, opts).stream(
        pool, [&](std::span<const NodeId> c) {
          streamed.emplace_back(c.begin(), c.end());
        });
    EXPECT_EQ(streamed, expected) << "window " << window;
    EXPECT_EQ(windows, (g.num_nodes() + window - 1) / window)
        << "window " << window;
  }
}

TEST(CliqueStream, ReportsWindowBoundariesInOrder) {
  const Graph g = random_graph(40, 0.2, 1);
  ThreadPool pool(2);
  CliqueStreamOptions options;
  options.window_positions = 7;  // 40 positions -> 6 windows
  std::vector<std::size_t> boundaries;
  const std::size_t windows = stream_maximal_cliques(
      g, pool, options, [](NodeSet&&) {},
      [&](std::size_t done) { boundaries.push_back(done); });
  EXPECT_EQ(windows, 6u);
  ASSERT_EQ(boundaries.size(), 6u);
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    EXPECT_EQ(boundaries[i], i + 1);
  }
}

TEST(CliqueStream, EmptyGraph) {
  EXPECT_TRUE(collect_stream(Graph{}, 2, 8).empty());
}

// ------------------------------------------- backend x thread-count matrix

class CliqueBackendMatrix
    : public ::testing::TestWithParam<std::tuple<clique::Backend, std::size_t>> {
};

// Every (backend, threads) cell must reproduce the sequential sparse
// enumeration exactly — contents and order — which is the property the
// cpm engines' byte-identical-output contract rests on.
TEST_P(CliqueBackendMatrix, MatchesSequentialSparseExactly) {
  const auto [backend, threads] = GetParam();
  ThreadPool pool(threads);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(60, 0.15, seed);
    clique::Options sparse;
    sparse.backend = clique::Backend::kSparse;
    const auto expected = clique::Enumerator(g, sparse).collect();

    clique::Options opts;
    opts.backend = backend;
    const clique::Enumerator e(g, opts);
    EXPECT_EQ(e.collect(pool), expected)
        << clique::backend_name(backend) << " threads " << threads
        << " seed " << seed;
    // And through the streaming driver, window smaller than the graph.
    std::vector<NodeSet> streamed;
    e.stream(pool, [&](std::span<const NodeId> c) {
      streamed.emplace_back(c.begin(), c.end());
    });
    EXPECT_EQ(streamed, expected)
        << clique::backend_name(backend) << " threads " << threads
        << " seed " << seed << " (stream)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendSweep, CliqueBackendMatrix,
    ::testing::Combine(::testing::Values(clique::Backend::kAuto,
                                         clique::Backend::kSparse,
                                         clique::Backend::kBitset),
                       ::testing::Values(1, 2, 4, 8)));

// Hub fallback: forcing a tiny universe cap makes most subproblems take the
// sparse fallback inside the bitset backend; the mixed run must still be
// identical to both pure kernels.
TEST(CliqueBackends, HubFallbackMatchesPureKernels) {
  ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(70, 0.2, seed);
    clique::Options sparse;
    sparse.backend = clique::Backend::kSparse;
    const auto expected = clique::Enumerator(g, sparse).collect();

    clique::Options mixed;
    mixed.backend = clique::Backend::kBitset;
    mixed.bitset_max_universe = 4;  // almost everything falls back
    const clique::Enumerator e(g, mixed);
    EXPECT_EQ(e.collect(), expected) << "seed " << seed;
    EXPECT_EQ(e.collect(pool), expected) << "seed " << seed << " (pool)";
  }
}

TEST(CliqueBatch, FlatBufferRoundTrip) {
  clique::CliqueBatch batch;
  EXPECT_TRUE(batch.empty());
  const NodeSet a{3, 5, 9};
  const NodeSet b{1};
  batch.add(a);
  batch.add(b);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(NodeSet(batch[0].begin(), batch[0].end()), a);
  EXPECT_EQ(NodeSet(batch[1].begin(), batch[1].end()), b);
  std::vector<NodeSet> replayed;
  batch.for_each([&](std::span<const NodeId> c) {
    replayed.emplace_back(c.begin(), c.end());
  });
  EXPECT_EQ(replayed, (std::vector<NodeSet>{a, b}));
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace kcc

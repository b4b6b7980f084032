// Microbenchmarks: the partition baselines (k-core, k-dense, GCE) against
// the CPM engine on the same ecosystem graph — the cost side of the
// cover-vs-partition trade-off discussed in paper Sec. 1.
#include <benchmark/benchmark.h>

#include "baselines/gce.h"
#include "baselines/kcore.h"
#include "baselines/kdense.h"
#include "baselines/louvain.h"
#include "cpm/engine.h"
#include "synth/as_topology.h"

namespace {

using namespace kcc;

const Graph& ecosystem_graph() {
  static const Graph g = [] {
    return generate_ecosystem(SynthParams::test_scale()).topology.graph;
  }();
  return g;
}

void BM_KCoreDecomposition(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  for (auto _ : state) {
    auto d = kcore_decomposition(g);
    benchmark::DoNotOptimize(d.max_core);
  }
}
BENCHMARK(BM_KCoreDecomposition)->Unit(benchmark::kMillisecond);

void BM_KDenseSubgraph(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  const auto k = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto sub = kdense_subgraph(g, k);
    benchmark::DoNotOptimize(sub.nodes.data());
  }
}
BENCHMARK(BM_KDenseSubgraph)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_EdgeDenseness(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  for (auto _ : state) {
    auto d = edge_denseness(g);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_EdgeDenseness)->Unit(benchmark::kMillisecond);

void BM_GceSeeds(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  GceOptions options;
  options.max_seeds = static_cast<std::size_t>(state.range(0));
  options.max_community_size = 40;
  for (auto _ : state) {
    auto communities = greedy_clique_expansion(g, options);
    benchmark::DoNotOptimize(communities.data());
  }
  }
BENCHMARK(BM_GceSeeds)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_Louvain(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  for (auto _ : state) {
    auto result = louvain_communities(g);
    benchmark::DoNotOptimize(result.modularity);
  }
}
BENCHMARK(BM_Louvain)->Unit(benchmark::kMillisecond);

void BM_CpmFullRange(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  for (auto _ : state) {
    const cpm::Result result = cpm::Engine().run(g);
    benchmark::DoNotOptimize(result.cpm.total_communities());
  }
}
BENCHMARK(BM_CpmFullRange)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

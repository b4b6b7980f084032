// Microbenchmarks: the Clique Percolation Method itself.
//
// The paper's LP-CPM needed 93 hours on 48 cores for the April-2010
// topology; these benchmarks demonstrate the same parallel structure
// (threads sweep), the maximal-clique reduction vs the literal
// k-clique-graph construction (reference CPM) at small scale, and the
// single-sweep engine vs the per-k rescan for all-k extraction.
//
// Special modes (used by the perf_cpm_* ctests):
//   perf_cpm --verify-sweep [--json=FILE]
// runs per_k and the sweep engine (unbudgeted and under a 1 MiB budget that
// forces spilling) each in its own forked child on the bench-scale
// synthetic graph, compares an FNV-1a digest of the full structural output
// — communities, clique ids, clique maps and the nesting tree (gate: both
// sweep runs must match the per_k oracle) — measures per-run wall time and
// peak-RSS growth, and writes the machine-readable BENCH_cpm.json snapshot
// (schema in docs/FORMATS.md). It exits without running the registered
// benchmarks.
#include <benchmark/benchmark.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_json.h"
#include "clique/parallel_cliques.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "cpm/engine.h"
#include "cpm/reference_cpm.h"
#include "cpm/sweep_cpm.h"
#include "obs/metrics.h"
#include "synth/as_topology.h"

namespace {

using namespace kcc;

Graph random_graph(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.next_bool(p)) b.add_edge(i, j);
    }
  }
  b.ensure_nodes(n);
  return b.build();
}

const Graph& ecosystem_graph() {
  static const Graph g = [] {
    SynthParams params = SynthParams::test_scale();
    return generate_ecosystem(params).topology.graph;
  }();
  return g;
}

// The suite's default experiment scale; large enough that the all-k
// comparison reflects real overlap-list sizes (~2M pairs).
const Graph& bench_graph() {
  static const Graph g = [] {
    SynthParams params = SynthParams::bench_scale();
    return generate_ecosystem(params).topology.graph;
  }();
  return g;
}

const std::vector<NodeSet>& bench_cliques() {
  static const std::vector<NodeSet> cliques = [] {
    ThreadPool pool(0);
    return parallel_maximal_cliques(bench_graph(), pool, 2);
  }();
  return cliques;
}

void BM_Cpm_Threads(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  CpmOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  std::size_t communities = 0;
  for (auto _ : state) {
    communities = run_cpm(g, options).total_communities();
    benchmark::DoNotOptimize(communities);
  }
  state.counters["communities"] = static_cast<double>(communities);
}
BENCHMARK(BM_Cpm_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// All-k extraction over pre-enumerated cliques: the tentpole comparison.
// The per-k path rescans the overlap list once per k; the sweep unites each
// pair exactly once and snapshots communities level by level.
void BM_Cpm_PerKAllK(benchmark::State& state) {
  const Graph& g = bench_graph();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<NodeSet> cliques = bench_cliques();  // copy
    state.ResumeTiming();
    auto result = run_cpm_on_cliques(g, std::move(cliques), {});
    benchmark::DoNotOptimize(result.total_communities());
  }
}
BENCHMARK(BM_Cpm_PerKAllK)->Unit(benchmark::kMillisecond);

void BM_Cpm_SweepAllK(benchmark::State& state) {
  const Graph& g = bench_graph();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<NodeSet> cliques = bench_cliques();  // copy
    state.ResumeTiming();
    auto result = run_sweep_engine_on_cliques(g, std::move(cliques), {});
    benchmark::DoNotOptimize(result.cpm.total_communities());
    benchmark::DoNotOptimize(result.tree.nodes().size());
  }
}
BENCHMARK(BM_Cpm_SweepAllK)->Unit(benchmark::kMillisecond);

void BM_Cpm_MaximalCliqueReduction(benchmark::State& state) {
  // Percolation over maximal cliques (ours) on a dense random graph.
  const Graph g = random_graph(static_cast<std::size_t>(state.range(0)), 0.4, 3);
  for (auto _ : state) {
    auto result = run_cpm(g);
    benchmark::DoNotOptimize(result.total_communities());
  }
}
BENCHMARK(BM_Cpm_MaximalCliqueReduction)->Arg(20)->Arg(40)->Arg(80);

void BM_Cpm_ReferenceKCliqueGraph(benchmark::State& state) {
  // Ablation: the literal definition (enumerate k-cliques, pairwise
  // adjacency) — exponentially slower, hence the tiny sizes.
  const Graph g = random_graph(static_cast<std::size_t>(state.range(0)), 0.4, 3);
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t k = 3; k <= 5; ++k) {
      total += reference_k_clique_communities(g, k).size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_Cpm_ReferenceKCliqueGraph)->Arg(20)->Arg(40);

void BM_Cpm_PerKScaling(benchmark::State& state) {
  // Cost of restricting the k range: percolating only high k is cheap.
  const Graph& g = ecosystem_graph();
  CpmOptions options;
  options.min_k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto result = run_cpm(g, options);
    benchmark::DoNotOptimize(result.total_communities());
  }
}
BENCHMARK(BM_Cpm_PerKScaling)->Arg(2)->Arg(6)->Arg(12)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------- --verify-sweep

// FNV-1a over the full structural output, so engine-identity across process
// boundaries reduces to one integer comparison.
class Fnv {
 public:
  void mix(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ (x & 0xff)) * 1099511628211ull;
      x >>= 8;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t digest_result(const CpmResult& cpm, const CommunityTree& tree) {
  Fnv fnv;
  fnv.mix(cpm.min_k);
  fnv.mix(cpm.max_k);
  fnv.mix(cpm.cliques.size());
  for (const NodeSet& clique : cpm.cliques) {
    fnv.mix(clique.size());
    for (NodeId v : clique) fnv.mix(v);
  }
  for (const CommunitySet& set : cpm.by_k) {
    fnv.mix(set.k);
    fnv.mix(set.count());
    for (const Community& c : set.communities) {
      fnv.mix(c.nodes.size());
      for (NodeId v : c.nodes) fnv.mix(v);
      fnv.mix(c.clique_ids.size());
      for (CliqueId id : c.clique_ids) fnv.mix(id);
    }
    for (std::uint32_t id : set.community_of_clique) fnv.mix(id);
  }
  fnv.mix(tree.nodes().size());
  for (const TreeNode& node : tree.nodes()) {
    fnv.mix(node.k);
    fnv.mix(node.community_id);
    fnv.mix(node.size);
    fnv.mix(static_cast<std::uint64_t>(node.parent + 1));
    fnv.mix(node.is_main ? 1 : 0);
  }
  return fnv.value();
}

// One engine configuration of a forked measurement child: a registry
// engine name plus the options that distinguish the run.
struct EngineRun {
  const char* name;                 // registry name, see cpm::engine_registry()
  std::uint64_t memory_budget = 0;  // sweep only
};

// Everything a measurement child reports back through its pipe.
struct ChildReport {
  bool ok = false;
  double wall_ms = 0.0;
  std::uint64_t peak_rss_delta = 0;  // VmHWM growth during the run
  std::uint64_t digest = 0;
  std::uint64_t communities = 0;
  std::uint64_t pairs_total = 0;    // sweep only, else 0
  std::uint64_t spilled_pairs = 0;  // sweep only, else 0
};

// Runs one engine end to end (enumeration included) in a forked child and
// reports wall/peak/digest through a pipe. A fresh process per run is the
// only way to compare peak RSS: VmHWM is monotonic per process, so
// in-process back-to-back runs would all inherit the first run's peak.
// The child measures its own VmHWM right after fork as the baseline (the
// parent's already-resident graph is shared copy-on-write), so the delta
// isolates what the engine itself allocated.
ChildReport run_engine_in_child(const Graph& g, const EngineRun& config) {
  int fds[2];
  ChildReport report;
  if (pipe(fds) != 0) return report;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return report;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::uint64_t baseline = obs::peak_rss_bytes();
    Timer t;
    std::uint64_t digest = 0;
    std::uint64_t communities = 0;
    std::uint64_t pairs_total = 0;
    std::uint64_t spilled_pairs = 0;
    if (std::strcmp(config.name, "sweep") == 0) {
      // Direct call: the facade does not surface the spill statistics.
      cpm::Options options;
      options.memory_budget = config.memory_budget;
      const SweepCpmResult result = run_sweep_engine(g, options);
      digest = digest_result(result.cpm, result.tree);
      communities = result.cpm.total_communities();
      pairs_total = result.stats.pairs_total;
      spilled_pairs = result.stats.spilled_pairs;
    } else {
      cpm::Options options;
      options.engine = config.name;
      const cpm::Result result = cpm::Engine(options).run(g);
      digest = digest_result(result.cpm, result.tree);
      communities = result.cpm.total_communities();
    }
    const double wall_ms = t.seconds() * 1e3;
    const std::uint64_t peak_delta = obs::peak_rss_bytes() - baseline;
    std::ostringstream line;
    line << wall_ms << " " << peak_delta << " " << digest << " "
         << communities << " " << pairs_total << " " << spilled_pairs << "\n";
    const std::string text = line.str();
    const ssize_t written = write(fds[1], text.data(), text.size());
    close(fds[1]);
    _exit(written == static_cast<ssize_t>(text.size()) ? 0 : 1);
  }
  close(fds[1]);
  std::string text;
  char buf[256];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) text.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return report;
  std::istringstream fields(text);
  fields >> report.wall_ms >> report.peak_rss_delta >> report.digest >>
      report.communities >> report.pairs_total >> report.spilled_pairs;
  report.ok = !fields.fail();
  return report;
}

// Compares per_k / sweep / sweep-under-budget end to end: digest identity
// of both sweep runs with
// the per_k oracle gates the exit code; wall and peak-RSS numbers are
// printed and written to `json_path`. Timing/memory never fail the check
// (CI machines are noisy) — the committed snapshot is what documents the
// expectation.
int verify_sweep(const std::string& json_path) {
  // Small enough that the bench graph's overlap pairs overflow it and the
  // spill path is actually exercised (resident pairs stay under ~1 MiB).
  const std::uint64_t budget = 1024 * 1024;
  const Graph& g = bench_graph();
  std::cout << "verify-sweep: " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges\n";

  const EngineRun configs[] = {
      {"per_k"},
      {"sweep"},
      {"sweep", budget},
  };
  constexpr int kConfigs = 3;
  constexpr int kBudgeted = 2;
  constexpr int kRounds = 2;
  ChildReport best[kConfigs];
  for (int i = 0; i < kConfigs; ++i) {
    for (int round = 0; round < kRounds; ++round) {
      const ChildReport report = run_engine_in_child(g, configs[i]);
      if (!report.ok) {
        std::cerr << "verify-sweep: FAIL — " << configs[i].name
                  << " child did not report\n";
        return 1;
      }
      if (round == 0) {
        best[i] = report;
      } else {  // digest/communities are identical across rounds
        best[i].wall_ms = std::min(best[i].wall_ms, report.wall_ms);
        best[i].peak_rss_delta =
            std::min(best[i].peak_rss_delta, report.peak_rss_delta);
      }
    }
    std::cout << "verify-sweep: " << configs[i].name;
    if (configs[i].memory_budget > 0) {
      std::cout << " (budget " << configs[i].memory_budget / (1024 * 1024)
                << "M, " << best[i].spilled_pairs << " pairs spilled)";
    }
    std::cout << ": " << fixed(best[i].wall_ms, 2) << " ms, peak +"
              << best[i].peak_rss_delta / (1024 * 1024) << " MiB, "
              << best[i].communities << " communities\n";
  }

  for (int i = 1; i < kConfigs; ++i) {
    if (best[i].digest != best[0].digest) {
      std::cerr << "verify-sweep: FAIL — " << configs[i].name
                << (configs[i].memory_budget ? " (budgeted)" : "")
                << " output digest differs from the per-k oracle\n";
      return 1;
    }
  }
  if (best[kBudgeted].spilled_pairs == 0) {
    std::cerr << "verify-sweep: FAIL — the budgeted run never spilled; the "
                 "budget is not exercising the spill path at this scale\n";
    return 1;
  }

  auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const double speedup = ratio(best[0].wall_ms, best[1].wall_ms);
  const double budget_peak_ratio =
      ratio(static_cast<double>(best[1].peak_rss_delta),
            static_cast<double>(best[kBudgeted].peak_rss_delta));
  std::cout << "verify-sweep: OK — sweep (unbudgeted and budgeted) matches "
               "the per-k oracle digest\n";
  std::cout << "verify-sweep: all-k extraction per_k/sweep wall "
            << fixed(speedup, 2) << "x; the budget cuts sweep peak "
            << fixed(budget_peak_ratio, 2) << "x\n";

  std::vector<bench::Json> runs;
  for (int i = 0; i < kConfigs; ++i) {
    const bool is_sweep = std::strcmp(configs[i].name, "sweep") == 0;
    bench::Json run;
    run.add("engine", configs[i].name);
    if (is_sweep) {
      run.add("memory_budget_bytes", configs[i].memory_budget);
    }
    run.add("wall_ms", best[i].wall_ms);
    run.add("peak_rss_delta_bytes", best[i].peak_rss_delta);
    run.add("communities", best[i].communities);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(best[i].digest));
    run.add("digest", digest);
    if (is_sweep) {
      run.add("pairs_total", best[i].pairs_total);
      run.add("spilled_pairs", best[i].spilled_pairs);
    }
    runs.push_back(std::move(run));
  }
  bench::Json graph;
  graph.add("scale", "bench");
  graph.add("nodes", g.num_nodes());
  graph.add("edges", g.num_edges());
  bench::Json derived;
  derived.add("per_k_over_sweep_wall_ratio", speedup);
  derived.add("unbudgeted_over_budgeted_peak_ratio", budget_peak_ratio);
  bench::Json doc;
  doc.add("bench", "perf_cpm --verify-sweep");
  doc.add("manifest", bench::manifest_json(obs::collect_manifest("perf_cpm")));
  doc.add("rounds", static_cast<std::uint64_t>(kRounds));
  doc.add("graph", graph);
  doc.add_array("runs", runs);
  doc.add("derived", derived);

  std::ofstream out(json_path);
  if (!out.good()) {
    std::cerr << "verify-sweep: cannot write " << json_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  std::cout << "verify-sweep: wrote " << json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool verify_sweep_mode = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify-sweep") == 0) {
      verify_sweep_mode = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  if (verify_sweep_mode) {
    return verify_sweep(json_path.empty() ? "BENCH_cpm.json" : json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

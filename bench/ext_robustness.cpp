// Extension ablation — robustness of the community structure under node
// removal (targeted hubs vs random failures), in the spirit of the k-core
// robustness studies the paper cites ([6]).
#include "harness.h"

#include "analysis/robustness.h"
#include "common/table.h"

namespace {

int body(const kcc::bench::HarnessConfig& config) {
  using namespace kcc;
  // Run at test scale: every point recomputes the full CPM.
  SynthParams params = SynthParams::test_scale();
  params.seed = config.pipeline.synth.seed;
  const AsEcosystem eco = generate_ecosystem(params);
  const Graph& g = eco.topology.graph;
  std::cout << "[run] robustness at test scale: " << g.num_nodes()
            << " ASes, " << g.num_edges() << " edges\n\n";

  const CpmResult baseline = cpm::Engine().run(g).cpm;
  std::cout << "Baseline: max k = " << baseline.max_k << ", "
            << baseline.total_communities() << " communities\n\n";

  TextTable table({"policy", "removed", "edges left", "giant comp",
                   "max k", "communities"});
  for (RemovalPolicy policy :
       {RemovalPolicy::kTargetedByDegree, RemovalPolicy::kRandom}) {
    RobustnessOptions options;
    options.policy = policy;
    options.fractions = {0.01, 0.05, 0.10};
    options.seed = params.seed;
    for (const RobustnessPoint& point : community_robustness(g, options)) {
      table.add(policy == RemovalPolicy::kTargetedByDegree ? "targeted"
                                                           : "random",
                percent(point.removed_fraction, 0), point.edges_left,
                point.giant_component, point.max_k,
                point.total_communities);
    }
  }
  std::cout << table;
  std::cout << "\nExpected shape: targeted removal of high-degree ASes "
               "guts the crown (max k collapses) and fragments the "
               "topology long before random failures do.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return kcc::bench::guarded_main(
      argc, argv, "Extension — community robustness under node removal",
      "hub attacks collapse the dense crown; random failures barely move it "
      "(cf. the k-core robustness literature the paper cites)",
      body);
}

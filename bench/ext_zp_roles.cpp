// Extension — z-P functional cartography over k-clique communities, the
// analysis style of the paper's related work [21] (which the paper avoids
// because the role taxonomy is threshold-heuristic; this harness also shows
// that sensitivity).
#include "harness.h"

#include "common/table.h"
#include "metrics/zp_roles.h"
#include "synth/as_topology.h"

namespace {

int body(const kcc::bench::HarnessConfig& config) {
  using namespace kcc;
  SynthParams params = SynthParams::test_scale();
  params.seed = config.pipeline.synth.seed;
  const AsEcosystem eco = generate_ecosystem(params);
  const Graph& g = eco.topology.graph;
  const CpmResult cpm = kcc::cpm::Engine().run(g).cpm;
  std::cout << "[run] z-P analysis at test scale: " << g.num_nodes()
            << " ASes, communities at k in [" << cpm.min_k << ", "
            << cpm.max_k << "]\n\n";

  for (std::size_t k : {4u, 6u}) {
    if (!cpm.has_k(k)) continue;
    const auto scores = zp_scores(g, cpm.at(k));
    const auto histogram = zp_role_histogram(scores);
    TextTable table({"role (k=" + std::to_string(k) + ")", "memberships"});
    const ZpRole roles[] = {
        ZpRole::kUltraPeripheral, ZpRole::kPeripheral, ZpRole::kConnector,
        ZpRole::kKinless,         ZpRole::kProvincialHub,
        ZpRole::kConnectorHub,    ZpRole::kKinlessHub};
    for (std::size_t i = 0; i < 7; ++i) {
      table.add(zp_role_name(roles[i]), histogram[i]);
    }
    std::cout << table << "\n";
  }

  // Threshold sensitivity: how many memberships change role when the z
  // threshold moves from 2.5 to 2.0 (the paper's reason for avoiding z-P).
  const auto scores = zp_scores(g, cpm.at(4));
  std::size_t flips = 0;
  for (const auto& s : scores) {
    const bool hub_at_25 = s.z >= 2.5;
    const bool hub_at_20 = s.z >= 2.0;
    if (hub_at_25 != hub_at_20) ++flips;
  }
  std::cout << "Role flips when the hub threshold moves 2.5 -> 2.0: "
            << flips << " of " << scores.size()
            << " memberships — the heuristic-threshold fragility the paper "
               "cites as its reason to avoid z-P.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return kcc::bench::guarded_main(
      argc, argv, "Extension — z-P role analysis",
      "Guimerà-Amaral roles over k-clique communities (the method of [21]) "
      "and their threshold sensitivity",
      body);
}

// Extension — business-relationship composition of communities: the crown
// is settlement-free peering fabric, the low-k main community mixes in the
// customer-provider hierarchy. Quantifies the economic reading the paper
// gives its tree bands.
#include "harness.h"

#include "common/table.h"
#include "data/relationships.h"

namespace {

int body(const kcc::bench::HarnessConfig& config) {
  using namespace kcc;
  SynthParams params = SynthParams::test_scale();
  params.seed = config.pipeline.synth.seed;
  const AsEcosystem eco = generate_ecosystem(params);
  const Graph& g = eco.topology.graph;
  const auto [cp, peering] = eco.relationships.totals();
  std::cout << "[run] " << g.num_nodes() << " ASes; " << cp
            << " customer-provider links, " << peering
            << " peering links\n\n";

  const CpmResult cpm = kcc::cpm::Engine().run(g).cpm;
  TextTable table({"k", "communities", "mean peering fraction"});
  for (const auto& row : peering_by_k(g, eco.relationships, cpm)) {
    table.add(row.k, cpm.at(row.k).count(),
              fixed(row.mean_peering_fraction, 3));
  }
  std::cout << table;

  const auto& series = peering_by_k(g, eco.relationships, cpm);
  const double low = series[1].mean_peering_fraction;   // k = 3
  const double high = series.back().mean_peering_fraction;
  std::cout << "\nShape check: peering fraction rises from "
            << fixed(low, 3) << " at k=3 to " << fixed(high, 3)
            << " at the apex — communities become pure settlement-free "
               "fabric as k grows.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return kcc::bench::guarded_main(
      argc, argv, "Extension — relationship composition per k",
      "high-k communities are settlement-free peering fabric; low-k "
      "communities mix in the customer-provider hierarchy",
      body);
}

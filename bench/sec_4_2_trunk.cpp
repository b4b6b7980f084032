// Section 4.2 — trunk communities: dense chains with no full-share IXP.
//
// Paper: 30 trunk communities (k in [15:28]); > 90% on-IXP members but no
// full-share IXP; parallel trunk communities share > 95% of members with
// their max-share IXP (the nested MSK-IX branch: sizes 21/32/39 at
// k = 20/19/18); trunk main communities are large dense chains whose members
// average Internet degree ~500 and are often worldwide/continental.
#include "harness.h"

#include "common/table.h"
#include "data/tags.h"
#include "graph/graph_algorithms.h"

namespace {

int body(const kcc::bench::HarnessConfig& config) {
  using namespace kcc;
  const PipelineResult result = kcc::bench::run_harness(config);
  const AsEcosystem& eco = result.eco;

  std::size_t trunk_count = 0, with_full_share = 0;
  for (const auto& p : result.profiles) {
    if (result.bands.band_of(p.k) != Band::kTrunk) continue;
    ++trunk_count;
    if (!p.full_share.empty()) ++with_full_share;
  }
  std::cout << "Trunk communities: " << trunk_count << " (paper: 30)\n";
  std::cout << "Trunk communities with a full-share IXP: " << with_full_share
            << " (paper: 0)\n\n";

  TextTable table({"community", "size", "main", "on-IXP", "max-share IXP",
                   "share", "mean degree", "worldwide+continental"});
  for (const auto& p : result.profiles) {
    if (result.bands.band_of(p.k) != Band::kTrunk) continue;
    const Community& c = result.cpm.at(p.k).communities[p.id];
    std::string name = "-", share = "-";
    if (p.max_share) {
      name = eco.ixps.ixp(p.max_share->ixp).name;
      share = percent(p.max_share->fraction);
    }
    const double wc =
        geo_tag_fraction(eco.geo, c.nodes, GeoTag::kWorldwide) +
        geo_tag_fraction(eco.geo, c.nodes, GeoTag::kContinental);
    std::string label = "k";
    label.append(std::to_string(p.k)).append("id");
    label.append(std::to_string(p.id));
    table.add(label, p.size,
              p.is_main ? "yes" : "no", percent(p.on_ixp_fraction), name,
              share, fixed(mean_degree(eco.topology.graph, c.nodes), 1),
              percent(wc));
  }
  std::cout << table;

  // Paper comparisons.
  double main_degree_sum = 0.0, stub_degree = 0.0;
  std::size_t mains = 0;
  for (const auto& p : result.profiles) {
    if (result.bands.band_of(p.k) != Band::kTrunk || !p.is_main) continue;
    const Community& c = result.cpm.at(p.k).communities[p.id];
    main_degree_sum += mean_degree(eco.topology.graph, c.nodes);
    ++mains;
  }
  const DegreeStats global = degree_stats(eco.topology.graph);
  stub_degree = global.median;
  if (mains > 0) {
    std::cout << "\nMean member degree of trunk main communities: "
              << fixed(main_degree_sum / double(mains), 1)
              << " vs global median degree " << fixed(stub_degree, 1)
              << " (paper: 500.2 vs low stub degrees)\n";
  }

  // Nested-branch check (the MSK-IX analogue): look for a parallel chain of
  // >= 2 nested levels inside the trunk band whose sizes grow as k drops.
  std::size_t nested_found = 0;
  for (std::size_t i = 0; i < result.tree.nodes().size(); ++i) {
    const TreeNode& node = result.tree.nodes()[i];
    if (node.is_main || result.bands.band_of(node.k) != Band::kTrunk) continue;
    if (node.children.size() == 1 &&
        !result.tree.nodes()[node.children[0]].is_main &&
        result.tree.nodes()[node.children[0]].size <= node.size) {
      ++nested_found;
    }
  }
  std::cout << "Nested parallel trunk pairs (child community inside a larger "
               "parent): "
            << nested_found
            << " (paper: the MSK-IX branch, sizes 21/32/39 at k=20/19/18)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return kcc::bench::guarded_main(
      argc, argv, "Section 4.2 — trunk communities",
      "30 trunk communities; > 90% on-IXP yet no full-share IXP; nested "
      "MSK-IX branch; high member degree, worldwide/continental ASes",
      body);
}

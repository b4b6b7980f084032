// IXP-centric community interpretation (paper Sec. 4.1): which IXP shares
// the most members with each community, which communities live entirely
// inside one IXP, and what the communities inside a single big IXP's
// induced subgraph look like.
//
//   ./ixp_communities --scale=test|bench --seed=42

#include <iostream>

#include "analysis/pipeline.h"
#include "common/cli.h"
#include "common/table.h"
#include "cpm/engine.h"
#include "graph/subgraph.h"

int main(int argc, char** argv) {
  using namespace kcc;
  try {
    std::vector<std::string> known{"scale", "seed"};
    for (const std::string& flag : cpm::engine_cli_flags()) {
      known.push_back(flag);
    }
    const CliArgs args(argc, argv, known);
    PipelineOptions options;
    options.synth = args.get_string("scale", "bench") == "test"
                        ? SynthParams::test_scale()
                        : SynthParams::bench_scale();
    options.synth.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    options.cpm = cpm::options_from_cli(args, options.cpm);

    const PipelineResult result = run_pipeline(options);
    const AsEcosystem& eco = result.eco;

    // --- max-share / full-share table for the crown band ---
    std::cout << "Crown communities (k > " << result.bands.trunk_max_k
              << ") and their IXPs:\n";
    TextTable crown({"community", "size", "max-share IXP", "shared",
                     "fraction", "full-share"});
    for (const CommunityTagProfile& p : result.profiles) {
      if (result.bands.band_of(p.k) != Band::kCrown) continue;
      std::string name = "-", shared = "-", fraction = "-";
      if (p.max_share) {
        name = eco.ixps.ixp(p.max_share->ixp).name;
        shared = std::to_string(p.max_share->shared);
        fraction = percent(p.max_share->fraction);
      }
      std::string full = p.full_share.empty()
                             ? "no"
                             : eco.ixps.ixp(p.full_share.front()).name;
      std::string label = "k";
      label.append(std::to_string(p.k)).append("id");
      label.append(std::to_string(p.id));
      crown.add(label, p.size, name, shared, fraction, full);
    }
    std::cout << crown << "\n";

    // --- full-share IXPs in the root band (paper: WIX, KhIX, SIX, ...) ---
    std::cout << "Root communities fully inside one IXP:\n";
    TextTable root({"community", "size", "full-share IXP", "IXP country"});
    std::size_t root_full = 0;
    for (const CommunityTagProfile& p : result.profiles) {
      if (result.bands.band_of(p.k) != Band::kRoot || p.full_share.empty() ||
          p.is_main) {
        continue;
      }
      ++root_full;
      const Ixp& ixp = eco.ixps.ixp(p.full_share.front());
      if (root.row_count() < 20) {
        std::string label = "k";
        label.append(std::to_string(p.k)).append("id");
        label.append(std::to_string(p.id));
        root.add(label, p.size, ixp.name, ixp.country);
      }
    }
    std::cout << root;
    std::cout << "(" << root_full << " root parallel communities total with a "
              << "full-share IXP)\n\n";

    // --- communities inside one big IXP's induced subgraph ---
    const IxpId big = eco.big_ixps.front();
    const Ixp& big_ixp = eco.ixps.ixp(big);
    const InducedSubgraph sub =
        induced_subgraph(eco.topology.graph, big_ixp.participants);
    std::cout << big_ixp.name << "-induced subgraph: "
              << sub.graph.num_nodes() << " ASes, " << sub.graph.num_edges()
              << " edges\n";
    cpm::Options inner = options.cpm;
    inner.min_k = 3;
    inner.build_tree = false;  // only the per-k counts matter here
    const CpmResult sub_cpm = cpm::Engine(inner).run(sub.graph).cpm;
    std::cout << "Communities inside it: " << sub_cpm.total_communities()
              << " over k in [" << sub_cpm.min_k << ", " << sub_cpm.max_k
              << "]\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

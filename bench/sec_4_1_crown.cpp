// Section 4.1 — crown communities: the apex community and the big-three
// IXPs.
//
// Paper: 42 crown communities (k in [29:36]); the 36-clique community has 38
// ASes, shares 89% with AMS-IX (its max-share-IXP, no full-share), includes
// a few non-European / non-IXP exceptions; every crown max-share-IXP is one
// of AMS-IX, DE-CIX, LINX; the nine 34-clique communities split between the
// big three and overlap each other.
#include "harness.h"

#include "common/set_ops.h"
#include "common/table.h"
#include "metrics/overlap.h"

namespace {

int body(const kcc::bench::HarnessConfig& config) {
  using namespace kcc;
  const PipelineResult result = kcc::bench::run_harness(config);
  const AsEcosystem& eco = result.eco;

  std::size_t crown_count = 0;
  std::size_t max_share_is_big = 0;
  for (const auto& p : result.profiles) {
    if (result.bands.band_of(p.k) != Band::kCrown) continue;
    ++crown_count;
    if (p.max_share &&
        std::find(eco.big_ixps.begin(), eco.big_ixps.end(),
                  p.max_share->ixp) != eco.big_ixps.end()) {
      ++max_share_is_big;
    }
  }
  std::cout << "Crown communities: " << crown_count << " (paper: 42)\n";
  std::cout << "Crown communities whose max-share-IXP is one of the big "
               "three: "
            << max_share_is_big << " of " << crown_count
            << " (paper: all)\n\n";

  // The apex community.
  const TreeNode& apex = result.tree.nodes()[result.tree.apex()];
  const Community& apex_community =
      result.cpm.at(apex.k).communities[apex.community_id];
  std::cout << "Apex community (k=" << apex.k << "): " << apex.size
            << " ASes (paper: 38 ASes at k=36)\n";
  for (const auto& p : result.profiles) {
    if (p.k == apex.k && p.id == apex.community_id && p.max_share) {
      std::cout << "  max-share-IXP: " << eco.ixps.ixp(p.max_share->ixp).name
                << " sharing " << percent(p.max_share->fraction)
                << " (paper: AMS-IX, 89%)\n";
      std::cout << "  full-share-IXP: "
                << (p.full_share.empty() ? "none (paper: none)" : "present")
                << "\n";
    }
  }
  std::size_t off_ixp = 0, non_eu = 0;
  for (NodeId v : apex_community.nodes) {
    if (!eco.ixps.is_on_ixp(v)) ++off_ixp;
    bool eu = false;
    for (CountryId c : eco.geo.locations_of(v)) {
      if (eco.geo.country(c).continent == "EU") eu = true;
    }
    if (!eu) ++non_eu;
  }
  std::cout << "  members on no IXP: " << off_ixp << " (paper: 3)\n";
  std::cout << "  members with no European presence: " << non_eu
            << " (paper: 4)\n\n";

  // Crown case study (paper: the nine 34-clique communities): pick the
  // crown level with the most communities.
  std::size_t case_k = result.bands.trunk_max_k + 1;
  std::size_t best = 0;
  for (std::size_t k = result.bands.trunk_max_k + 1; k <= result.cpm.max_k;
       ++k) {
    if (result.cpm.at(k).count() > best) {
      best = result.cpm.at(k).count();
      case_k = k;
    }
  }
  std::cout << "Case study: the " << best << " communities at k=" << case_k
            << " (paper: nine 34-clique communities)\n";
  TextTable table({"community", "size", "max-share IXP", "share", "full"});
  for (const auto& p : result.profiles) {
    if (p.k != case_k) continue;
    std::string name = "-", share = "-";
    if (p.max_share) {
      name = eco.ixps.ixp(p.max_share->ixp).name;
      share = percent(p.max_share->fraction);
    }
    std::string label = "k";
    label.append(std::to_string(p.k)).append("id");
    label.append(std::to_string(p.id));
    table.add(label, p.size, name, share,
              p.full_share.empty() ? "no" : "yes");
  }
  std::cout << table;

  // Overlap among the case-study communities (paper: they all overlap; same
  // max-share-IXP pairs overlap more).
  const auto& communities = result.cpm.at(case_k).communities;
  std::size_t overlapping_pairs = 0, pairs = 0;
  for (std::size_t a = 0; a < communities.size(); ++a) {
    for (std::size_t b = a + 1; b < communities.size(); ++b) {
      ++pairs;
      if (community_overlap(communities[a], communities[b]) > 0) {
        ++overlapping_pairs;
      }
    }
  }
  if (pairs > 0) {
    std::cout << "\nOverlapping pairs at k=" << case_k << ": "
              << overlapping_pairs << " of " << pairs << " (paper: all)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return kcc::bench::guarded_main(
      argc, argv, "Section 4.1 — crown communities",
      "42 crown communities; apex = 38 ASes, 89% shared with AMS-IX; all "
      "crown max-share-IXPs are AMS-IX / DE-CIX / LINX",
      body);
}

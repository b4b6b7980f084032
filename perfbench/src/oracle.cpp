#include "oracle.h"

#include "common/error.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace perfbench {

using kcc::serve::put_u32;
using kcc::serve::put_u8;

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kMembership: return "membership";
    case QueryKind::kCommunity: return "community";
    case QueryKind::kAncestry: return "ancestry";
    case QueryKind::kLca: return "lca";
    case QueryKind::kOverlap: return "overlap";
  }
  return "?";
}

QueryShape QueryShape::of(const kcc::cpm::Result& result,
                          std::size_t num_nodes) {
  QueryShape shape;
  shape.num_nodes = static_cast<std::uint32_t>(num_nodes);
  shape.min_k = static_cast<std::uint32_t>(result.cpm.min_k);
  shape.max_k = static_cast<std::uint32_t>(result.cpm.max_k);
  for (std::size_t k = result.cpm.min_k; k <= result.cpm.max_k; ++k) {
    const auto count = result.cpm.at(k).communities.size();
    kcc::require(count > 0, "perfbench: a level without communities");
    shape.communities_at.push_back(static_cast<std::uint32_t>(count));
  }
  kcc::require(!shape.communities_at.empty() && num_nodes > 0,
               "perfbench: nothing to query");
  return shape;
}

std::vector<std::uint8_t> draw_request_of(kcc::Rng& rng,
                                          const QueryShape& shape,
                                          QueryKind kind) {
  auto node = [&] {
    return static_cast<std::uint32_t>(rng.next_below(shape.num_nodes));
  };
  auto community = [&](std::uint32_t& k, std::uint32_t& id) {
    k = shape.min_k + static_cast<std::uint32_t>(
                          rng.next_below(shape.communities_at.size()));
    id = static_cast<std::uint32_t>(
        rng.next_below(shape.communities_at[k - shape.min_k]));
  };
  std::uint32_t k1 = 0, id1 = 0, k2 = 0, id2 = 0;
  switch (kind) {
    case QueryKind::kMembership:
      return kcc::serve::encode_membership(node(), 0);
    case QueryKind::kCommunity:
      community(k1, id1);
      return kcc::serve::encode_community(k1, id1);
    case QueryKind::kAncestry:
      community(k1, id1);
      return kcc::serve::encode_ancestry(k1, id1);
    case QueryKind::kLca:
      community(k1, id1);
      community(k2, id2);
      return kcc::serve::encode_lca(k1, id1, k2, id2);
    case QueryKind::kOverlap: {
      const std::uint32_t u = node();
      return kcc::serve::encode_overlap(u, node());
    }
  }
  return {};
}

std::vector<std::uint8_t> draw_request(kcc::Rng& rng, const QueryShape& shape,
                                       QueryKind& kind) {
  auto roll = static_cast<int>(rng.next_below(100));
  int k = 0;
  while (roll >= kMixPercent[k]) roll -= kMixPercent[k++];
  kind = static_cast<QueryKind>(k);
  return draw_request_of(rng, shape, kind);
}

Oracle::Oracle(const kcc::cpm::Result& result, std::size_t num_nodes)
    : result_(result), postings_(num_nodes) {
  kcc::require(result.has_tree, "perfbench: the oracle needs the tree");
  for (std::size_t k = result.cpm.min_k; k <= result.cpm.max_k; ++k) {
    for (const kcc::Community& c : result.cpm.at(k).communities) {
      for (kcc::NodeId v : c.nodes) {
        postings_[v].push_back({static_cast<std::uint32_t>(k), c.id});
      }
    }
  }
}

std::uint32_t Oracle::parent(std::uint32_t k, std::uint32_t id) const {
  const auto& nodes = result_.tree.nodes();
  const int index = result_.tree.index_of(k, id);
  kcc::require(index >= 0 && nodes[index].parent >= 0,
               "perfbench: oracle walked off the tree");
  return nodes[nodes[index].parent].community_id;
}

std::vector<std::uint8_t> Oracle::answer(
    const std::vector<std::uint8_t>& request) const {
  kcc::serve::Reader in(request);
  const auto op = static_cast<kcc::serve::Op>(in.u8());
  const std::uint32_t min_k = static_cast<std::uint32_t>(result_.cpm.min_k);
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(kcc::serve::Status::kOk));
  auto size_of = [&](std::uint32_t k, std::uint32_t id) {
    return static_cast<std::uint32_t>(
        result_.cpm.at(k).communities.at(id).nodes.size());
  };
  switch (op) {
    case kcc::serve::Op::kMembership: {
      const std::uint32_t node = in.u32();
      const auto& list = postings_.at(node);
      put_u32(out, static_cast<std::uint32_t>(list.size()));
      for (const Posting& p : list) {
        put_u32(out, p.k);
        put_u32(out, p.id);
      }
      break;
    }
    case kcc::serve::Op::kCommunity: {
      const std::uint32_t k = in.u32();
      const std::uint32_t id = in.u32();
      const auto& nodes = result_.cpm.at(k).communities.at(id).nodes;
      put_u32(out, static_cast<std::uint32_t>(nodes.size()));
      for (kcc::NodeId v : nodes) put_u32(out, v);
      break;
    }
    case kcc::serve::Op::kAncestry: {
      std::uint32_t k = in.u32();
      std::uint32_t id = in.u32();
      put_u32(out, k - min_k + 1);
      while (true) {
        put_u32(out, k);
        put_u32(out, id);
        put_u32(out, size_of(k, id));
        if (k == min_k) break;
        id = parent(k, id);
        --k;
      }
      break;
    }
    case kcc::serve::Op::kLca: {
      std::uint32_t k1 = in.u32(), id1 = in.u32();
      std::uint32_t k2 = in.u32(), id2 = in.u32();
      for (; k1 > k2; --k1) id1 = parent(k1, id1);
      for (; k2 > k1; --k2) id2 = parent(k2, id2);
      for (; id1 != id2 && k1 > min_k; --k1) {
        id1 = parent(k1, id1);
        id2 = parent(k1, id2);
      }
      put_u8(out, id1 == id2 ? 1 : 0);
      if (id1 == id2) {
        put_u32(out, k1);
        put_u32(out, id1);
      }
      break;
    }
    case kcc::serve::Op::kOverlap: {
      const auto& pu = postings_.at(in.u32());
      const auto& pv = postings_.at(in.u32());
      // Deepest shared level, the smallest shared id there, and how many
      // communities the two nodes share at that level.
      std::uint32_t max_k = 0, witness = 0, count = 0;
      for (const Posting& a : pu) {
        for (const Posting& b : pv) {
          if (a.k != b.k || a.id != b.id) continue;
          if (a.k > max_k) {
            max_k = a.k;
            witness = a.id;
            count = 0;
          }
          if (a.k == max_k) ++count;
        }
      }
      put_u32(out, max_k);
      put_u32(out, witness);
      put_u32(out, count);
      break;
    }
    default:
      kcc::require(false, "perfbench: the oracle has no answer for this op");
  }
  return out;
}

}  // namespace perfbench

// The query mix sent to `kcc serve`, and the expected answer to each query
// derived from the in-memory cpm::Result rather than from the snapshot the
// daemon serves, so a served answer is checked against an independent copy.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "cpm/engine.h"

namespace perfbench {

/// The serving mix of the perf_serve harness: membership 40%, community
/// 25%, ancestry 15%, LCA 10%, overlap 10%.
enum class QueryKind { kMembership, kCommunity, kAncestry, kLca, kOverlap };
inline constexpr int kNumQueryKinds = 5;
/// Share of each kind in the mix, in percent, in QueryKind order.
inline constexpr int kMixPercent[kNumQueryKinds] = {40, 25, 15, 10, 10};
const char* query_kind_name(QueryKind kind);

/// What the mix needs to know to draw requests that are valid on a result.
struct QueryShape {
  std::uint32_t num_nodes = 0;
  std::uint32_t min_k = 0;
  std::uint32_t max_k = 0;
  std::vector<std::uint32_t> communities_at;  // index k - min_k

  static QueryShape of(const kcc::cpm::Result& result, std::size_t num_nodes);
};

/// One request payload drawn from the mix; every draw is valid for `shape`.
std::vector<std::uint8_t> draw_request(kcc::Rng& rng, const QueryShape& shape,
                                       QueryKind& kind);
/// A request of the given kind (arguments drawn from `rng`).
std::vector<std::uint8_t> draw_request_of(kcc::Rng& rng,
                                          const QueryShape& shape,
                                          QueryKind kind);

/// Expected response payloads (status byte first), byte for byte.
class Oracle {
 public:
  Oracle(const kcc::cpm::Result& result, std::size_t num_nodes);

  std::vector<std::uint8_t> answer(const std::vector<std::uint8_t>& request) const;

 private:
  struct Posting {
    std::uint32_t k;
    std::uint32_t id;
  };
  std::uint32_t parent(std::uint32_t k, std::uint32_t id) const;

  const kcc::cpm::Result& result_;
  std::vector<std::vector<Posting>> postings_;  // per node, (k, id) ascending
};

}  // namespace perfbench

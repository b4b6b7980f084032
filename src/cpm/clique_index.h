// Clique overlap index: the pairwise |A ∩ B| relation over maximal cliques.
//
// The Lightweight Parallel CPM observation (Gregori et al. 2011, [11]) is
// that percolation at every k reads the *same* overlap relation with a
// different threshold: cliques A, B (|A|,|B| >= k) belong to one k-clique
// community chain when |A ∩ B| >= k-1. We therefore compute each
// overlapping pair once — in parallel over cliques, with an inverted
// node→clique index restricting candidates to cliques that share a node —
// and every per-k percolation becomes a linear scan of the pair list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"

namespace kcc {

struct CliqueOverlap {
  CliqueId a = 0;             // a < b
  CliqueId b = 0;
  std::uint32_t overlap = 0;  // |A ∩ B| >= min_overlap
};

/// Work done by one count_overlaps call.
struct OverlapCounts {
  std::size_t hits = 0;        ///< index entries read
  std::size_t candidates = 0;  ///< distinct cliques among them
  std::size_t kept = 0;        ///< candidates whose count reached the floor
};

/// The first-touch overlap count behind every clique join. A clique that
/// shares s nodes with the probe appears in exactly s of the probe's node
/// index lists, so counting its hits IS the overlap |A ∩ B|.
///
/// `for_each_hit(hit)` must call `hit(id)` once per index entry read. Each
/// hit stores its id at touched[n] and advances n only when that id's count
/// was 0, so the hit loop carries no data-dependent branch. A second pass
/// compacts, the same way, the candidates whose count reaches `floor` to
/// touched[0, kept) with their overlaps in overlap[0, kept), and resets
/// every count it read.
///
/// Contract: `count` (indexed by clique id) is all zero on entry and on
/// exit; `touched` holds candidates + 1 slots and `overlap` candidates.
template <typename ForEachHit>
inline OverlapCounts count_overlaps(ForEachHit&& for_each_hit,
                                    std::uint32_t* count, CliqueId* touched,
                                    std::uint32_t* overlap,
                                    std::uint32_t floor) {
  std::size_t n = 0;
  std::size_t hits = 0;
  for_each_hit([&](CliqueId id) {
    touched[n] = id;
    n += count[id]++ == 0;
    ++hits;
  });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const CliqueId id = touched[i];
    const std::uint32_t shared = count[id];
    count[id] = 0;
    touched[kept] = id;
    overlap[kept] = shared;
    kept += shared >= floor;
  }
  return {hits, n, kept};
}

/// Inverted index: for each node, the ids of cliques containing it.
std::vector<std::vector<CliqueId>> build_node_clique_index(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes);

/// Computes all clique pairs with |A ∩ B| >= min_overlap, in parallel over
/// `pool`. Pairs are returned sorted by (a, b); the result is deterministic.
std::vector<CliqueOverlap> compute_clique_overlaps(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& pool);

/// Same pair set without the final (a, b) sort — the pair ORDER depends on
/// the shard count (i.e. on `pool.thread_count()`), only the set is
/// deterministic. For consumers that impose their own order anyway
/// (run_sweep_cpm_prejoined buckets the pairs by overlap) this skips the
/// dominant O(P log P) step of the join.
std::vector<CliqueOverlap> compute_clique_overlaps_unsorted(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& pool);

/// Sequential variant (used by tests and the single-thread ablation bench).
std::vector<CliqueOverlap> compute_clique_overlaps_sequential(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap);

}  // namespace kcc

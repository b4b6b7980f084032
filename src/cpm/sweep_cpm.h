// The exact batch CPM engine: one fused, bounded-memory descending-k sweep.
//
// The per-k engine (cpm.h) re-scans the whole clique-overlap pair list once
// per k — O(k_max * |overlaps|) work over identical data. The nesting
// theorem (paper Sec. 3.1) says the communities at k are coarsened, not
// recomputed, as k decreases: lowering the threshold only merges
// components. This engine exploits that directly, Kruskal-style, and
// pipelines everything in front of the sweep:
//
//  1. Maximal cliques arrive through clique::Enumerator::stream — while the
//     calling thread joins window w, the pool enumerates window w+1, so at
//     most two windows of enumeration slots are ever resident.
//  2. Each arriving clique is joined against a compact inverted node ->
//     clique index of the cliques seen so far (count_overlaps, the
//     branch-free counting kernel of clique_index.h, one clique at a
//     time). Every overlap pair is born directly into the bucket of its
//     overlap value as a packed 8-byte {a, b} record: the buckets ARE the
//     descending sort, so no sort pass and no second copy of the pairs
//     exist. Pairs with overlap below max(3, min_k) - 1 — which no sweep
//     level would ever consume — are dropped at birth, and a clique no
//     larger than that floor is neither joined nor indexed: it shares
//     fewer nodes than it holds with any other maximal clique, so all its
//     pairs would be dropped. At high min_k this skips most of the clique
//     table.
//  3. When a memory budget is set and the resident pair bytes exceed it,
//     whole buckets spill to temp files (largest first) and are streamed
//     back one fixed-size chunk at a time while the sweep drains their
//     level. The budget caps the pair store — the dominant transient — not
//     the output itself (the clique table and communities are the result
//     and must exist in full).
//  4. ONE union-find sweep from k = k_max down to 3: at level k, activate
//     the cliques of size k and unite the pairs of the overlap-(k-1)
//     bucket (pairs with larger overlap were united at higher k); after
//     those unions the union-find components over the live cliques ARE the
//     k-clique communities at k. Each requested level is materialized from
//     that snapshot through the level emitter, which also resolves each
//     (k+1)-community's nesting parent — so the community tree (Fig. 4.2)
//     falls out of the same pass.
//
// Every pair is therefore united exactly once across all k, and the output
// (community node sets, ids, clique maps, tree) is bit-identical to the
// per-k engine's. docs/ALGORITHMS.md has the measured comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpm/clique_index.h"
#include "cpm/community_tree.h"
#include "cpm/cpm.h"
#include "graph/graph.h"

namespace kcc {

namespace cpm {
struct Options;
}

/// Instrumentation snapshot of one sweep run (the same values are published
/// as cpm_stream_* metrics; see docs/OBSERVABILITY.md).
struct SweepCpmStats {
  std::uint64_t windows = 0;             ///< enumeration windows processed
  std::uint64_t pairs_total = 0;         ///< overlap pairs stored (post-prune)
  std::uint64_t spilled_pairs = 0;       ///< pairs written to spill files
  std::uint64_t spill_bytes = 0;         ///< bytes written to spill files
  std::uint64_t resident_pair_bytes_peak = 0;  ///< peak resident pair bytes
  std::uint64_t join_hits = 0;        ///< index entries the join read
  std::uint64_t join_candidates = 0;  ///< distinct cliques they named
  std::uint64_t join_pairs = 0;       ///< pairs the join kept (post-prune)
};

/// Output of the sweep engine: the standard CPM result plus the nesting
/// tree, built during the sweep itself. When the k range is empty the tree
/// is default-constructed (no nodes).
struct SweepCpmResult {
  CpmResult cpm;
  CommunityTree tree;
  SweepCpmStats stats;
};

/// Smallest accepted non-zero memory budget: the spill read-back chunk
/// size. A budget below one chunk could not even stage a reload, so the
/// engine rejects it with kcc::Error instead of thrashing.
std::uint64_t stream_min_memory_budget();

/// Parses a byte count with an optional K/M/G (KiB/MiB/GiB) suffix:
/// "65536", "64K", "200M", "1G". Case-insensitive. Throws kcc::Error on
/// anything else. "0" means unlimited.
std::uint64_t parse_memory_budget(const std::string& text);

/// Enumerates the maximal cliques of `g` (options.min_clique_size and up)
/// and extracts every k-clique community plus the community tree in one
/// fused pass. Honors options.memory_budget / options.spill_dir; the
/// engine-selection fields of `options` are ignored.
SweepCpmResult run_sweep_engine(const Graph& g, const cpm::Options& options);

/// Same over a pre-enumerated maximal-clique set (each clique sorted, size
/// >= 2), taken verbatim: cliques are fed through the identical
/// incremental join, and the budget/spill machinery still applies.
SweepCpmResult run_sweep_engine_on_cliques(const Graph& g,
                                           std::vector<NodeSet> cliques,
                                           const cpm::Options& options);

/// Same over a pre-enumerated clique set AND a pre-computed overlap pair
/// multiset (every unordered clique pair sharing >= 2 nodes, any order,
/// clique ids indexing `cliques`). Skips the join: the pairs go straight
/// into the overlap buckets. The incremental engine maintains the pairs
/// across edge batches and re-enters the sweep here, so its output is the
/// sweep engine's output by construction. When the effective k range stays
/// below 3 the pairs are unused.
SweepCpmResult run_sweep_cpm_prejoined(const Graph& g,
                                       std::vector<NodeSet> cliques,
                                       std::vector<CliqueOverlap> overlaps,
                                       const CpmOptions& options = {});

}  // namespace kcc

// Internals shared by the CPM engines (per-k percolation in cpm.cpp and the
// sweep engine in sweep_cpm.cpp): canonical community ordering, the k = 2
// connected-components special case, option validation and the common
// metrics hooks. Not part of the public API — include cpm/cpm.h or
// cpm/engine.h instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpm/community.h"
#include "graph/graph.h"

namespace kcc::cpm_detail {

/// Orders communities by descending size, ties by smallest member node, and
/// reassigns dense ids + the clique -> community map. The order is
/// independent of union-find internals and thread scheduling, so CPM output
/// is bit-stable across thread counts and across engines.
void canonicalise(CommunitySet& set, std::size_t num_cliques);

/// k = 2: communities are connected components with at least one edge.
CommunitySet percolate_k2(const Graph& g, const std::vector<NodeSet>& cliques);

/// Flushes the per-k community count/size instruments for one finished set.
void note_community_set(const CommunitySet& set);

/// Counts one batch of union-find join operations.
void note_join_ops(std::uint64_t join_ops);

/// Shared entry validation: min_k >= 2 and every clique sorted, size >= 2.
void validate_cpm_input(std::size_t min_k, const std::vector<NodeSet>& cliques,
                        const char* where);

/// Resolves the effective max_k: 0 means "largest clique size"; larger
/// requests are clamped. Returns min_k - 1 (empty range) when no clique
/// reaches min_k.
std::size_t resolve_max_k(std::size_t min_k, std::size_t max_k,
                          const std::vector<NodeSet>& cliques);

}  // namespace kcc::cpm_detail

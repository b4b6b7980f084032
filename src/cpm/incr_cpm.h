// Incremental CPM engine — exact clique percolation under edge churn.
//
// The AS-level topology is not static: the serving scenario (ROADMAP item
// 3) needs community results that track edge updates without recomputing
// from scratch. This engine holds live state — the maximal-clique table, a
// per-node clique index and the pairwise overlap multiset — and patches it
// locally per edge, so a batch touching b edges costs work proportional to
// the affected neighborhoods, not the graph.
//
// Clique maintenance is exact, by two local theorems:
//
//  * ADD (u, v): a maximal clique of G' = G + uv that is not one of G
//    contains both u and v (adjacency only grows, so any other clique kept
//    or lost its maximality status unchanged), and equals {u, v} ∪ S for S
//    a maximal clique of G'[N'(u) ∩ N'(v)] — found by restricting
//    Bron–Kerbosch (clique::Enumerator, min_size = 1) to the common
//    neighborhood. An old clique Q dies iff it absorbs the new edge: Q ∋ u
//    with Q ⊆ N'(v) ∪ {v}, or symmetrically.
//
//  * REMOVE (u, v): exactly the cliques containing both endpoints die. A
//    maximal clique of G' = G - uv that is not one of G is a fragment
//    Q \ {u} or Q \ {v} of a dying clique Q; a fragment survives iff it
//    still has >= 2 nodes and no witness node adjacent to all its members.
//    Fragments are pairwise incomparable and never collide with a
//    surviving clique (v was adjacent to all of Q \ {v}, contradicting
//    that clique's prior maximality), so insertion needs no dedup.
//
// The overlap multiset is patched with the same locality: retiring a
// clique drops its pairs, inserting one counts shared nodes against the
// per-node index (count_overlaps, the kernel every clique join shares).
// Both indexes use lazy invalidation — a retire bumps the slot's
// generation and leaves the stale back-references in place; scans skip
// (and compact away) entries whose stamped generation no longer matches,
// and an amortized global compaction bounds the stale fraction. This
// keeps a retire O(own lists) instead of O(sum of neighbor lists), which
// is the difference between milliseconds and minutes when an edge removal
// inside the dense AS core retires thousands of mutually-overlapping
// cliques at once.
// Materialization then re-enters
// the sweep engine over the maintained table + pairs
// (run_sweep_cpm_prejoined) — the communities, ids, maps and tree are
// produced by literally the same code as a from-scratch sweep, so
// exactness reduces to the clique/overlap maintenance above. The
// check::churn_differential harness re-proves the digest identity against
// a from-scratch run after every batch of every fuzzed schedule.
//
// One serialization caveat: the table is emitted in lexicographic order
// (churn cannot preserve enumeration order), so digest comparisons against
// enumeration-ordered engines go through cpm::canonicalise_clique_order()
// — see EngineCaps::canonical_clique_order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cpm/engine.h"
#include "graph/graph.h"

namespace kcc::cpm {

/// One batch of edge updates. `remove` is applied first, then `add`.
/// Validation is strict and happens against the pre-batch graph before any
/// mutation: self-loops, adding an edge already present, removing one that
/// is absent, a pair listed twice on one side, or the same pair on both
/// sides (a remove-then-re-add round trip is two batches, not one) all
/// throw kcc::Error and leave the state untouched.
struct EdgeBatch {
  std::vector<std::pair<NodeId, NodeId>> add;
  std::vector<std::pair<NodeId, NodeId>> remove;

  bool empty() const { return add.empty() && remove.empty(); }
  std::size_t size() const { return add.size() + remove.size(); }

  /// The batch that undoes this one: adds and removes swapped. Applying a
  /// batch then its inverse restores the original graph (and therefore the
  /// original canonical digest — tested in test_incr_cpm).
  EdgeBatch inverse() const { return EdgeBatch{remove, add}; }
};

/// Live CPM state under edge churn. Construct from a graph (full
/// enumeration bootstrap), mutate with apply(), and snapshot the full
/// all-k Result — digest-identical to a from-scratch sweep on the current
/// graph — with result() whenever needed.
class IncrementalCpm {
 public:
  /// Bootstraps from a full maximal-clique enumeration of `g`. Honors
  /// options.min_k / max_k / min_clique_size / threads / clique_backend /
  /// bitset_max_universe / build_tree; options.engine is ignored (this
  /// state IS the engine). The k range and clique floor only filter
  /// materialization — the maintained table always holds every maximal
  /// clique of size >= 2, which the update theorems require.
  explicit IncrementalCpm(const Graph& g, Options options = {});

  /// Applies one edge batch: removes first, then adds, each patching the
  /// clique table, per-node index and overlap multiset locally. Throws
  /// kcc::Error on an invalid batch (see EdgeBatch) with the state
  /// untouched.
  void apply(const EdgeBatch& batch);

  /// Materializes the Result for the current graph by running the sweep
  /// tail (run_sweep_cpm_prejoined) over the maintained clique table and
  /// overlap multiset, clique table in lexicographic order.
  Result result() const;

  /// The current graph, rebuilt from the maintained adjacency.
  Graph graph() const;

  const Options& options() const { return options_; }
  std::size_t num_nodes() const { return adjacency_.size(); }
  std::size_t num_edges() const { return num_edges_; }
  /// Maintained maximal cliques of size >= 2 (before the min_clique_size
  /// materialization filter).
  std::size_t num_cliques() const { return alive_count_; }
  std::uint64_t batches_applied() const { return batches_applied_; }
  /// Bytes reserved by the maintained state: the summed capacity of the
  /// adjacency, clique table, both indexes and the scratch counters.
  std::size_t state_bytes() const;

 private:
  friend Result run_incremental_on_cliques(const Options&, const Graph&,
                                           std::vector<NodeSet>);
  struct FromCliquesTag {};
  /// Materialize-only bootstrap over a pre-enumerated table (the registry
  /// run_on_cliques hook). The table may already be min_clique_size
  /// filtered, so apply() is not supported on a state built this way.
  IncrementalCpm(FromCliquesTag, const Graph& g, std::vector<NodeSet> cliques,
                 Options options);

  /// Shared ctor tail: copies the adjacency of `g` and builds the per-node
  /// index, overlap lists and scratch over the already-set clique table.
  void bootstrap(const Graph& g);
  void validate(const EdgeBatch& batch) const;
  void add_edge(NodeId u, NodeId v);
  void remove_edge(NodeId u, NodeId v);
  bool adjacent(NodeId u, NodeId v) const;
  /// Whether a fragment of >= 2 nodes has no witness adjacent to all of it.
  bool is_maximal(const NodeSet& nodes);
  CliqueId insert_clique(NodeSet nodes);
  void retire_clique(CliqueId c);
  void grow_scratch();

  /// A lazily-invalidated reference to clique slot `clique`: valid iff
  /// `gen == gen_[clique]` (a retire bumps the slot generation, so stale
  /// entries — including ones pointing at a since-reused slot — fail the
  /// check without ever being eagerly removed).
  struct CliqueRef {
    CliqueId clique;
    std::uint32_t gen;
  };
  struct OverlapEntry {
    CliqueId clique;
    std::uint32_t gen;
    std::uint32_t overlap;
  };
  bool valid(CliqueRef e) const { return gen_[e.clique] == e.gen; }
  bool valid(const OverlapEntry& e) const { return gen_[e.clique] == e.gen; }
  /// Rebuilds every node/overlap list without its stale entries once the
  /// stale fraction crosses 1/2 (amortized O(1) per staleness created).
  void compact_if_needed();

  Options options_;
  std::vector<std::vector<NodeId>> adjacency_;  // sorted neighbor lists
  std::size_t num_edges_ = 0;

  // Slotted clique table: retired slots go to the free list and are reused
  // by later inserts; `alive_` masks them out everywhere else.
  std::vector<NodeSet> cliques_;
  std::vector<char> alive_;
  std::vector<CliqueId> free_slots_;
  std::size_t alive_count_ = 0;
  std::vector<std::uint32_t> gen_;  // bumped per retire; see CliqueRef

  std::vector<std::vector<CliqueRef>> cliques_of_node_;  // unsorted
  /// overlaps_[c] = (d, |c ∩ d|) for every alive d sharing >= 2 nodes with
  /// c that was indexed before c. Each unordered pair is stored once, in
  /// the list of the clique that arrived later (the higher id at
  /// bootstrap), so an insert appends to its own list only.
  std::vector<std::vector<OverlapEntry>> overlaps_;
  /// refs_[c] = entries naming c in other cliques' overlap lists: what a
  /// retire of c leaves stale.
  std::vector<std::uint32_t> refs_;
  /// Upper bound on stale entries across both index structures, reset by
  /// compact_if_needed().
  std::size_t stale_entries_ = 0;

  // count_overlaps scratch over clique slots for insert_clique: count_ is
  // all zero between inserts; touched_ holds one slot more than the table.
  std::vector<std::uint32_t> count_;
  std::vector<CliqueId> touched_;
  std::vector<std::uint32_t> shared_;

  // Epoch-stamped scratch over node ids, reused across operations so no
  // per-op allocation or clearing is needed: collect_absorbed stamps one
  // endpoint's neighborhood for O(1) membership tests.
  std::vector<std::uint64_t> node_stamp_;
  std::uint64_t node_epoch_ = 0;
  std::vector<NodeId> by_degree_;  // is_maximal's members, by degree

  /// Set by the FromCliquesTag ctor when the given table was already
  /// min_clique_size filtered — apply() then refuses (the update theorems
  /// need the full size >= 2 table).
  bool materialize_only_ = false;

  std::uint64_t batches_applied_ = 0;
  std::uint64_t cliques_created_ = 0;
  std::uint64_t cliques_retired_ = 0;
};

/// Registry hooks for the `incremental` engine
/// (caps.canonical_clique_order). The full-run hook deliberately exercises
/// churn: it bootstraps on the graph minus a held-back suffix of edges and
/// apply()s them as one batch, so every differential-matrix run covers the
/// patch path, not just the bootstrap.
Result run_incremental_full(const Options& options, const Graph& g);
Result run_incremental_on_cliques(const Options& options, const Graph& g,
                                  std::vector<NodeSet> cliques);

}  // namespace kcc::cpm

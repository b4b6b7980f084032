#include "cpm/clique_index.h"

#include <algorithm>

#include "common/error.h"
#include "common/set_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

// Overlap-join instruments. Candidate touches count every clique pair the
// counting kernel examined; emitted pairs are the ones that met min_overlap.
// Both are accumulated per shard/batch and flushed with one atomic add.
struct OverlapMetrics {
  obs::Counter& candidates =
      obs::metrics().counter("cpm_overlap_candidates_total");
  obs::Counter& pairs = obs::metrics().counter("cpm_overlap_pairs_total");
};

OverlapMetrics& overlap_metrics() {
  static OverlapMetrics m;
  return m;
}

}  // namespace

std::vector<std::vector<CliqueId>> build_node_clique_index(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes) {
  std::vector<std::vector<CliqueId>> index(num_nodes);
  for (CliqueId c = 0; c < cliques.size(); ++c) {
    for (NodeId v : cliques[c]) {
      require(v < num_nodes, "build_node_clique_index: node out of range");
      index[v].push_back(c);
    }
  }
  return index;  // per-node lists are ascending because c increases
}

namespace {

// count_overlaps scratch over clique ids, sized for any probe.
struct JoinScratch {
  explicit JoinScratch(CliqueId num_cliques)
      : count(num_cliques, 0), touched(num_cliques + 1), overlap(num_cliques) {}
  std::vector<std::uint32_t> count;
  std::vector<CliqueId> touched;
  std::vector<std::uint32_t> overlap;
};

// Overlap pairs (a, b) with b fixed, discovered through b's nodes. Returns
// the number of candidate cliques examined.
std::size_t overlaps_for_clique(const std::vector<NodeSet>& cliques,
                                const std::vector<std::vector<CliqueId>>& index,
                                CliqueId b, std::size_t min_overlap,
                                JoinScratch& scratch,
                                std::vector<CliqueOverlap>& out) {
  const OverlapCounts counts = count_overlaps(
      [&](auto&& hit) {
        for (NodeId v : cliques[b]) {
          for (CliqueId a : index[v]) {
            if (a >= b) break;  // index lists are ascending; only a < b wanted
            hit(a);
          }
        }
      },
      scratch.count.data(), scratch.touched.data(), scratch.overlap.data(),
      static_cast<std::uint32_t>(min_overlap));
  for (std::size_t i = 0; i < counts.kept; ++i) {
    out.push_back({scratch.touched[i], b, scratch.overlap[i]});
  }
  return counts.candidates;
}

}  // namespace

std::vector<CliqueOverlap> compute_clique_overlaps_sequential(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap) {
  require(min_overlap >= 1, "compute_clique_overlaps: min_overlap must be >= 1");
  const auto index = build_node_clique_index(cliques, num_nodes);
  std::vector<CliqueOverlap> out;
  JoinScratch scratch(static_cast<CliqueId>(cliques.size()));
  std::uint64_t candidates = 0;
  for (CliqueId b = 0; b < cliques.size(); ++b) {
    candidates +=
        overlaps_for_clique(cliques, index, b, min_overlap, scratch, out);
  }
  overlap_metrics().candidates.inc(candidates);
  overlap_metrics().pairs.inc(out.size());
  std::sort(out.begin(), out.end(), [](const CliqueOverlap& x, const CliqueOverlap& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  return out;
}

namespace {

// Shared body of the parallel join; the merged pair list is ordered by
// shard, i.e. by b-ranges of equal clique count, with no global sort.
std::vector<CliqueOverlap> overlap_join(const std::vector<NodeSet>& cliques,
                                        std::size_t num_nodes,
                                        std::size_t min_overlap,
                                        ThreadPool& pool) {
  require(min_overlap >= 1, "compute_clique_overlaps: min_overlap must be >= 1");
  KCC_SPAN("cpm/overlap_join");
  const auto index = build_node_clique_index(cliques, num_nodes);

  // Shard cliques into contiguous ranges; each task owns a result slot, so
  // the merged output is independent of scheduling.
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(cliques.size(), pool.thread_count() * 8));
  const std::size_t shard_size = (cliques.size() + shards - 1) / shards;
  std::vector<std::vector<CliqueOverlap>> slots(shards);

  // One scratch per worker, allocated here and reused across its shards
  // (count_overlaps leaves the counts zeroed): per-shard scratch allocated
  // on the workers raised paper-scale per_k peak RSS by 5 MiB. Grain 1:
  // each call is the one shard s.
  std::vector<JoinScratch> scratch;
  for (std::size_t w = 0; w < pool.thread_count(); ++w) {
    scratch.emplace_back(static_cast<CliqueId>(cliques.size()));
  }
  parallel_for_dynamic(pool, shards, 1, [&](std::size_t w, std::size_t s,
                                            std::size_t /*s + 1*/) {
    const CliqueId begin = static_cast<CliqueId>(s * shard_size);
    const CliqueId end = static_cast<CliqueId>(
        std::min(cliques.size(), (s + 1) * shard_size));
    // A local list, moved into its slot once: pushes never write the slot
    // headers, which sit next to the other shards'.
    std::vector<CliqueOverlap> local;
    std::uint64_t candidates = 0;
    for (CliqueId b = begin; b < end; ++b) {
      candidates += overlaps_for_clique(cliques, index, b, min_overlap,
                                        scratch[w], local);
    }
    overlap_metrics().candidates.inc(candidates);
    overlap_metrics().pairs.inc(local.size());
    slots[s] = std::move(local);
  });

  std::size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  std::vector<CliqueOverlap> out;
  out.reserve(total);
  for (auto& slot : slots) {
    out.insert(out.end(), slot.begin(), slot.end());
  }
  return out;
}

}  // namespace

std::vector<CliqueOverlap> compute_clique_overlaps_unsorted(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& pool) {
  return overlap_join(cliques, num_nodes, min_overlap, pool);
}

std::vector<CliqueOverlap> compute_clique_overlaps(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& pool) {
  std::vector<CliqueOverlap> out =
      overlap_join(cliques, num_nodes, min_overlap, pool);
  KCC_SPAN("cpm/overlap_sort");
  std::sort(out.begin(), out.end(),
            [](const CliqueOverlap& x, const CliqueOverlap& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  return out;
}

}  // namespace kcc

#include "cpm/sweep_cpm.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <span>
#include <utility>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/set_ops.h"
#include "common/thread_pool.h"
#include "common/union_find.h"
#include "cpm/engine.h"
#include "cpm/percolate_detail.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

namespace fs = std::filesystem;

// 8 bytes per overlap pair — vs 12 in CliqueOverlap, whose overlap field is
// encoded here by which bucket the pair lives in.
struct PackedPair {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

constexpr std::uint64_t kSpillChunkBytes = 64 * 1024;
constexpr std::size_t kSpillChunkPairs = kSpillChunkBytes / sizeof(PackedPair);

// Cached instrument handles (see obs/metrics.h: lookup locks, updates don't).
struct SweepMetrics {
  obs::Counter& windows = obs::metrics().counter("cpm_stream_windows_total");
  obs::Counter& pairs = obs::metrics().counter("cpm_stream_pairs_total");
  obs::Counter& join_hits =
      obs::metrics().counter("cpm_stream_join_hits_total");
  obs::Counter& join_candidates =
      obs::metrics().counter("cpm_stream_join_candidates_total");
  obs::Counter& join_pairs =
      obs::metrics().counter("cpm_stream_join_pairs_total");
  obs::Counter& spilled_pairs =
      obs::metrics().counter("cpm_stream_spilled_pairs_total");
  obs::Counter& spill_bytes =
      obs::metrics().counter("cpm_stream_spill_bytes_total");
  obs::Gauge& resident_bytes =
      obs::metrics().gauge("cpm_stream_resident_pair_bytes");
  obs::Gauge& rss_bytes = obs::metrics().gauge("cpm_stream_rss_bytes");
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics m;
  return m;
}

template <typename T>
void release(std::vector<T>& v) {
  v.clear();
  v.shrink_to_fit();
}

// Groups live cliques by union-find root into one level-k CommunitySet.
// The root -> community-slot scratch map is epoch-stamped, so each snapshot
// is O(|live|) with no per-level clearing; the union-find itself is never
// copied or rolled back.
class SweepSnapshotter {
 public:
  explicit SweepSnapshotter(std::size_t num_cliques)
      : stamp_(num_cliques, 0), slot_(num_cliques, 0) {}

  // Components over `live` at level `k`, with node sets materialized from
  // `cliques` and clique ids sorted (not yet canonicalised — the emitter
  // does that).
  CommunitySet snapshot(std::size_t k, UnionFind& uf,
                        const std::vector<CliqueId>& live,
                        const std::vector<NodeSet>& cliques) {
    CommunitySet set;
    set.k = k;
    ++epoch_;
    for (CliqueId c : live) {
      const std::uint32_t root = uf.find(c);
      if (stamp_[root] != epoch_) {
        stamp_[root] = epoch_;
        slot_[root] = static_cast<std::uint32_t>(set.communities.size());
        Community community;
        community.k = k;
        set.communities.push_back(std::move(community));
      }
      set.communities[slot_[root]].clique_ids.push_back(c);
    }
    for (Community& community : set.communities) {
      // Activation appends size-k batches, so live is not globally sorted.
      std::sort(community.clique_ids.begin(), community.clique_ids.end());
      for (CliqueId c : community.clique_ids) {
        community.nodes.insert(community.nodes.end(), cliques[c].begin(),
                               cliques[c].end());
      }
      sort_unique(community.nodes);
    }
    return set;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> slot_;
  std::uint32_t epoch_ = 0;
};

// Receives the per-k community sets of the descending-k sweep — from
// result.max_k down to max(3, result.min_k), then optionally the k = 2
// level — canonicalises each, wires the nesting parents of the level above
// through its representative cliques, and assembles the community tree.
// `result.min_k`, `result.max_k` and `result.by_k` must be sized before
// construction; `result.cliques` must hold the full clique table.
class DescendingLevelEmitter {
 public:
  DescendingLevelEmitter(const Graph& g, CpmResult& result)
      : g_(g), result_(result), tree_levels_(result.by_k.size()) {}

  // Emits the level for `set.k`. Levels must arrive in strictly descending
  // k order.
  void emit(CommunitySet set) {
    const std::size_t k = set.k;
    cpm_detail::canonicalise(set, result_.cliques.size());
    cpm_detail::note_community_set(set);
    if (k < result_.max_k) {
      auto& above = tree_levels_[k + 1 - result_.min_k];
      for (std::size_t i = 0; i < reps_above_.size(); ++i) {
        above[i].parent_id = set.community_of_clique[reps_above_[i]];
        require(above[i].parent_id != CommunitySet::kNoCommunity,
                "DescendingLevelEmitter: nesting parent missing");
      }
    }
    auto& links = tree_levels_[k - result_.min_k];
    links.resize(set.count());
    reps_above_.assign(set.count(), 0);
    for (CommunityId id = 0; id < set.count(); ++id) {
      links[id].size = set.communities[id].size();
      reps_above_[id] = set.communities[id].clique_ids.front();
    }
    result_.by_k[k - result_.min_k] = std::move(set);
  }

  // Emits the k = 2 level (connected components) and resolves the k = 3
  // parents. Call after every k >= 3 level, only when result.min_k == 2.
  void emit_k2() {
    CommunitySet set = cpm_detail::percolate_k2(g_, result_.cliques);
    cpm_detail::note_community_set(set);
    if (result_.max_k >= 3) {
      auto& above = tree_levels_[1];
      for (std::size_t i = 0; i < reps_above_.size(); ++i) {
        above[i].parent_id = set.community_of_clique[reps_above_[i]];
      }
    }
    auto& links = tree_levels_[0];
    links.resize(set.count());
    for (CommunityId id = 0; id < set.count(); ++id) {
      links[id].size = set.communities[id].size();
    }
    result_.by_k[0] = std::move(set);
  }

  CommunityTree finish() const {
    return CommunityTree::from_levels(result_.min_k, tree_levels_);
  }

 private:
  const Graph& g_;
  CpmResult& result_;
  std::vector<std::vector<TreeParentLink>> tree_levels_;
  // Representative clique of each community at the previously emitted
  // (next-higher) level, in canonical id order; resolving it against the
  // current level's clique -> community map yields the nesting parent.
  std::vector<CliqueId> reps_above_;
};

// One overlap value's pairs: a resident tail plus an optional spilled
// prefix. The per-overlap buckets double as the descending sort.
struct Bucket {
  std::vector<PackedPair> resident;
  std::uint64_t spilled_pairs = 0;
  std::ofstream spill_out;  // open iff spilled_pairs > 0
};

// The percolator: cliques arrive one at a time (add_clique) or as a
// pre-joined table (adopt_prejoined), overlap pairs are bucketed by overlap
// value with budget-driven spill, and finish() runs the descending-k sweep.
class SweepPercolator {
 public:
  SweepPercolator(const Graph& g, std::size_t min_k, std::size_t max_k,
                  std::uint64_t memory_budget, std::string spill_dir)
      : g_(g),
        min_k_(min_k),
        max_k_(max_k),
        memory_budget_(memory_budget),
        spill_base_(std::move(spill_dir)),
        index_(g.num_nodes()) {
    require(min_k_ >= 2, "run_sweep_engine: min_k must be >= 2");
    require(memory_budget_ == 0 ||
                memory_budget_ >= stream_min_memory_budget(), [&] {
      return "run_sweep_engine: --memory-budget " +
             std::to_string(memory_budget_) +
             " is smaller than the spill chunk (" +
             std::to_string(stream_min_memory_budget()) +
             " bytes); raise the budget or use 0 for unlimited";
    });
    // Pairs below this overlap would feed no sweep level: level k consumes
    // overlap k-1 and the lowest emitted union level is max(3, min_k).
    prune_min_ = std::max<std::size_t>(3, min_k_) - 1;
  }

  ~SweepPercolator() {
    if (!spill_dir_.empty()) {
      std::error_code ec;  // best-effort cleanup, errors already reported
      for (auto& bucket : buckets_) {
        if (bucket.spill_out.is_open()) bucket.spill_out.close();
      }
      fs::remove_all(spill_dir_, ec);
    }
  }

  void add_clique(NodeSet&& clique) {
    const CliqueId c = static_cast<CliqueId>(cliques_.size());
    // Two distinct maximal cliques share fewer nodes than the smaller one
    // holds, so a clique of size <= prune_min_ takes part only in pairs
    // below the prune floor: it is neither joined nor indexed. max_k == 2
    // consumes no pairs at all (communities are connected components).
    // The join's scratch grows first: the c earlier cliques are at most c
    // candidates, and count_overlaps needs one touched slot more.
    count_.push_back(0);
    touched_.push_back(0);
    overlap_.push_back(0);
    if (max_k_ != 2 && clique.size() > prune_min_) {
      join_against_index(c, clique);
      for (NodeId v : clique) index_[v].push_back(c);
    }
    cliques_.push_back(std::move(clique));
  }

  // Takes a clique table whose overlap pairs were joined elsewhere: each
  // pair goes straight into its bucket. Pairs are only read when some
  // level >= 3 will be emitted.
  void adopt_prejoined(std::vector<NodeSet> cliques,
                       std::vector<CliqueOverlap> overlaps) {
    cliques_ = std::move(cliques);
    const std::size_t max_k =
        cpm_detail::resolve_max_k(min_k_, max_k_, cliques_);
    if (max_k < std::max<std::size_t>(3, min_k_)) return;
    std::size_t max_size = 0;
    for (const auto& c : cliques_) max_size = std::max(max_size, c.size());
    // Two distinct maximal cliques share at most min(|A|, |B|) - 1 nodes.
    // Exact bucket sizes first, then one scatter pass into them.
    std::vector<std::size_t> count(max_size, 0);
    const std::size_t n = cliques_.size();
    for (const CliqueOverlap& pair : overlaps) {
      require(pair.a < n && pair.b < n && pair.overlap < max_size,
              "run_sweep_cpm_prejoined: overlap pair out of range");
      ++count[pair.overlap];
    }
    buckets_.resize(max_size);
    std::vector<PackedPair*> next(max_size, nullptr);
    for (std::size_t o = prune_min_; o < max_size; ++o) {
      buckets_[o].resident.resize(count[o]);
      next[o] = buckets_[o].resident.data();
      stats_.pairs_total += count[o];
    }
    for (const CliqueOverlap& pair : overlaps) {
      if (pair.overlap >= prune_min_) *next[pair.overlap]++ = {pair.a, pair.b};
    }
    resident_pair_bytes_ = stats_.pairs_total * sizeof(PackedPair);
    stats_.resident_pair_bytes_peak = resident_pair_bytes_;
  }

  // Window boundary: publish the memory gauges and the window counter.
  void on_window() {
    ++stats_.windows;
    sweep_metrics().windows.inc();
    publish_gauges();
  }

  SweepCpmResult finish() {
    publish_gauges();
    SweepMetrics& m = sweep_metrics();
    m.pairs.inc(stats_.pairs_total);
    m.join_hits.inc(stats_.join_hits);
    m.join_candidates.inc(stats_.join_candidates);
    m.join_pairs.inc(stats_.join_pairs);
    SweepCpmResult out;
    CpmResult& result = out.cpm;
    result.cliques = std::move(cliques_);
    result.min_k = min_k_;
    result.max_k = cpm_detail::resolve_max_k(min_k_, max_k_, result.cliques);
    out.stats = stats_;
    if (result.max_k < result.min_k) return out;

    // The join is done; drop its scratch before the sweep allocates.
    release(index_);
    release(count_);
    release(touched_);
    release(overlap_);

    const std::size_t num_cliques = result.cliques.size();
    std::size_t max_size = 0;
    for (const auto& c : result.cliques) {
      max_size = std::max(max_size, c.size());
    }
    result.by_k.resize(result.max_k - result.min_k + 1);
    DescendingLevelEmitter emitter(g_, result);

    if (result.max_k >= 3) {
      KCC_SPAN("sweep_cpm/sweep");
      KCC_LOG(kDebug) << "run_sweep_engine: " << num_cliques << " cliques, "
                      << stats_.pairs_total << " overlap pairs, k in ["
                      << result.min_k << ", " << result.max_k << "]";
      std::vector<std::vector<CliqueId>> cliques_of_size(max_size + 1);
      for (CliqueId c = 0; c < num_cliques; ++c) {
        cliques_of_size[result.cliques[c].size()].push_back(c);
      }
      UnionFind uf(num_cliques);
      std::vector<CliqueId> live;  // cliques of size >= current level
      std::uint64_t join_ops = 0;
      SweepSnapshotter snapshotter(num_cliques);

      const std::size_t lowest = std::max<std::size_t>(3, result.min_k);
      for (std::size_t k = max_size; k >= lowest; --k) {
        for (CliqueId c : cliques_of_size[k]) live.push_back(c);  // activate
        // Pairs with overlap k-1 become k-clique-adjacent at this level;
        // both endpoints have size >= overlap + 1 = k, so they are live.
        drain_bucket(k - 1, uf, join_ops);
        if (k > result.max_k) continue;  // above the requested range
        // Components over the live cliques are the communities at k.
        const obs::ScopedSpan span("sweep_cpm/emit_k=" + std::to_string(k));
        emitter.emit(snapshotter.snapshot(k, uf, live, result.cliques));
      }
      cpm_detail::note_join_ops(join_ops);
    }

    if (result.min_k == 2) {
      KCC_SPAN("sweep_cpm/percolate_k2");
      emitter.emit_k2();
    }
    {
      KCC_SPAN("sweep_cpm/tree");
      out.tree = emitter.finish();
    }
    return out;
  }

 private:
  // Counting join of clique `c` (not yet in the index) against every
  // earlier clique sharing a node, through the shared count_overlaps kernel.
  void join_against_index(CliqueId c, const NodeSet& clique) {
    const OverlapCounts counts = count_overlaps(
        [&](auto&& hit) {
          for (NodeId v : clique) {
            for (CliqueId other : index_[v]) hit(other);
          }
        },
        count_.data(), touched_.data(), overlap_.data(),
        static_cast<std::uint32_t>(prune_min_));
    for (std::size_t i = 0; i < counts.kept; ++i) {
      store_pair(overlap_[i], touched_[i], c);
    }
    stats_.join_hits += counts.hits;
    stats_.join_candidates += counts.candidates;
    stats_.join_pairs += counts.kept;
  }

  void store_pair(std::size_t overlap, CliqueId a, CliqueId b) {
    if (overlap >= buckets_.size()) buckets_.resize(overlap + 1);
    buckets_[overlap].resident.push_back(PackedPair{a, b});
    resident_pair_bytes_ += sizeof(PackedPair);
    ++stats_.pairs_total;
    if (resident_pair_bytes_ > stats_.resident_pair_bytes_peak) {
      stats_.resident_pair_bytes_peak = resident_pair_bytes_;
    }
    if (memory_budget_ != 0 && resident_pair_bytes_ > memory_budget_) {
      spill_until_within_budget();
    }
  }

  void spill_until_within_budget() {
    KCC_SPAN("sweep_cpm/spill");
    while (resident_pair_bytes_ > memory_budget_) {
      // Largest resident bucket first: biggest drop per file write. Ties go
      // to the lowest overlap, which the sweep consumes last.
      std::size_t victim = buckets_.size();
      std::size_t victim_size = 0;
      for (std::size_t o = 0; o < buckets_.size(); ++o) {
        if (buckets_[o].resident.size() > victim_size) {
          victim = o;
          victim_size = buckets_[o].resident.size();
        }
      }
      if (victim == buckets_.size()) break;  // nothing left to spill
      spill_bucket(victim);
    }
  }

  fs::path spill_path(std::size_t overlap) const {
    return spill_dir_ / ("overlap-" + std::to_string(overlap) + ".pairs");
  }

  void spill_bucket(std::size_t overlap) {
    Bucket& bucket = buckets_[overlap];
    if (!bucket.spill_out.is_open()) {
      ensure_spill_dir();
      const fs::path path = spill_path(overlap);
      bucket.spill_out.open(path, std::ios::binary | std::ios::app);
      require(bucket.spill_out.good(), [&] {
        return "run_sweep_engine: cannot open spill file " + path.string();
      });
    }
    const std::uint64_t bytes = bucket.resident.size() * sizeof(PackedPair);
    bucket.spill_out.write(
        reinterpret_cast<const char*>(bucket.resident.data()),
        static_cast<std::streamsize>(bytes));
    require(bucket.spill_out.good(), "run_sweep_engine: spill write failed");
    bucket.spilled_pairs += bucket.resident.size();
    stats_.spilled_pairs += bucket.resident.size();
    stats_.spill_bytes += bytes;
    SweepMetrics& m = sweep_metrics();
    m.spilled_pairs.inc(bucket.resident.size());
    m.spill_bytes.inc(bytes);
    resident_pair_bytes_ -= bytes;
    release(bucket.resident);
  }

  void ensure_spill_dir() {
    if (!spill_dir_.empty()) return;
    static std::atomic<std::uint64_t> run_counter{0};
    const fs::path base =
        spill_base_.empty() ? fs::temp_directory_path() : fs::path(spill_base_);
    spill_dir_ = base / ("kcc-stream-" + std::to_string(::getpid()) + "-" +
                         std::to_string(run_counter.fetch_add(1)));
    fs::create_directories(spill_dir_);
    KCC_LOG(kDebug) << "run_sweep_engine: spilling to " << spill_dir_.string();
  }

  // Unites every pair of one overlap value: spilled prefix streamed back in
  // fixed chunks, then the resident tail. Order within the bucket does not
  // affect the components, hence not the output.
  void drain_bucket(std::size_t overlap, UnionFind& uf,
                    std::uint64_t& join_ops) {
    if (overlap >= buckets_.size()) return;
    Bucket& bucket = buckets_[overlap];
    if (bucket.spilled_pairs > 0) {
      bucket.spill_out.close();
      const fs::path path = spill_path(overlap);
      std::ifstream in(path, std::ios::binary);
      require(in.good(), [&] {
        return "run_sweep_engine: cannot reopen spill file " + path.string();
      });
      std::vector<PackedPair> chunk(kSpillChunkPairs);
      std::uint64_t remaining = bucket.spilled_pairs;
      while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, chunk.size()));
        in.read(reinterpret_cast<char*>(chunk.data()),
                static_cast<std::streamsize>(n * sizeof(PackedPair)));
        require(static_cast<std::size_t>(in.gcount()) ==
                    n * sizeof(PackedPair), [&] {
          return "run_sweep_engine: spill file truncated: " + path.string();
        });
        for (std::size_t i = 0; i < n; ++i) uf.unite(chunk[i].a, chunk[i].b);
        join_ops += n;
        remaining -= n;
      }
      in.close();
      std::error_code ec;
      fs::remove(path, ec);
      bucket.spilled_pairs = 0;
    }
    for (const PackedPair& p : bucket.resident) uf.unite(p.a, p.b);
    join_ops += bucket.resident.size();
    resident_pair_bytes_ -= bucket.resident.size() * sizeof(PackedPair);
    release(bucket.resident);
  }

  void publish_gauges() {
    SweepMetrics& m = sweep_metrics();
    m.resident_bytes.set(static_cast<std::int64_t>(resident_pair_bytes_));
    m.rss_bytes.set(static_cast<std::int64_t>(obs::current_rss_bytes()));
  }

  const Graph& g_;
  const std::size_t min_k_;
  const std::size_t max_k_;
  const std::uint64_t memory_budget_;
  const std::string spill_base_;  // empty = system temp directory
  std::size_t prune_min_ = 2;

  std::vector<NodeSet> cliques_;               // the growing output table
  std::vector<std::vector<CliqueId>> index_;   // node -> cliques (ascending)
  // count_overlaps scratch: count_ and overlap_ one slot per clique,
  // touched_ one more.
  std::vector<std::uint32_t> count_;
  std::vector<CliqueId> touched_ = std::vector<CliqueId>(1);
  std::vector<std::uint32_t> overlap_;

  std::vector<Bucket> buckets_;  // buckets_[o] = pairs with overlap o
  std::uint64_t resident_pair_bytes_ = 0;
  fs::path spill_dir_;  // empty until the first spill

  SweepCpmStats stats_;
};

}  // namespace

std::uint64_t stream_min_memory_budget() { return kSpillChunkBytes; }

std::uint64_t parse_memory_budget(const std::string& text) {
  require(!text.empty(), "parse_memory_budget: empty value");
  std::size_t digits = 0;
  while (digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  require(digits > 0, [&] {
    return "parse_memory_budget: '" + text +
           "' must start with a number (e.g. 512M)";
  });
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    const std::uint64_t next = value * 10 + (text[i] - '0');
    require(next >= value, [&] {
      return "parse_memory_budget: '" + text + "' overflows";
    });
    value = next;
  }
  std::uint64_t multiplier = 1;
  if (digits < text.size()) {
    require(digits + 1 == text.size(), [&] {
      return "parse_memory_budget: '" + text +
             "' has trailing characters after the unit";
    });
    switch (std::toupper(static_cast<unsigned char>(text[digits]))) {
      case 'K':
        multiplier = 1024ULL;
        break;
      case 'M':
        multiplier = 1024ULL * 1024;
        break;
      case 'G':
        multiplier = 1024ULL * 1024 * 1024;
        break;
      default:
        throw Error("parse_memory_budget: unknown unit '" +
                    std::string(1, text[digits]) + "' in '" + text +
                    "' (use K, M or G)");
    }
  }
  require(value <= ~0ULL / multiplier, [&] {
    return "parse_memory_budget: '" + text + "' overflows";
  });
  return value * multiplier;
}

SweepCpmResult run_sweep_engine(const Graph& g, const cpm::Options& options) {
  require(options.min_clique_size >= 2,
          "run_sweep_engine: min_clique_size must be >= 2");
  KCC_SPAN("sweep_cpm/run");
  SweepPercolator percolator(g, options.min_k, options.max_k,
                             options.memory_budget, options.spill_dir);
  {
    KCC_SPAN("sweep_cpm/enumerate_join");
    ThreadPool pool(options.threads);
    clique::Options copt;
    copt.min_size = options.min_clique_size;
    copt.backend = options.clique_backend;
    copt.bitset_max_universe = options.bitset_max_universe;
    clique::Enumerator(g, copt).stream(
        pool,
        [&](std::span<const NodeId> clique) {
          percolator.add_clique(NodeSet(clique.begin(), clique.end()));
        },
        [&](std::size_t) { percolator.on_window(); });
  }
  return percolator.finish();
}

SweepCpmResult run_sweep_engine_on_cliques(const Graph& g,
                                           std::vector<NodeSet> cliques,
                                           const cpm::Options& options) {
  cpm_detail::validate_cpm_input(options.min_k, cliques,
                                 "run_sweep_engine_on_cliques");
  KCC_SPAN("sweep_cpm/run_on_cliques");
  SweepPercolator percolator(g, options.min_k, options.max_k,
                             options.memory_budget, options.spill_dir);
  // The clique table is taken verbatim (no min_clique_size filter), like
  // every run_on_cliques path — ids must line up.
  for (auto& clique : cliques) percolator.add_clique(std::move(clique));
  release(cliques);
  return percolator.finish();
}

SweepCpmResult run_sweep_cpm_prejoined(const Graph& g,
                                       std::vector<NodeSet> cliques,
                                       std::vector<CliqueOverlap> overlaps,
                                       const CpmOptions& options) {
  cpm_detail::validate_cpm_input(options.min_k, cliques,
                                 "run_sweep_cpm_prejoined");
  KCC_SPAN("sweep_cpm/run_prejoined");
  SweepPercolator percolator(g, options.min_k, options.max_k,
                             /*memory_budget=*/0, /*spill_dir=*/{});
  percolator.adopt_prejoined(std::move(cliques), std::move(overlaps));
  return percolator.finish();
}

}  // namespace kcc

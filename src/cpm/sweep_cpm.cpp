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
                memory_budget_ >= stream_min_memory_budget(),
            "run_sweep_engine: --memory-budget " +
                std::to_string(memory_budget_) +
                " is smaller than the spill chunk (" +
                std::to_string(stream_min_memory_budget()) +
                " bytes); raise the budget or use 0 for unlimited");
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
    // max_k == 2 never consumes overlap pairs: communities are connected
    // components, so skip the join entirely.
    if (max_k_ != 2) join_against_index(c, clique);
    for (NodeId v : clique) index_[v].push_back(c);
    stamp_.push_back(0);
    count_.push_back(0);
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
    sweep_metrics().pairs.inc(stats_.pairs_total);
    SweepCpmResult out;
    CpmResult& result = out.cpm;
    result.cliques = std::move(cliques_);
    result.min_k = min_k_;
    result.max_k = cpm_detail::resolve_max_k(min_k_, max_k_, result.cliques);
    out.stats = stats_;
    if (result.max_k < result.min_k) return out;

    // The join is done; drop its scratch before the sweep allocates.
    release(index_);
    release(stamp_);
    release(count_);
    release(touched_);

    const std::size_t num_cliques = result.cliques.size();
    std::size_t max_size = 0;
    for (const auto& c : result.cliques) {
      max_size = std::max(max_size, c.size());
    }
    result.by_k.resize(result.max_k - result.min_k + 1);
    cpm_detail::DescendingLevelEmitter emitter(g_, result);

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
      cpm_detail::SweepSnapshotter snapshotter(num_cliques);

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
  // earlier clique sharing a node — the incremental half of
  // clique_index.cpp's overlaps_for_clique.
  void join_against_index(CliqueId c, const NodeSet& clique) {
    const std::uint32_t epoch = c + 1;  // unique per call, stamp_ starts at 0
    for (NodeId v : clique) {
      for (CliqueId other : index_[v]) {
        if (stamp_[other] != epoch) {
          stamp_[other] = epoch;
          count_[other] = 0;
          touched_.push_back(other);
        }
        ++count_[other];
      }
    }
    for (CliqueId other : touched_) {
      const std::size_t overlap = count_[other];
      if (overlap >= prune_min_) store_pair(overlap, other, c);
    }
    touched_.clear();
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
      require(bucket.spill_out.good(),
              "run_sweep_engine: cannot open spill file " + path.string());
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
      require(in.good(),
              "run_sweep_engine: cannot reopen spill file " + path.string());
      std::vector<PackedPair> chunk(kSpillChunkPairs);
      std::uint64_t remaining = bucket.spilled_pairs;
      while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, chunk.size()));
        in.read(reinterpret_cast<char*>(chunk.data()),
                static_cast<std::streamsize>(n * sizeof(PackedPair)));
        require(static_cast<std::size_t>(in.gcount()) ==
                    n * sizeof(PackedPair),
                "run_sweep_engine: spill file truncated: " + path.string());
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
  std::vector<std::uint32_t> stamp_;           // join scratch, per clique
  std::vector<std::uint32_t> count_;
  std::vector<CliqueId> touched_;

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
  require(digits > 0, "parse_memory_budget: '" + text +
                          "' must start with a number (e.g. 512M)");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    const std::uint64_t next = value * 10 + (text[i] - '0');
    require(next >= value, "parse_memory_budget: '" + text + "' overflows");
    value = next;
  }
  std::uint64_t multiplier = 1;
  if (digits < text.size()) {
    require(digits + 1 == text.size(),
            "parse_memory_budget: '" + text +
                "' has trailing characters after the unit");
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
  require(value <= ~0ULL / multiplier,
          "parse_memory_budget: '" + text + "' overflows");
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

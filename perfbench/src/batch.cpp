// batch_full: the paper's own computation at the paper's AS count.
//
// Set-up writes the paper-scale edge list; one operation reads it, runs
// cpm::Engine::run (default engine, all k) and writes the snapshot. The
// traced run splits the operation at the library's public seams and, after
// it, times the overlap join and the sweep tail on their own. Each
// untraced operation is followed by one run of the reference percolation
// (reference.h), the yardstick op_rel divides by.
#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cpm/clique_index.h"
#include "cpm/engine.h"
#include "cpm/sweep_cpm.h"
#include "harness.h"
#include "reference.h"
#include "io/edge_list.h"
#include "io/snapshot.h"
#include "synth/as_topology.h"

namespace perfbench {
namespace {

/// The topology is pinned (paper scale, generator seed 42): relabeling the
/// same graph alone moves the batch time by about 30%, so a seed-dependent
/// topology would drown any bound. The run seed changes the file instead:
/// AS numbers get seeded gaps (order-preserving, so dense ids and the
/// expected digest stay fixed) and the lines are shuffled and re-oriented.
void write_seeded_edge_list(const kcc::Graph& g, std::uint64_t seed,
                            const std::string& path) {
  kcc::Rng rng(seed);
  std::vector<std::uint64_t> label(g.num_nodes());
  std::uint64_t next = 1;
  for (auto& l : label) {
    l = next;
    next += 1 + rng.next_below(4);
  }
  auto edges = g.edges();
  rng.shuffle(edges);
  std::ofstream out(path);
  out << "# paper-scale synthetic AS topology, run seed " << seed << "\n";
  for (const auto& [u, v] : edges) {
    if (rng.next_bool(0.5)) {
      out << label[u] << ' ' << label[v] << '\n';
    } else {
      out << label[v] << ' ' << label[u] << '\n';
    }
  }
  kcc::require(out.good(), "perfbench: cannot write " + path);
}

/// cliques of size >= 3 minus communities at k = 3: the unions that
/// succeeded at some level, i.e. the useful share of the overlap pairs.
double merges(const kcc::cpm::Result& result) {
  if (result.cpm.min_k > 3 || result.cpm.max_k < 3) return 0.0;
  std::size_t big = 0;
  for (const kcc::NodeSet& c : result.cpm.cliques) big += c.size() >= 3;
  return static_cast<double>(big) -
         static_cast<double>(result.cpm.at(3).communities.size());
}

}  // namespace

Outcome run_batch_full(const Args& args, Tracer& tracer) {
  Outcome outcome;
  const std::string edges_path = args.work_dir + "/batch_topology.txt";
  const std::string snap_path = args.work_dir + "/batch.snap";
  kcc::cpm::Options options;
  options.threads = bench_threads();

  // Set-up: generate and write the edge list, five times for a median.
  kcc::Graph graph;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = now_seconds();
    kcc::SynthParams params = args.smoke ? kcc::SynthParams::test_scale()
                                         : kcc::SynthParams::paper_scale();
    params.seed = 42;
    graph = kcc::generate_ecosystem(params).topology.graph;
    write_seeded_edge_list(graph, args.seed, edges_path);
    setup.push_back(now_seconds() - start);
  }

  // The expected digest, derived once and untimed by the per_k engine: one
  // independent percolation per k instead of the default single sweep.
  std::uint64_t expected = 0;
  {
    kcc::cpm::Options oracle = options;
    oracle.engine = "per_k";
    expected = kcc::cpm::canonical_digest(kcc::cpm::Engine(oracle).run(graph));
  }
  if (args.inject_fault) expected ^= 1;
  // The yardstick of op_rel: plain percolation over the same cliques.
  ReferencePercolation reference(enumerate_cliques(graph, 1), graph.num_nodes());
  graph = kcc::Graph();

  reset_peak_rss(0);
  double peak_rss = 0.0;
  std::vector<double> untraced_s, traced_s, reference_s, relative;
  std::vector<double> cliques, pairs, merge_ratio, snapshot_bytes;
  const double start = now_seconds();
  for (std::uint64_t op = 0;
       op < 2 || now_seconds() - start < args.seconds; ++op) {
    // Traced runs alternate: even operations untraced, odd ones traced, so
    // the tracing overhead is traced minus untraced medians.
    const bool traced = tracer.enabled() && op % 2 == 1;
    ++outcome.attempted;
    try {
      kcc::cpm::Result result;
      kcc::Graph g;
      const double t0 = now_seconds();
      if (!traced) {
        g = kcc::read_edge_list_file(edges_path).graph;
        result = kcc::cpm::Engine(options).run(g);
        kcc::snapshot::write_snapshot_file(snap_path, result);
        untraced_s.push_back(now_seconds() - t0);
        // The reference's own memory is not the operation's.
        peak_rss = std::max(peak_rss, proc_status_field(0, "VmHWM"));
        reference_s.push_back(reference.time_once());
        reset_peak_rss(0);
        relative.push_back(untraced_s.back() / reference_s.back());
      } else {
        {
          SpanScope op_span(tracer, "batch.op", op);
          {
            SpanScope s(tracer, "io.load", op);
            g = kcc::read_edge_list_file(edges_path).graph;
          }
          std::vector<kcc::NodeSet> table;
          {
            // Engine::run's own generic path, split at its two calls.
            SpanScope s(tracer, "clique.enumerate", op);
            table = enumerate_cliques(g, options.threads);
          }
          cliques.push_back(static_cast<double>(table.size()));
          {
            SpanScope s(tracer, "cpm.run", op);
            result = kcc::cpm::Engine(options).run_on_cliques(g, std::move(table));
          }
          {
            SpanScope s(tracer, "io.snapshot_write", op);
            kcc::snapshot::write_snapshot_file(snap_path, result);
          }
        }
        traced_s.push_back(now_seconds() - t0);

        // Probes outside the operation: each layer on its own.
        {
          SpanScope s(tracer, "io.snapshot_open", op);
          kcc::snapshot::SnapshotView view(snap_path);
          if (view.num_communities() != result.cpm.total_communities()) {
            outcome.fail("batch_full: snapshot community count differs");
          }
          snapshot_bytes.push_back(static_cast<double>(view.file_bytes()));
        }
        std::vector<kcc::NodeSet> table;
        {
          SpanScope s(tracer, "clique.enumerate_1t", op);
          table = enumerate_cliques(g, 1);
        }
        std::vector<kcc::CliqueOverlap> overlaps;
        {
          SpanScope s(tracer, "cpm.join", op);
          kcc::ThreadPool pool(options.threads);
          overlaps = kcc::compute_clique_overlaps_unsorted(table, g.num_nodes(),
                                                          2, pool);
        }
        {
          SpanScope s(tracer, "cpm.join_1t", op);
          kcc::ThreadPool pool(1);
          kcc::compute_clique_overlaps_unsorted(table, g.num_nodes(), 2, pool);
        }
        pairs.push_back(static_cast<double>(overlaps.size()));
        merge_ratio.push_back(overlaps.empty()
                                  ? 0.0
                                  : merges(result) /
                                        static_cast<double>(overlaps.size()));
        kcc::cpm::Result split;
        {
          SpanScope s(tracer, "cpm.tail", op);
          kcc::SweepCpmResult sweep = kcc::run_sweep_cpm_prejoined(
              g, std::move(table), std::move(overlaps), options.cpm_options());
          split.cpm = std::move(sweep.cpm);
          split.tree = std::move(sweep.tree);
          split.has_tree = split.cpm.max_k >= split.cpm.min_k;
        }
        if (kcc::cpm::canonical_digest(split) !=
            kcc::cpm::canonical_digest(result)) {
          outcome.fail("batch_full: the split path's digest differs from "
                       "Engine::run's");
        }
      }
      if (kcc::cpm::canonical_digest(result) != expected) {
        ++outcome.failed;
        outcome.fail("batch_full: digest differs from the per_k derivation "
                     "at operation " + std::to_string(op));
      }
    } catch (const std::exception& e) {
      ++outcome.failed;
      outcome.fail(std::string("batch_full: ") + e.what());
    }
  }
  peak_rss = std::max(peak_rss, proc_status_field(0, "VmHWM"));

  const double batch_s = median(untraced_s);
  outcome.end_to_end = {{"setup_s", median(setup), "s"},
                        {"peak_rss_mb", peak_rss, "MiB"},
                        {"op_rel", median(relative), "ratio"}};
  outcome.catalog = {{"batch_s", batch_s, "s"},
                     {"reference_ms", median(reference_s) * 1e3, "ms"},
                     {"batch_ops", static_cast<double>(untraced_s.size()), "count"}};
  if (tracer.enabled()) {
    outcome.per_layer = {
        {"io.load_ms", median_span_ms(tracer, "io.load"), "ms"},
        {"clique.enumerate_ms", median_span_ms(tracer, "clique.enumerate"), "ms"},
        {"clique.enumerate_ms_1t", median_span_ms(tracer, "clique.enumerate_1t"), "ms"},
        {"clique.cliques", median(cliques), "count"},
        {"cpm.run_ms", median_span_ms(tracer, "cpm.run"), "ms"},
        {"cpm.join_ms", median_span_ms(tracer, "cpm.join"), "ms"},
        {"cpm.join_ms_1t", median_span_ms(tracer, "cpm.join_1t"), "ms"},
        {"cpm.pairs", median(pairs), "count"},
        {"cpm.tail_ms", median_span_ms(tracer, "cpm.tail"), "ms"},
        {"cpm.merge_ratio", median(merge_ratio), "ratio"},
        {"io.snapshot_write_ms", median_span_ms(tracer, "io.snapshot_write"), "ms"},
        {"io.snapshot_bytes", median(snapshot_bytes), "bytes"},
        {"io.snapshot_open_ms", median_span_ms(tracer, "io.snapshot_open"), "ms"},
        {"batch.unaccounted_ms", median_self_ms(tracer, "batch.op"), "ms"},
        {"trace.overhead_ms", (median(traced_s) - median(untraced_s)) * 1e3, "ms"},
    };
  }
  std::filesystem::remove(edges_path);
  std::filesystem::remove(snap_path);
  return outcome;
}

}  // namespace perfbench

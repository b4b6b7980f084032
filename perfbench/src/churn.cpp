// churn_update: the time until an edge change can be queried.
//
// One live cpm::IncrementalCpm is held in-process (`kcc update` would
// re-bootstrap per call). One operation applies a seeded 1% peripheral-flap
// batch, materializes the Result, publishes the snapshot (write + rename),
// has the `kcc serve` daemon reload it and reads the first answer from the
// new view. A light open-loop query stream runs beside the updates. Each
// untraced operation is followed by one run of the reference percolation
// (reference.h), the yardstick op_rel divides by.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cpm/clique_index.h"
#include "cpm/engine.h"
#include "cpm/incr_cpm.h"
#include "cpm/sweep_cpm.h"
#include "harness.h"
#include "io/snapshot.h"
#include "loadgen.h"
#include "oracle.h"
#include "reference.h"
#include "serve/client.h"
#include "synth/as_topology.h"

namespace perfbench {
namespace {

using Edge = std::pair<kcc::NodeId, kcc::NodeId>;

/// An edge may flap when one endpoint has degree <= 64: churn at the AS
/// edge, the model the perf_incr harness documents.
constexpr std::uint32_t kFlapDegreeMax = 64;

/// `ops / 2` removes of present flap-eligible edges and as many adds of
/// absent flap-eligible pairs. `edges` is sorted with u < v.
kcc::cpm::EdgeBatch draw_batch(const std::vector<Edge>& edges,
                               std::size_t num_nodes, std::size_t ops,
                               kcc::Rng& rng) {
  std::vector<std::uint32_t> degree(num_nodes, 0);
  for (const Edge& e : edges) {
    ++degree[e.first];
    ++degree[e.second];
  }
  auto flappable = [&](kcc::NodeId u, kcc::NodeId v) {
    return std::min(degree[u], degree[v]) <= kFlapDegreeMax;
  };
  std::vector<Edge> pool;
  for (const Edge& e : edges) {
    if (flappable(e.first, e.second)) pool.push_back(e);
  }
  kcc::cpm::EdgeBatch batch;
  batch.remove = rng.sample_without_replacement(
      pool, std::min<std::size_t>(ops / 2, pool.size()));
  while (batch.add.size() < ops - batch.remove.size()) {
    const auto u = static_cast<kcc::NodeId>(rng.next_below(num_nodes));
    const auto v = static_cast<kcc::NodeId>(rng.next_below(num_nodes));
    if (u == v || !flappable(u, v)) continue;
    const Edge e{std::min(u, v), std::max(u, v)};
    if (std::binary_search(edges.begin(), edges.end(), e) ||
        std::find(batch.add.begin(), batch.add.end(), e) != batch.add.end()) {
      continue;
    }
    batch.add.push_back(e);
  }
  return batch;
}

void apply_to_edges(std::vector<Edge>& edges, const kcc::cpm::EdgeBatch& batch) {
  std::vector<Edge> removed = batch.remove;
  std::sort(removed.begin(), removed.end());
  std::erase_if(edges, [&](const Edge& e) {
    return std::binary_search(removed.begin(), removed.end(), e);
  });
  edges.insert(edges.end(), batch.add.begin(), batch.add.end());
  std::sort(edges.begin(), edges.end());
}

void publish(const kcc::cpm::Result& result, const std::string& path) {
  const std::string tmp = path + ".tmp";
  kcc::snapshot::write_snapshot_file(tmp, result);
  std::filesystem::rename(tmp, path);
}

/// Queries valid on every view: node ids never change under churn, while
/// community ids and the k range do.
std::vector<std::uint8_t> background_request(kcc::Rng& rng,
                                             std::uint32_t num_nodes) {
  const auto u = static_cast<std::uint32_t>(rng.next_below(num_nodes));
  if (rng.next_below(10) < 7) return kcc::serve::encode_membership(u, 0);
  return kcc::serve::encode_overlap(
      u, static_cast<std::uint32_t>(rng.next_below(num_nodes)));
}

}  // namespace

Outcome run_churn_update(const Args& args, Tracer& tracer) {
  Outcome outcome;
  const std::string snap_path = args.work_dir + "/churn.snap";
  const std::string socket_path = args.work_dir + "/churn.sock";
  kcc::cpm::Options options;
  options.threads = bench_threads();

  // Set-up, five times for a median: generate, bootstrap the live state,
  // publish the first snapshot, start the daemon, warm it up.
  kcc::Graph graph;
  std::unique_ptr<kcc::cpm::IncrementalCpm> state;
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();
    state.reset();
    const double start = now_seconds();
    kcc::SynthParams params = args.smoke ? kcc::SynthParams::test_scale()
                                         : kcc::SynthParams::bench_scale();
    params.seed = 42;
    graph = kcc::generate_ecosystem(params).topology.graph;
    state = std::make_unique<kcc::cpm::IncrementalCpm>(graph, options);
    publish(state->result(), snap_path);
    daemon = std::make_unique<Daemon>(args.kcc_binary, snap_path, socket_path,
                                      args.work_dir + "/churn_daemon.log");
    kcc::serve::Client warm(socket_path);
    for (std::uint32_t v = 0; v < 200; ++v) {
      warm.membership(v % static_cast<std::uint32_t>(graph.num_nodes()));
    }
    kcc::require(warm.request_reload() == kcc::serve::Status::kOk,
                 "perfbench: warm-up reload refused");
    setup.push_back(now_seconds() - start);
  }
  const auto num_nodes = static_cast<std::uint32_t>(graph.num_nodes());
  std::vector<Edge> edges = graph.edges();
  for (Edge& e : edges) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  std::sort(edges.begin(), edges.end());
  const std::size_t batch_ops =
      std::max<std::size_t>(2, edges.size() / 100);

  // The bootstrap's clique stage on its own (a set-up layer), untimed.
  double enumerate_ms = 0.0, cliques = 0.0;
  if (tracer.enabled()) {
    const double t0 = now_seconds();
    cliques = static_cast<double>(
        enumerate_cliques(graph, options.threads).size());
    enumerate_ms = (now_seconds() - t0) * 1e3;
  }
  // The yardstick of op_rel: plain percolation over the starting cliques.
  ReferencePercolation reference(enumerate_cliques(graph, 1), graph.num_nodes());
  graph = kcc::Graph();

  // Reads beside writes: a light open-loop stream on its own connection.
  const double background_rate = args.smoke ? 200.0 : 2000.0;
  PhaseStats background;
  std::exception_ptr background_error;
  OpenLoopConnection stream(socket_path, args.seed * 7919 + 1);
  kcc::serve::Client control(socket_path);
  set_reply_timeout(control.fd(), kReplyTimeoutSeconds);
  reset_peak_rss(0);
  double peak_rss = 0.0;
  const double start = now_seconds();
  std::thread reader([&] {
    try {
      background = stream.run(
          args.seconds, background_rate, 0.0,
          [&](kcc::Rng& rng) { return background_request(rng, num_nodes); },
          1u << 30);
    } catch (...) {
      background_error = std::current_exception();
    }
  });

  kcc::Rng rng(args.seed);
  std::vector<double> untraced_ms, traced_ms, incr_cliques, snapshot_bytes;
  std::vector<double> reference_ms, relative;
  std::vector<double> first_answer_us;
  kcc::cpm::Result last;
  kcc::cpm::EdgeBatch batch;
  for (std::uint64_t op = 0;
       op < 4 || now_seconds() - start < args.seconds; ++op) {
    // Traced runs trace every other flap pair (both halves), so traced and
    // untraced operations see the same mix of batches and inverses.
    const bool traced = tracer.enabled() && (op / 2) % 2 == 1;
    ++outcome.attempted;
    try {
      // Link flaps: a fresh batch, then its inverse bringing the links back,
      // so the graph does not drift over the run and every operation of
      // every run churns the same topology.
      batch = op % 2 == 0 ? draw_batch(edges, num_nodes, batch_ops, rng)
                          : batch.inverse();
      const kcc::NodeId probe = batch.add.empty() ? batch.remove.front().first
                                                  : batch.add.front().first;
      kcc::serve::Status reload = kcc::serve::Status::kOk;
      std::vector<std::uint8_t> answer;
      const double t0 = now_seconds();
      {
        std::optional<SpanScope> op_span;
        if (traced) op_span.emplace(tracer, "churn.op", op);
        // The previous result is dropped before the next one is built, as a
        // server replacing its published result would.
        last = kcc::cpm::Result();
        if (!traced) {
          state->apply(batch);
          last = state->result();
          publish(last, snap_path);
          reload = control.request_reload();
          control.send_request(kcc::serve::encode_membership(probe, 0));
          answer = control.read_response();
        } else {
          {
            SpanScope s(tracer, "cpm.incr_apply", op);
            state->apply(batch);
          }
          {
            SpanScope s(tracer, "cpm.incr_materialize", op);
            last = state->result();
          }
          {
            SpanScope s(tracer, "io.snapshot_write", op);
            publish(last, snap_path);
          }
          {
            SpanScope s(tracer, "serve.reload", op);
            reload = control.request_reload();
          }
          const double a0 = now_seconds();
          {
            SpanScope s(tracer, "serve.first_answer", op);
            control.send_request(kcc::serve::encode_membership(probe, 0));
            answer = control.read_response();
          }
          first_answer_us.push_back((now_seconds() - a0) * 1e6);
        }
      }
      (traced ? traced_ms : untraced_ms).push_back((now_seconds() - t0) * 1e3);
      if (!traced) {
        // The reference's own memory is not the operation's.
        peak_rss = std::max(peak_rss, proc_status_field(0, "VmHWM"));
        reference_ms.push_back(reference.time_once() * 1e3);
        reset_peak_rss(0);
        relative.push_back(untraced_ms.back() / reference_ms.back());
      }
      apply_to_edges(edges, batch);

      std::vector<std::uint8_t> expected = Oracle(last, num_nodes).answer(
          kcc::serve::encode_membership(probe, 0));
      if (args.inject_fault && op == 0) expected.back() ^= 1;
      if (reload != kcc::serve::Status::kOk || answer != expected) {
        ++outcome.failed;
        outcome.fail("churn_update: the first answer after batch " +
                     std::to_string(op) + " does not match the new result");
      }
      if (traced) {
        {
          SpanScope s(tracer, "io.snapshot_open", op);
          kcc::snapshot::SnapshotView view(snap_path);
          snapshot_bytes.push_back(static_cast<double>(view.file_bytes()));
        }
        incr_cliques.push_back(static_cast<double>(state->num_cliques()));
        // The sweep tail that materialization re-enters, timed on its own
        // over a freshly joined copy of the current graph's cliques.
        const kcc::Graph g = state->graph();
        std::vector<kcc::NodeSet> table = enumerate_cliques(g, options.threads);
        kcc::ThreadPool pool(options.threads);
        std::vector<kcc::CliqueOverlap> pairs =
            kcc::compute_clique_overlaps_unsorted(table, g.num_nodes(), 2, pool);
        SpanScope s(tracer, "cpm.tail", op);
        kcc::run_sweep_cpm_prejoined(g, std::move(table), std::move(pairs),
                                     options.cpm_options());
      }
    } catch (const std::exception& e) {
      ++outcome.failed;
      outcome.fail(std::string("churn_update: ") + e.what());
      break;
    }
  }
  reader.join();
  peak_rss = std::max(peak_rss, proc_status_field(0, "VmHWM"));
  if (background_error) std::rethrow_exception(background_error);

  // The final state against a from-scratch run on the final graph.
  {
    kcc::cpm::Result fresh = kcc::cpm::Engine(options).run(
        kcc::Graph::from_edges(num_nodes, edges));
    kcc::cpm::canonicalise_clique_order(fresh);
    if (kcc::cpm::canonical_digest(fresh) != kcc::cpm::canonical_digest(last)) {
      outcome.fail("churn_update: the final digest differs from a "
                   "from-scratch run");
    }
  }

  outcome.attempted += background.sent;
  outcome.failed += background.failed;
  outcome.requests_sent = background.sent + 2 * untraced_ms.size() +
                          2 * traced_ms.size();
  outcome.requests_failed = background.failed;
  outcome.requests_ok = outcome.requests_sent - outcome.requests_failed;

  const double update_ms = median(untraced_ms);
  outcome.end_to_end = {{"setup_s", median(setup), "s"},
                        {"peak_rss_mb", peak_rss, "MiB"},
                        {"op_rel", median(relative), "ratio"}};
  outcome.catalog = {
      {"update_to_query_ms", update_ms, "ms"},
      {"reference_ms", median(reference_ms), "ms"},
      {"update_ops", static_cast<double>(untraced_ms.size()), "count"},
      {"query_p50_us", percentile(background.latency_us, 0.5), "us"},
      {"query_p99_us", percentile(background.latency_us, 0.99), "us"},
  };
  if (untraced_ms.size() >= samples_for_percentile(0.9)) {
    outcome.catalog.push_back(
        {"update_to_query_ms_p90", percentile(untraced_ms, 0.9), "ms"});
  } else {
    outcome.notes.push_back("update_to_query_ms_p90 not reported: " +
                            std::to_string(untraced_ms.size()) +
                            " operations, fewer than ten beyond p90");
  }
  if (tracer.enabled()) {
    outcome.per_layer = {
        {"clique.enumerate_ms", enumerate_ms, "ms"},
        {"clique.cliques", cliques, "count"},
        {"cpm.tail_ms", median_span_ms(tracer, "cpm.tail"), "ms"},
        {"cpm.incr_apply_ms", median_span_ms(tracer, "cpm.incr_apply"), "ms"},
        {"cpm.incr_materialize_ms",
         median_span_ms(tracer, "cpm.incr_materialize"), "ms"},
        {"cpm.incr_cliques", median(incr_cliques), "count"},
        {"io.snapshot_write_ms", median_span_ms(tracer, "io.snapshot_write"), "ms"},
        {"io.snapshot_bytes", median(snapshot_bytes), "bytes"},
        {"io.snapshot_open_ms", median_span_ms(tracer, "io.snapshot_open"), "ms"},
        {"serve.reload_ms", median_span_ms(tracer, "serve.reload"), "ms"},
        {"serve.first_answer_us", median(first_answer_us), "us"},
        {"serve.threads", proc_status_field(daemon->pid(), "Threads"), "count"},
        {"churn.unaccounted_ms", median_self_ms(tracer, "churn.op"), "ms"},
        {"trace.overhead_ms", median(traced_ms) - median(untraced_ms), "ms"},
    };
  }
  daemon.reset();
  std::filesystem::remove(snap_path);
  return outcome;
}

}  // namespace perfbench

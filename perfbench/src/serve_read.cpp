// serve_read: the time to answer a query from the paper-scale snapshot.
//
// `kcc serve` runs as its own process. Generator threads drive it open
// loop through a fixed ladder of arrival rates, each thread on one
// long-lived pipelined connection plus a slow stream of one-shot
// connections. Only `serve` works here; no CPM code runs after set-up.
// Before each ladder cycle the nominal arrivals go to the runner's bare
// echo service (reference.h), the yardstick op_rel divides by.
#include <algorithm>
#include <barrier>
#include <filesystem>
#include <memory>
#include <thread>

#include "cpm/engine.h"
#include "harness.h"
#include "io/snapshot.h"
#include "loadgen.h"
#include "oracle.h"
#include "reference.h"
#include "serve/client.h"
#include "serve/query.h"
#include "synth/as_topology.h"

namespace perfbench {
namespace {

/// Rates of the ladder (req/s across all generator threads), ascending.
/// The nominal rung is where query_p50_us / query_p99_us are read; it
/// gets the largest share of the run so its tail has the most samples.
constexpr double kLadder[] = {10000, 25000, 50000, 100000, 150000};
constexpr std::size_t kNominal = 1;
constexpr double kNominalShare = 0.3;
/// Before each ladder cycle, the nominal arrivals go to the reference echo
/// service for this share of the run; op_rel divides the two p50s.
constexpr double kEchoShare = 0.3;
/// The ladder runs this many times, each time on fresh connections; every
/// rung's figures pool its samples over the cycles. Where the scheduler
/// puts one cycle's server threads moves its p50 by about 11%; twelve
/// cycles average that out.
constexpr int kCycles = 24;
/// One-shot connections per second, at every rung.
constexpr double kOneShotRate = 50.0;
/// The latency limit a rung must meet for query_max_qps.
constexpr double kP99LimitUs = 1000.0;

/// Mean serve::evaluate time per request of one kind, in-process (ns).
double eval_ns(const kcc::snapshot::SnapshotView& view,
               const QueryShape& shape, QueryKind kind, std::uint64_t seed) {
  kcc::Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> requests;
  for (int i = 0; i < 20000; ++i) {
    requests.push_back(draw_request_of(rng, shape, kind));
  }
  std::vector<std::uint8_t> response;
  std::vector<double> per_pass;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_seconds();
    for (const auto& r : requests) {
      kcc::serve::evaluate(view, r.data(), r.size(), response, false, false);
    }
    per_pass.push_back((now_seconds() - t0) * 1e9 /
                       static_cast<double>(requests.size()));
  }
  return median(per_pass);
}

}  // namespace

Outcome run_serve_read(const Args& args, Tracer& tracer) {
  Outcome outcome;
  const std::string snap_path = args.work_dir + "/serve.snap";
  const std::string socket_path = args.work_dir + "/serve.sock";
  kcc::cpm::Options options;
  options.threads = bench_threads();

  // Set-up, five times for a median: generate, run the engine, write the
  // snapshot, start the daemon and warm it up with pipelined queries.
  std::unique_ptr<Daemon> daemon;
  kcc::cpm::Result result;
  std::size_t num_nodes = 0;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();
    const double start = now_seconds();
    kcc::SynthParams params = args.smoke ? kcc::SynthParams::test_scale()
                                         : kcc::SynthParams::paper_scale();
    params.seed = 42;
    const kcc::Graph graph = kcc::generate_ecosystem(params).topology.graph;
    num_nodes = graph.num_nodes();
    result = kcc::cpm::Engine(options).run(graph);
    kcc::snapshot::write_snapshot_file(snap_path, result);
    daemon = std::make_unique<Daemon>(args.kcc_binary, snap_path, socket_path,
                                      args.work_dir + "/serve_daemon.log",
                                      true);
    const QueryShape shape = QueryShape::of(result, num_nodes);
    kcc::serve::Client warm(socket_path);
    kcc::Rng rng(args.seed + 17);
    QueryKind kind{};
    for (int batch = 0; batch < 20; ++batch) {
      for (int j = 0; j < 256; ++j) warm.send_request(draw_request(rng, shape, kind));
      for (int j = 0; j < 256; ++j) warm.read_response();
    }
    setup.push_back(now_seconds() - start);
  }
  const QueryShape shape = QueryShape::of(result, num_nodes);
  const Oracle oracle(result, num_nodes);

  // Generator threads, at most nproc: `piped` threads each drive one
  // long-lived pipelined connection, and one more thread opens the one-shot
  // connections (so a slow connect never delays the pipelined schedule).
  // Connections open at once: one long-lived per thread plus one one-shot.
  const std::size_t piped = std::max<std::size_t>(1, bench_threads() / 2);
  const std::size_t threads = piped + 1;
  const std::size_t rungs = std::size(kLadder);
  std::vector<double> rung_seconds(
      rungs, args.seconds * (1.0 - kNominalShare - kEchoShare) /
                 static_cast<double>(rungs - 1));
  rung_seconds[kNominal] = args.seconds * kNominalShare;
  for (double& seconds : rung_seconds) seconds /= kCycles;
  const double echo_seconds = args.seconds * kEchoShare / kCycles;
  ReferenceEcho echo(args.work_dir + "/echo.sock");
  // The nominal rung's and the echo's samples per cycle and thread.
  std::vector<std::vector<PhaseStats>> nominal_by_cycle(
      kCycles, std::vector<PhaseStats>(threads));
  std::vector<std::vector<PhaseStats>> echo_by_cycle(
      kCycles, std::vector<PhaseStats>(threads));

  const pid_t pid = daemon->pid();
  reset_peak_rss(pid);
  const double vm_before = proc_status_field(pid, "VmSize");
  std::vector<std::vector<PhaseStats>> stats(rungs,
                                             std::vector<PhaseStats>(threads));
  std::barrier sync(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      pin_to_half(false);
      try {
        const RequestSource source = [&](kcc::Rng& rng) {
          QueryKind kind{};
          return draw_request(rng, shape, kind);
        };
        const bool one_shot_thread = t == piped;
        const double one_shot_rate = one_shot_thread ? kOneShotRate : 0.0;
        auto rate_of = [&](std::size_t r) {
          return one_shot_thread ? 0.0 : kLadder[r] / static_cast<double>(piped);
        };
        for (int cycle = 0; cycle < kCycles; ++cycle) {
          // Fresh connections each cycle, so each cycle gets its own server
          // threads and the run averages over where they land. The echo's
          // close before the daemon's open, so at most nproc are open.
          {
            OpenLoopConnection echo_connection(
                echo.socket_path(), args.seed * 1000033 + cycle * 101 + t);
            sync.arrive_and_wait();
            echo_by_cycle[cycle][t] =
                echo_connection.run(echo_seconds, rate_of(kNominal),
                                    one_shot_rate, source, 1u << 30);
          }
          OpenLoopConnection connection(socket_path,
                                        args.seed * 1000003 + cycle * 101 + t);
          for (std::size_t r = 0; r < rungs; ++r) {
            sync.arrive_and_wait();
            PhaseStats rung = connection.run(rung_seconds[r], rate_of(r),
                                             one_shot_rate, source, 61);
            if (r == kNominal) nominal_by_cycle[cycle][t] = rung;
            stats[r][t].merge(rung);
          }
        }
      } catch (...) {
        errors[t] = std::current_exception();
        // Leave the barrier so the other threads can finish their rungs.
        sync.arrive_and_drop();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  const double peak_rss = proc_status_field(pid, "VmHWM");
  const double vm_after = proc_status_field(pid, "VmSize");
  const double daemon_threads = proc_status_field(pid, "Threads");

  PhaseStats all;
  std::vector<PhaseStats> per_rung(rungs);
  double max_qps = 0.0;
  for (std::size_t r = 0; r < rungs; ++r) {
    for (const PhaseStats& s : stats[r]) per_rung[r].merge(s);
    const PhaseStats& s = per_rung[r];
    const double p99 = percentile(s.latency_us, 0.99);
    // No growing backlog: what one connection has in flight when its
    // arrivals stop fits in the latency limit's worth of its arrivals.
    const bool kept_up =
        static_cast<double>(s.backlog_at_end) <=
        std::max(32.0, kLadder[r] / static_cast<double>(piped) * kP99LimitUs *
                           1e-6);
    if (s.failed == 0 && p99 <= kP99LimitUs && kept_up) max_qps = kLadder[r];
    outcome.notes.push_back(
        "rung " + std::to_string(static_cast<int>(kLadder[r])) +
        " req/s: p50 " + std::to_string(percentile(s.latency_us, 0.5)) +
        " us, p99 " + std::to_string(p99) + " us, backlog at end " +
        std::to_string(s.backlog_at_end) + ", sent " + std::to_string(s.sent));
    all.merge(s);
  }

  // The oracle check over the sampled answers.
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < all.samples.size(); ++i) {
    std::vector<std::uint8_t> served = all.samples[i].second;
    if (args.inject_fault && i == 0) served.back() ^= 1;
    if (oracle.answer(all.samples[i].first) != served) ++mismatches;
  }
  if (all.samples.empty()) outcome.fail("serve_read: no answer was sampled");
  if (mismatches > 0) {
    outcome.fail("serve_read: " + std::to_string(mismatches) + " of " +
                 std::to_string(all.samples.size()) +
                 " sampled answers differ from the in-memory oracle");
  }
  outcome.attempted = all.sent;
  outcome.failed = all.failed + mismatches;
  outcome.requests_sent = all.sent;
  outcome.requests_ok = all.ok;
  outcome.requests_failed = all.failed;

  // op_rel: the median over cycles of each cycle's nominal p50 over its
  // echo p50, so a host hiccup within a few cycles does not move it.
  PhaseStats echoed;
  std::vector<double> relative;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    PhaseStats nominal_cycle, echo_cycle;
    for (std::size_t t = 0; t < threads; ++t) {
      nominal_cycle.merge(nominal_by_cycle[cycle][t]);
      echo_cycle.merge(echo_by_cycle[cycle][t]);
    }
    relative.push_back(percentile(nominal_cycle.latency_us, 0.5) /
                       percentile(echo_cycle.latency_us, 0.5));
    echoed.merge(echo_cycle);
  }
  outcome.attempted += echoed.sent;
  outcome.failed += echoed.failed;
  const PhaseStats& nominal = per_rung[kNominal];
  const double p50 = percentile(nominal.latency_us, 0.5);
  const double echo_p50 = percentile(echoed.latency_us, 0.5);
  outcome.end_to_end = {{"setup_s", median(setup), "s"},
                        {"peak_rss_mb", peak_rss, "MiB"},
                        {"op_rel", median(relative), "ratio"}};
  outcome.catalog = {
      {"query_p50_us", p50, "us"},
      {"echo_p50_us", echo_p50, "us"},
      {"query_p99_us", percentile(nominal.latency_us, 0.99), "us"},
      {"query_max_qps", max_qps, "req/s"},
      {"nominal_rate", kLadder[kNominal], "req/s"},
      {"nominal_samples", static_cast<double>(nominal.latency_us.size()),
       "count"},
      {"oracle_samples", static_cast<double>(all.samples.size()), "count"},
      {"one_shot_connections", static_cast<double>(all.one_shots), "count"},
  };
  if (tracer.enabled()) {
    kcc::snapshot::SnapshotView view(snap_path);
    double mean_eval_ns = 0.0;
    for (int kind = 0; kind < kNumQueryKinds; ++kind) {
      const auto k = static_cast<QueryKind>(kind);
      double ns = 0.0;
      {
        SpanScope s(tracer, std::string("serve.eval.") + query_kind_name(k), 0);
        ns = eval_ns(view, shape, k, args.seed + kind);
      }
      mean_eval_ns += kMixPercent[kind] * 0.01 * ns;
      outcome.per_layer.push_back(
          {std::string("serve.eval_ns.") + query_kind_name(k), ns, "ns"});
    }
    const double vm_growth =
        all.one_shots == 0
            ? 0.0
            : (vm_after - vm_before) * 1000.0 /
                  static_cast<double>(all.one_shots);
    const std::vector<Metric> more = {
        {"serve.transport_us",
         percentile(per_rung[0].latency_us, 0.5) - mean_eval_ns * 1e-3, "us"},
        {"serve.connect_us", median(all.connect_us), "us"},
        {"serve.threads", daemon_threads, "count"},
        {"serve.vm_growth_mb", vm_growth, "MiB/1k-conn"},
        {"serve.gen_lag_us", percentile(nominal.lag_us, 0.99), "us"},
        {"serve.backlog_max", static_cast<double>(nominal.backlog_max),
         "count"},
        {"io.snapshot_bytes", static_cast<double>(view.file_bytes()), "bytes"},
    };
    outcome.per_layer.insert(outcome.per_layer.end(), more.begin(), more.end());
  }
  daemon.reset();
  std::filesystem::remove(snap_path);
  return outcome;
}

}  // namespace perfbench

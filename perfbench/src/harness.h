// Shared machinery of the benchmark runner: run arguments, the span
// recorder used by traced runs, order statistics, RSS probes, the `kcc
// serve` child process and the result record every workload fills.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public functions; nothing inside the library is touched.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small graphs and short phases, for the smoke test only.
  bool smoke = false;
  /// Corrupts one checked answer per run; the run must then report it as
  /// failed (the checkers' self-test).
  bool inject_fault = false;
  std::string kcc_binary;  // the `kcc` executable serving the snapshot
  std::string work_dir;    // scratch files, socket, span dumps
};

double now_seconds();

// -- order statistics -------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
/// How many samples a percentile needs so that at least ten lie beyond it.
std::size_t samples_for_percentile(double p);

// -- memory -----------------------------------------------------------------

/// One "Field:   value kB" line of /proc/<pid>/status, in MiB (or the raw
/// number for unitless fields such as Threads). pid 0 = this process.
double proc_status_field(pid_t pid, const std::string& field);
/// Resets the peak-RSS high-water mark of `pid` (0 = self), so VmHWM
/// afterwards covers only what follows. For this process it first returns
/// freed heap to the kernel (malloc_trim), so the mark starts from the live
/// set rather than from memory that set-up freed but glibc kept. Returns
/// false when the kernel refuses; VmHWM then covers the process lifetime.
bool reset_peak_rss(pid_t pid);

// -- tracing ----------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;     // index into the span list, -1 at the top
  std::uint64_t op = 0;  // operation id shared by one operation's spans
};

/// In-memory span list. begin()/end() are no-ops while disabled, so the
/// untraced runs pay one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int begin(const std::string& name, std::uint64_t op);
  void end(int index);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span: its duration minus what its children cover.
  std::vector<double> self_seconds() const;
  /// Chrome trace_event JSON of every recorded span.
  std::string to_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name, std::uint64_t op)
      : tracer_(tracer), index_(tracer.begin(name, op)) {}
  ~SpanScope() { tracer_.end(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Median over operations of the summed self time of spans named `name`
/// (ms). Operations without such a span are skipped.
double median_self_ms(const Tracer& tracer, const std::string& name);
/// Median over operations of the summed duration of spans named `name`.
double median_span_ms(const Tracer& tracer, const std::string& name);

// -- the serve daemon -------------------------------------------------------

/// Restricts the calling thread (and what it later starts) to one half of
/// the CPUs this process may use: the upper half for servers, the lower
/// half for load generators. serve_read uses it so that every request
/// crosses between the same CPUs, whichever server answers it. No-op with
/// fewer than two CPUs.
void pin_to_half(bool server_half);

/// `kcc serve` as a child process. The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it; the child also dies with the
/// runner (PR_SET_PDEATHSIG), so no daemon outlives a crashed run. With
/// `server_half`, the daemon runs on pin_to_half's server CPUs.
class Daemon {
 public:
  Daemon(const std::string& kcc_binary, const std::string& snapshot_path,
         const std::string& socket_path, const std::string& log_path,
         bool server_half = false);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

// -- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Requests sent to / answered by the daemon (serving workloads).
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;
  /// End-to-end metrics under their BENCHMARK.json names.
  std::vector<Metric> end_to_end;
  /// The workload's own end-to-end figures under the catalog names of
  /// README.md (batch_s, update_to_query_ms, query_p99_us, ...).
  std::vector<Metric> catalog;
  /// Per-layer metrics (traced runs).
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  /// Marks the run incorrect and records why.
  void fail(const std::string& why);
};

/// The per-layer metric names, in BENCHMARK.json order, with units. A
/// workload reports each; layers it does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

Outcome run_batch_full(const Args& args, Tracer& tracer);
Outcome run_churn_update(const Args& args, Tracer& tracer);
Outcome run_serve_read(const Args& args, Tracer& tracer);

/// Maximal cliques of size >= 2, as Engine::run's generic path enumerates
/// them, on a pool of `threads` workers.
std::vector<kcc::NodeSet> enumerate_cliques(const kcc::Graph& g,
                                            std::size_t threads);

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Worker threads for the library calls: nproc, at most 4.
std::size_t bench_threads();

}  // namespace perfbench

#include "harness.h"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "serve/client.h"

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::size_t samples_for_percentile(double p) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - p)));
}

double proc_status_field(pid_t pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) != 0) continue;
    std::istringstream fields(line.substr(field.size() + 1));
    double value = 0.0;
    std::string unit;
    fields >> value >> unit;
    return unit == "kB" ? value / 1024.0 : value;
  }
  return 0.0;
}

bool reset_peak_rss(pid_t pid) {
  if (pid == 0) malloc_trim(0);
  const std::string path = pid == 0 ? "/proc/self/clear_refs"
                                    : "/proc/" + std::to_string(pid) +
                                          "/clear_refs";
  std::ofstream out(path);
  out << "5";
  out.flush();
  return out.good();
}

// -- Tracer -----------------------------------------------------------------

int Tracer::begin(const std::string& name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = now_seconds();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_seconds();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
    }
  }
  return self;
}

std::string Tracer::to_json() const {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << "{\"traceEvents\":[";
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << (s.start - origin) * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
        << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}";
  return out.str();
}

namespace {

/// Per-operation sums of `value(span)` over spans named `name`.
template <typename Value>
std::vector<double> per_op_ms(const Tracer& tracer, const std::string& name,
                              Value value) {
  std::map<std::uint64_t, double> by_op;
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) by_op[spans[i].op] += value(i) * 1e3;
  }
  std::vector<double> out;
  for (const auto& entry : by_op) out.push_back(entry.second);
  return out;
}

}  // namespace

double median_self_ms(const Tracer& tracer, const std::string& name) {
  const std::vector<double> self = tracer.self_seconds();
  return median(per_op_ms(tracer, name, [&](std::size_t i) { return self[i]; }));
}

double median_span_ms(const Tracer& tracer, const std::string& name) {
  const auto& spans = tracer.spans();
  return median(per_op_ms(tracer, name, [&](std::size_t i) {
    return spans[i].end - spans[i].start;
  }));
}

// -- Daemon -----------------------------------------------------------------

void pin_to_half(bool server_half) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  const std::size_t half = cpus.size() / 2;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = server_half ? half : 0;
       i < (server_half ? cpus.size() : half); ++i) {
    CPU_SET(cpus[i], &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

Daemon::Daemon(const std::string& kcc_binary, const std::string& snapshot_path,
               const std::string& socket_path, const std::string& log_path,
               bool server_half) {
  std::vector<std::string> argv_strings = {
      kcc_binary, "serve", "--snapshot=" + snapshot_path,
      "--socket=" + socket_path};
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  kcc::require(pid_ >= 0, "perfbench: fork failed");
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(127);
    if (server_half) pin_to_half(true);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      close(log);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  // Ready once it answers: Client retries while the socket is not bound.
  try {
    kcc::serve::Client probe(socket_path, 30.0);
    probe.info();
  } catch (...) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
    throw;
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  for (int i = 0; i < 500; ++i) {
    if (waitpid(pid_, nullptr, WNOHANG) == pid_) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
}

// -- results ----------------------------------------------------------------

void Outcome::fail(const std::string& why) {
  correct = false;
  notes.push_back(why);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"io.load_ms", "ms"},
      {"clique.enumerate_ms", "ms"},
      {"clique.enumerate_ms_1t", "ms"},
      {"clique.cliques", "count"},
      {"cpm.run_ms", "ms"},
      {"cpm.join_ms", "ms"},
      {"cpm.join_ms_1t", "ms"},
      {"cpm.pairs", "count"},
      {"cpm.tail_ms", "ms"},
      {"cpm.merge_ratio", "ratio"},
      {"cpm.incr_apply_ms", "ms"},
      {"cpm.incr_materialize_ms", "ms"},
      {"cpm.incr_cliques", "count"},
      {"io.snapshot_write_ms", "ms"},
      {"io.snapshot_bytes", "bytes"},
      {"io.snapshot_open_ms", "ms"},
      {"serve.reload_ms", "ms"},
      {"serve.first_answer_us", "us"},
      {"serve.eval_ns.membership", "ns"},
      {"serve.eval_ns.community", "ns"},
      {"serve.eval_ns.ancestry", "ns"},
      {"serve.eval_ns.lca", "ns"},
      {"serve.eval_ns.overlap", "ns"},
      {"serve.transport_us", "us"},
      {"serve.connect_us", "us"},
      {"serve.threads", "count"},
      {"serve.vm_growth_mb", "MiB/1k-conn"},
      {"serve.gen_lag_us", "us"},
      {"serve.backlog_max", "count"},
      {"batch.unaccounted_ms", "ms"},
      {"churn.unaccounted_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return catalog;
}

std::vector<kcc::NodeSet> enumerate_cliques(const kcc::Graph& g,
                                            std::size_t threads) {
  kcc::ThreadPool pool(threads);
  kcc::clique::Options options;
  options.min_size = 2;
  return kcc::clique::Enumerator(g, options).collect(pool);
}

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

}  // namespace perfbench

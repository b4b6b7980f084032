// kcc_perfbench — runs one benchmark workload and prints its metrics.
//
//   kcc_perfbench --workload=batch_full|churn_update|serve_read --seed=N
//       --seconds=S --trace=0|1 --kcc=PATH --work-dir=DIR
//       [--smoke] [--inject-fault]
//
// Prints every metric by name and unit, then a `record` line (host and
// build identity, seed, request counts, every figure), then as the last
// line the result object: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace=0) or the per-layer ones
// (--trace=1). perfbench/run.py builds this binary and calls it.
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/cli.h"
#include "common/error.h"
#include "harness.h"
#include "obs/report.h"

namespace perfbench {
namespace {

/// Shortest text that reads back as the same double.
std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

/// Every per-layer name of the catalog, in order; layers the workload did
/// not exercise read 0.
std::vector<Metric> full_per_layer(const std::vector<Metric>& measured) {
  std::map<std::string, double> by_name;
  for (const Metric& m : measured) by_name[m.name] = m.value;
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_catalog()) {
    const auto it = by_name.find(name);
    out.push_back({name, it == by_name.end() ? 0.0 : it->second, unit});
  }
  return out;
}

int run(int argc, char** argv) {
  kcc::CliArgs cli(argc, argv,
                   {"workload", "seed", "seconds", "trace", "kcc", "work-dir",
                    "smoke", "inject-fault"});
  Args args;
  args.workload = cli.get_string("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  args.seconds = cli.get_double("seconds", 10.0);
  args.trace = cli.get_int("trace", 0) != 0;
  args.kcc_binary = cli.get_string("kcc", "");
  args.work_dir = cli.get_string("work-dir", "");
  args.smoke = cli.get_bool("smoke", false);
  args.inject_fault = cli.get_bool("inject-fault", false);
  kcc::require(!args.kcc_binary.empty() && !args.work_dir.empty(),
               "--kcc and --work-dir are required");
  kcc::require(args.seconds > 0.0, "--seconds must be positive");
  std::filesystem::create_directories(args.work_dir);

  Tracer tracer(args.trace);
  Outcome outcome;
  if (args.workload == "batch_full") {
    outcome = run_batch_full(args, tracer);
  } else if (args.workload == "churn_update") {
    outcome = run_churn_update(args, tracer);
  } else if (args.workload == "serve_read") {
    outcome = run_serve_read(args, tracer);
  } else {
    throw kcc::Error("unknown --workload '" + args.workload +
                     "' (batch_full|churn_update|serve_read)");
  }
  if (outcome.failed > 0) outcome.correct = false;

  const double error_rate =
      outcome.attempted == 0 ? 1.0
                             : static_cast<double>(outcome.failed) /
                                   static_cast<double>(outcome.attempted);
  std::vector<Metric> catalog = outcome.end_to_end;
  catalog.insert(catalog.end(), outcome.catalog.begin(), outcome.catalog.end());
  catalog.push_back({"error_rate", error_rate, "ratio"});
  const std::vector<Metric> per_layer =
      args.trace ? full_per_layer(outcome.per_layer) : std::vector<Metric>{};

  std::printf("perfbench %s seed %llu trace %d: %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              outcome.correct ? "correct" : "INCORRECT");
  for (const std::string& note : outcome.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  for (const Metric& m : catalog) {
    std::printf("  %-28s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : per_layer) {
    std::printf("  %-28s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }

  // The record: host and build identity, seed, request counts, figures.
  std::ostringstream manifest;
  kcc::obs::write_manifest_json(manifest,
                                kcc::obs::collect_manifest("kcc_perfbench"));
  std::ostringstream record;
  record << "{\"workload\": " << quoted(args.workload)
         << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
         << ", \"seconds\": " << number(args.seconds)
         << ", \"manifest\": " << manifest.str()
         << ", \"requests\": {\"sent\": " << outcome.requests_sent
         << ", \"succeeded\": " << outcome.requests_ok
         << ", \"failed\": " << outcome.requests_failed << "}"
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed
         << ", \"metrics\": " << metrics_json(catalog)
         << ", \"per_layer\": " << metrics_json(per_layer) << "}";
  std::printf("record %s\n", record.str().c_str());

  if (args.trace) {
    const std::string path = args.work_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream out(path);
    out << tracer.to_json() << "\n";
    std::printf("spans %s (%zu spans)\n", path.c_str(), tracer.spans().size());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics_json(args.trace ? per_layer : outcome.end_to_end).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "kcc_perfbench: %s\n", e.what());
    return 1;
  }
}

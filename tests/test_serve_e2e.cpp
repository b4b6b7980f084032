// End-to-end serve smoke: spawn the real `kcc serve` binary on a snapshot,
// drive a scripted query mix through serve::Client, check every answer
// against the in-memory oracle, shut the daemon down remotely and require a
// clean exit code. The kcc binary path arrives via the KCC_BIN environment
// variable (tests/CMakeLists.txt sets it to $<TARGET_FILE:kcc>).

#include <gtest/gtest.h>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cpm/engine.h"
#include "io/snapshot.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "test_helpers.h"

extern char** environ;

namespace kcc {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("kcc_e2e_" + name))
      .string();
}

pid_t spawn_kcc(const std::vector<std::string>& args) {
  const char* bin = std::getenv("KCC_BIN");
  if (bin == nullptr) return -1;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, bin, nullptr, nullptr, argv.data(), environ);
  return rc == 0 ? pid : -1;
}

TEST(ServeE2E, DaemonAnswersMixAndShutsDownCleanly) {
  if (std::getenv("KCC_BIN") == nullptr) {
    GTEST_SKIP() << "KCC_BIN not set (run through ctest)";
  }

  // Build the oracle result and its snapshot in-process; the daemon serves
  // the very same bytes.
  const Graph g = testing::preferential_attachment_graph(70, 4, 13);
  const cpm::Result result = cpm::Engine(cpm::Options{}).run(g);
  const std::string snap = temp_path("mix.snap");
  const std::string sock = temp_path("mix.sock");
  snapshot::write_snapshot_file(snap, result);

  const pid_t pid =
      spawn_kcc({"serve", "--snapshot=" + snap, "--socket=" + sock});
  ASSERT_GT(pid, 0) << "failed to spawn kcc serve";

  {
    serve::Client client(sock, /*timeout_seconds=*/20.0);

    const serve::ServerInfo info = client.info();
    EXPECT_EQ(info.min_k, result.cpm.min_k);
    EXPECT_EQ(info.max_k, result.cpm.max_k);
    EXPECT_EQ(info.num_communities, result.cpm.total_communities());
    EXPECT_EQ(info.engine, result.engine_name);

    // Scripted mix vs the in-memory result: memberships for every node,
    // full node lists + ancestry for every community, a few overlaps.
    for (std::uint32_t node = 0; node < g.num_nodes(); ++node) {
      std::vector<serve::Membership> expected;
      for (std::size_t k = result.cpm.min_k; k <= result.cpm.max_k; ++k) {
        for (const Community& c : result.cpm.at(k).communities) {
          if (std::binary_search(c.nodes.begin(), c.nodes.end(), node)) {
            expected.push_back({static_cast<std::uint32_t>(k), c.id});
          }
        }
      }
      EXPECT_EQ(client.membership(node), expected) << "node " << node;
    }
    for (std::size_t k = result.cpm.min_k; k <= result.cpm.max_k; ++k) {
      for (const Community& c : result.cpm.at(k).communities) {
        EXPECT_EQ(client.community(k, c.id), c.nodes) << "k=" << k;
        const auto chain = client.ancestry(k, c.id);
        ASSERT_EQ(chain.size(), k - result.cpm.min_k + 1) << "k=" << k;
        EXPECT_EQ(chain.front(),
                  (serve::AncestryEntry{
                      static_cast<std::uint32_t>(k), c.id,
                      static_cast<std::uint32_t>(c.nodes.size())}));
      }
    }
    for (std::uint32_t u = 0; u < 10; ++u) {
      const auto o = client.overlap(u, u + 1);
      if (o.max_k > 0) {
        const auto nodes = client.community(o.max_k, o.community);
        EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(), u));
        EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(), u + 1));
      }
    }

    EXPECT_EQ(client.request_shutdown(), serve::Status::kOk);
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "daemon did not exit normally";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "daemon exit code";
  EXPECT_FALSE(std::filesystem::exists(sock)) << "socket not unlinked";
  std::remove(snap.c_str());
}

// One numeric field ("Threads", "VmSize", ...) of /proc/<pid>/status; -1
// when the file or the field is missing.
long proc_status_field(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

TEST(ServeE2E, SequentialConnectionsKeepThreadsAndVmBounded) {
  if (std::getenv("KCC_BIN") == nullptr) {
    GTEST_SKIP() << "KCC_BIN not set (run through ctest)";
  }
  const Graph g = testing::preferential_attachment_graph(40, 3, 5);
  const std::string snap = temp_path("churn.snap");
  const std::string sock = temp_path("churn.sock");
  const cpm::Result result = cpm::Engine().run(g);
  snapshot::write_snapshot_file(snap, result);

  const pid_t pid =
      spawn_kcc({"serve", "--snapshot=" + snap, "--socket=" + sock});
  ASSERT_GT(pid, 0) << "failed to spawn kcc serve";
  if (proc_status_field(pid, "VmSize") < 0) {
    ::kill(pid, SIGTERM);
    ::waitpid(pid, nullptr, 0);
    GTEST_SKIP() << "no /proc/<pid>/status on this platform";
  }

  auto query_info = [&] {
    serve::Client client(sock, /*timeout_seconds=*/20.0);
    return client.info().num_communities;
  };
  // Waits up to `polls` x 250 us until the daemon runs at most `limit`
  // threads; false on timeout.
  auto settle = [&](long limit, int polls) {
    for (int i = 0; i < polls; ++i) {
      if (proc_status_field(pid, "Threads") <= limit) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
    return false;
  };
  // Idle thread count: main + accept loop (+ a sanitizer runtime thread),
  // read once the warm-up connection's thread has exited.
  ASSERT_EQ(query_info(), result.cpm.total_communities());
  long idle = proc_status_field(pid, "Threads");
  while (idle > 1 && settle(idle - 1, 800)) --idle;

  // Each connection starts only after the previous connection's thread
  // has exited. Otherwise a client that reconnects before its old thread
  // has seen EOF overlaps two threads, and the overlap costs a one-time
  // step of address space (a stack and a malloc arena) that is not
  // per-connection growth. The leak this guards against kept the stack of
  // every finished thread mapped (8 MiB per connection) until shutdown.
  const long vm_before_kib = proc_status_field(pid, "VmSize");
  constexpr int kConnections = 1000;
  for (int i = 0; i < kConnections; ++i) {
    ASSERT_EQ(query_info(), result.cpm.total_communities());
    ASSERT_TRUE(settle(idle, 20000)) << "connection " << i << " never ended";
  }
  const long threads = proc_status_field(pid, "Threads");
  const long vm_growth_kib = proc_status_field(pid, "VmSize") - vm_before_kib;
  EXPECT_LE(threads, 4) << "connection threads are not reaped";
  EXPECT_LT(vm_growth_kib, 64 * 1024)
      << "VmSize grew " << vm_growth_kib / 1024 << " MiB over "
      << kConnections << " connections";

  EXPECT_EQ(serve::Client(sock, 20.0).request_shutdown(), serve::Status::kOk);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::remove(snap.c_str());
}

TEST(ServeE2E, ServeRefusesMissingAndCorruptSnapshots) {
  if (std::getenv("KCC_BIN") == nullptr) {
    GTEST_SKIP() << "KCC_BIN not set (run through ctest)";
  }
  const std::string sock = temp_path("bad.sock");

  // Missing snapshot: the daemon must exit non-zero, quickly.
  pid_t pid = spawn_kcc({"serve", "--snapshot=" + temp_path("nope.snap"),
                         "--socket=" + sock});
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);

  // Corrupt snapshot (truncated header): same contract.
  const std::string corrupt = temp_path("corrupt.snap");
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << "KCCSNAP1 but far too short";
  }
  pid = spawn_kcc({"serve", "--snapshot=" + corrupt, "--socket=" + sock});
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);
  std::remove(corrupt.c_str());
}

}  // namespace
}  // namespace kcc

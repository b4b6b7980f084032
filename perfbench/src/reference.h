// The yardstick the operation times are divided by.
//
// The host this benchmark runs on is shared: how fast a memory-bound
// operation runs moves by ±20% over seconds to minutes with what the other
// tenants do to the memory system, and a run median cannot average that
// out. So each workload times a fixed reference task right beside each
// operation, under the same conditions, and reports the operation's time
// as a multiple of the reference's (`op_rel`). A slow host slows both; a
// faster library speeds up only the operation.
//
// The references are the benchmark's own code and must never change (a
// change would move every `op_rel`): they call nothing in the library.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

/// Clique percolation done plainly over a fixed clique table: the node ->
/// clique index, the pairwise overlap join, the pairs sorted by overlap
/// descending, and union-find over them. The same kind of memory traffic as
/// the library's batch and churn paths, on the same cliques.
class ReferencePercolation {
 public:
  /// `cliques` in any order; they are put in canonical order, so the
  /// reference does not depend on how the library enumerated them.
  ReferencePercolation(std::vector<kcc::NodeSet> cliques, std::size_t num_nodes);

  /// Runs the reference once and returns its time in seconds. Throws if its
  /// checksum differs from the first run's.
  double time_once();

 private:
  std::uint64_t run() const;

  std::vector<kcc::NodeSet> cliques_;
  std::size_t num_nodes_;
  std::uint64_t checksum_ = 0;
};

/// A bare echo service on a unix socket: one thread per connection, each
/// reading request frames and answering each with an empty kOk response,
/// with no query evaluated. Latency to it is the transport's floor, taken
/// under the same open-loop load as the real queries. Its threads run on
/// the server half of the CPUs (pin_to_half), as the serve_read daemon does.
class ReferenceEcho {
 public:
  explicit ReferenceEcho(std::string socket_path);
  ~ReferenceEcho();
  ReferenceEcho(const ReferenceEcho&) = delete;
  ReferenceEcho& operator=(const ReferenceEcho&) = delete;

  const std::string& socket_path() const { return socket_path_; }

 private:
  struct State;
  std::string socket_path_;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench

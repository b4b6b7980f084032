// Streaming maximal-clique enumeration.
//
// parallel_maximal_cliques materializes every maximal clique before the
// caller sees the first one — fine when the caller wants the whole table,
// wasteful when it consumes cliques incrementally (the sweep CPM engine,
// cpm/sweep_cpm.h). This channel enumerates the degeneracy-ordered vertex
// subproblems window by window: while the consumer drains window w on the
// calling thread, the pool already enumerates window w+1 into the other
// buffer. At most two windows of per-position slots are resident, so the
// transient enumeration state is bounded by the window size instead of the
// full clique count, and the hand-off is deadlock-free by construction (the
// consumer never blocks on a task it has not yet scheduled).
//
// Determinism: cliques arrive in exactly the order parallel_maximal_cliques
// returns them — per-position slots drained in degeneracy-position order —
// regardless of thread count or window size, so consumers that assign ids
// by arrival order reproduce the batch enumerator's ids bit for bit.
#pragma once

#include <cstddef>
#include <functional>

#include "common/thread_pool.h"
#include "common/types.h"
#include "graph/graph.h"

namespace kcc {

struct CliqueStreamOptions {
  /// Cliques smaller than this are not reported (>= 1).
  std::size_t min_size = 1;

  /// Degeneracy positions per enumeration window; 0 picks a default sized
  /// to keep every pool worker busy while bounding resident slots.
  std::size_t window_positions = 0;
};

/// Called once per maximal clique, in deterministic arrival order. The
/// clique is sorted ascending; the visitor may take ownership by moving.
using StreamCliqueVisitor = std::function<void(NodeSet&&)>;

/// Called after each enumeration window has been fully drained (the
/// streaming CPM engine samples its memory gauges here). Optional.
using StreamWindowVisitor = std::function<void(std::size_t windows_done)>;

/// Enumerates all maximal cliques of `g` with size >= options.min_size,
/// invoking `visit` from the calling thread while `pool` enumerates ahead.
/// Returns the number of windows processed.
std::size_t stream_maximal_cliques(const Graph& g, ThreadPool& pool,
                                   const CliqueStreamOptions& options,
                                   const StreamCliqueVisitor& visit,
                                   const StreamWindowVisitor& window_done = {});

}  // namespace kcc

// Windowed streaming enumeration — the driver behind
// clique::Enumerator::stream.
//
// Enumerator::collect materializes every maximal clique before the caller
// sees the first one — fine when the caller wants the whole table,
// wasteful when it consumes cliques incrementally (the sweep CPM engine,
// cpm/sweep_cpm.h). This driver enumerates the degeneracy-ordered vertex
// subproblems window by window: while the consumer drains window w on the
// calling thread, the pool already enumerates window w+1 into the other
// buffer. At most two windows of per-position slots are resident, so the
// transient enumeration state is bounded by the window size instead of the
// full clique count, and the hand-off is deadlock-free by construction (the
// consumer never blocks on a task it has not yet scheduled).
//
// Determinism: cliques arrive in exactly the order Enumerator::collect
// returns them — per-position slots drained in degeneracy-position order —
// regardless of thread count or window size, so consumers that assign ids
// by arrival order reproduce the batch enumerator's ids bit for bit.
#include <algorithm>
#include <atomic>
#include <vector>

#include "clique/bron_kerbosch_internal.h"
#include "clique/enumerator.h"
#include "common/error.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace kcc::clique::detail {
namespace {

// One window's enumeration state: a contiguous range of degeneracy
// positions, their per-position clique batches, and the self-scheduling
// cursor its jobs claim ranges from. Jobs never share slots, so the window
// needs no locking beyond the cursor and its drain order is
// scheduling-independent. Scratch buffers are per job *and* per window —
// the two in-flight windows may enumerate concurrently (window w's last
// jobs still running while window w+1's begin), so they must not share.
struct StreamWindow {
  std::size_t first = 0;  // first degeneracy position
  std::size_t count = 0;  // positions in this window
  std::vector<CliqueBatch> slots;
  std::vector<SubproblemScratch> scratch;
  std::atomic<std::size_t> cursor{0};
};

void launch_window(const EnumContext& ctx, std::size_t first, std::size_t last,
                   StreamWindow& window, TaskGroup& group) {
  window.first = first;
  window.count = last - first;
  window.slots.assign(window.count, {});
  window.cursor.store(0, std::memory_order_relaxed);
  // Small grain: within a window, subproblem costs vary by orders of
  // magnitude, and a stalled window delays the whole drain pipeline.
  constexpr std::size_t kGrain = 4;
  const std::size_t ranges = (window.count + kGrain - 1) / kGrain;
  const std::size_t num_jobs = std::max<std::size_t>(
      1, std::min(group.pool().thread_count(), ranges));
  if (window.scratch.size() < num_jobs) window.scratch.resize(num_jobs);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    group.run([&ctx, &window, j] {
      SubproblemScratch& scratch = window.scratch[j];
      for (;;) {
        const std::size_t begin =
            window.cursor.fetch_add(kGrain, std::memory_order_relaxed);
        if (begin >= window.count) return;
        const std::size_t end = std::min(window.count, begin + kGrain);
        for (std::size_t off = begin; off < end; ++off) {
          CliqueBatch& slot = window.slots[off];
          auto into_slot = [&slot](std::span<const NodeId> clique) {
            slot.add(clique);
          };
          const CliqueSinkRef sink(into_slot);
          enumerate_vertex_subproblem(ctx, window.first + off, scratch, sink);
        }
      }
    });
  }
}

}  // namespace

std::size_t stream_enumerate(const EnumContext& ctx, ThreadPool& pool,
                             std::size_t window_positions,
                             const CliqueSinkRef& sink,
                             const WindowFn& window_done) {
  require(window_positions >= 1,
          "stream_enumerate: window_positions must be >= 1");
  KCC_SPAN("clique/stream_enumerate");
  const std::size_t n = ctx.g.num_nodes();
  const std::size_t window = window_positions;
  const std::size_t num_windows = n == 0 ? 0 : (n + window - 1) / window;

  StreamWindow buffers[2];
  TaskGroup groups[2] = {TaskGroup(pool), TaskGroup(pool)};
  auto launch = [&](std::size_t w) {
    const std::size_t first = w * window;
    launch_window(ctx, first, std::min(n, first + window), buffers[w % 2],
                  groups[w % 2]);
  };

  if (num_windows > 0) launch(0);
  for (std::size_t w = 0; w < num_windows; ++w) {
    if (w + 1 < num_windows) launch(w + 1);  // enumerate ahead
    groups[w % 2].wait();
    StreamWindow& current = buffers[w % 2];
    for (const CliqueBatch& slot : current.slots) {
      slot.for_each(sink);
    }
    current.slots.clear();
    current.slots.shrink_to_fit();
    if (window_done) window_done(w + 1);
  }
  KCC_LOG(kDebug) << "stream_enumerate: " << n << " subproblems in "
                  << num_windows << " windows of " << window << " on "
                  << pool.thread_count() << " threads";
  return num_windows;
}

}  // namespace kcc::clique::detail

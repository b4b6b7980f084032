// Open-loop load generator for `kcc serve`.
//
// Arrivals are seeded Poisson processes: requests are due on a schedule
// that does not wait for replies, and each latency is measured from when
// the request was due, so a stall is charged to every request queued
// behind it. Most requests go down one long-lived pipelined connection per
// generator thread; a separate, slower arrival stream opens a fresh
// connection per request, like `kcc query` callers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "oracle.h"

namespace perfbench {

/// How long any blocking read of a reply may wait before it counts as a
/// timeout.
inline constexpr double kReplyTimeoutSeconds = 5.0;

/// Makes blocking reads on `fd` fail after `seconds` without data.
void set_reply_timeout(int fd, double seconds);

/// What one phase of one generator thread observed.
struct PhaseStats {
  std::vector<double> latency_us;  // due -> reply, every answered request
  std::vector<double> lag_us;      // due -> sent: how late the generator ran
  std::vector<double> connect_us;  // one-shot connection set-up times
  std::size_t backlog_max = 0;     // most requests in flight at once
  std::size_t backlog_at_end = 0;  // in flight when the arrivals stopped
  // (merge keeps the maximum over connections and phases)
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // non-kOk status, broken connection or timeout
  std::uint64_t one_shots = 0;
  /// (request, response) pairs kept for the oracle check.
  std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>>
      samples;

  void merge(const PhaseStats& other);
};

/// Draws the next request payload.
using RequestSource = std::function<std::vector<std::uint8_t>(kcc::Rng&)>;

class OpenLoopConnection {
 public:
  OpenLoopConnection(std::string socket_path, std::uint64_t seed);
  ~OpenLoopConnection();
  OpenLoopConnection(const OpenLoopConnection&) = delete;
  OpenLoopConnection& operator=(const OpenLoopConnection&) = delete;

  /// Sends Poisson arrivals at `rate` req/s on the long-lived connection
  /// and `one_shot_rate` req/s on fresh connections for `seconds`, then
  /// waits up to `drain_seconds` for the outstanding replies (the rest
  /// count as failed). Keeps about one answer in `sample_every` for the
  /// oracle.
  PhaseStats run(double seconds, double rate, double one_shot_rate,
                 const RequestSource& source, std::uint32_t sample_every,
                 double drain_seconds = kReplyTimeoutSeconds);

 private:
  std::string socket_path_;
  kcc::Rng rng_;
  int fd_ = -1;
};

}  // namespace perfbench

#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>

#include "common/error.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace perfbench {

void PhaseStats::merge(const PhaseStats& other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
  connect_us.insert(connect_us.end(), other.connect_us.begin(),
                    other.connect_us.end());
  backlog_max = std::max(backlog_max, other.backlog_max);
  backlog_at_end = std::max(backlog_at_end, other.backlog_at_end);
  sent += other.sent;
  ok += other.ok;
  failed += other.failed;
  one_shots += other.one_shots;
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

OpenLoopConnection::OpenLoopConnection(std::string socket_path,
                                       std::uint64_t seed)
    : socket_path_(std::move(socket_path)), rng_(seed) {
  kcc::serve::Client client(socket_path_);
  fd_ = dup(client.fd());
  kcc::require(fd_ >= 0, "perfbench: dup failed");
}

OpenLoopConnection::~OpenLoopConnection() {
  if (fd_ >= 0) close(fd_);
}

namespace {

double exponential(kcc::Rng& rng, double rate) {
  return rate <= 0.0 ? INFINITY : -std::log(1.0 - rng.next_double()) / rate;
}

}  // namespace

void set_reply_timeout(int fd, double seconds) {
  timeval tv{static_cast<time_t>(seconds),
             static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6)};
  kcc::require(setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0,
               "perfbench: cannot set a reply timeout");
}

namespace {

bool status_ok(const std::vector<std::uint8_t>& payload) {
  return !payload.empty() &&
         payload[0] == static_cast<std::uint8_t>(kcc::serve::Status::kOk);
}

}  // namespace

PhaseStats OpenLoopConnection::run(double seconds, double rate,
                                   double one_shot_rate,
                                   const RequestSource& source,
                                   std::uint32_t sample_every,
                                   double drain_seconds) {
  // Sleep to the due time without the default 50 us timer slack, which
  // would otherwise show up as generator lag in every latency.
  prctl(PR_SET_TIMERSLACK, 1UL);
  PhaseStats stats;
  struct Pending {
    double due;
    std::vector<std::uint8_t> request;  // kept only for sampled requests
    bool sampled;
  };
  std::deque<Pending> in_flight;
  std::vector<std::uint8_t> out, in;
  const double start = now_seconds();
  const double stop = start + seconds;
  double next_piped = start + exponential(rng_, rate);
  double next_one_shot = start + exponential(rng_, one_shot_rate);

  auto receive = [&] {
    std::uint8_t buf[65536];
    while (true) {
      const ssize_t n = recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        in.insert(in.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw kcc::Error("perfbench: the daemon closed the connection");
    }
    const double now = now_seconds();
    std::size_t pos = 0;
    while (in.size() - pos >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, in.data() + pos, 4);
      if (in.size() - pos - 4 < len) break;
      kcc::require(!in_flight.empty(), "perfbench: reply without a request");
      Pending& p = in_flight.front();
      std::vector<std::uint8_t> payload(in.begin() + pos + 4,
                                        in.begin() + pos + 4 + len);
      stats.latency_us.push_back((now - p.due) * 1e6);
      if (status_ok(payload)) {
        ++stats.ok;
      } else {
        ++stats.failed;
      }
      if (p.sampled) stats.samples.emplace_back(std::move(p.request), payload);
      in_flight.pop_front();
      pos += 4 + len;
    }
    in.erase(in.begin(), in.begin() + pos);
  };

  auto one_shot = [&](double due) {
    std::vector<std::uint8_t> request = source(rng_);
    const double t0 = now_seconds();
    stats.lag_us.push_back((t0 - due) * 1e6);
    ++stats.sent;
    ++stats.one_shots;
    try {
      kcc::serve::Client client(socket_path_);
      stats.connect_us.push_back((now_seconds() - t0) * 1e6);
      set_reply_timeout(client.fd(), kReplyTimeoutSeconds);
      client.send_request(request);
      const std::vector<std::uint8_t> payload = client.read_response();
      stats.latency_us.push_back((now_seconds() - due) * 1e6);
      if (status_ok(payload)) {
        ++stats.ok;
      } else {
        ++stats.failed;
      }
    } catch (const std::exception&) {
      ++stats.failed;
    }
  };

  std::uint64_t sequence = 0;
  while (true) {
    double now = now_seconds();
    while (std::min(next_piped, next_one_shot) <= now &&
           std::min(next_piped, next_one_shot) < stop) {
      if (next_one_shot < next_piped) {
        one_shot(next_one_shot);
        next_one_shot += exponential(rng_, one_shot_rate);
        continue;
      }
      std::vector<std::uint8_t> request = source(rng_);
      const bool sampled = ++sequence % sample_every == 0;
      kcc::serve::put_u32(out, static_cast<std::uint32_t>(request.size()));
      out.insert(out.end(), request.begin(), request.end());
      stats.lag_us.push_back((now - next_piped) * 1e6);
      in_flight.push_back({next_piped,
                           sampled ? std::move(request)
                                   : std::vector<std::uint8_t>{},
                           sampled});
      ++stats.sent;
      next_piped += exponential(rng_, rate);
    }
    // Never block on a send: a daemon that falls behind stops reading
    // once its replies fill our receive buffer, so a blocking write here
    // would deadlock against it. Unsent bytes wait for POLLOUT.
    while (!out.empty()) {
      const ssize_t n =
          send(fd_, out.data(), out.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out.erase(out.begin(), out.begin() + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw kcc::Error("perfbench: send to the daemon failed");
    }
    stats.backlog_max = std::max(stats.backlog_max, in_flight.size());
    receive();
    now = now_seconds();
    const double next_due = std::min(next_piped, next_one_shot);
    if (next_due >= stop) {
      if (stats.backlog_at_end == 0 && now >= stop) {
        stats.backlog_at_end = in_flight.size();
      }
      if (in_flight.empty()) break;
      if (now > stop + drain_seconds) {
        stats.failed += in_flight.size();  // timed out
        break;
      }
    }
    const double wait =
        std::max(0.0, std::min(next_due < stop ? next_due : stop + 0.001,
                               now + 0.01) -
                          now);
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - std::floor(wait)) * 1e9)};
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
               0};
    ppoll(&pfd, 1, &ts, nullptr);
  }
  return stats;
}

}  // namespace perfbench

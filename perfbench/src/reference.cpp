#include "reference.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "harness.h"

namespace perfbench {

// -- ReferencePercolation ---------------------------------------------------

ReferencePercolation::ReferencePercolation(std::vector<kcc::NodeSet> cliques,
                                           std::size_t num_nodes)
    : cliques_(std::move(cliques)), num_nodes_(num_nodes) {
  for (kcc::NodeSet& c : cliques_) std::sort(c.begin(), c.end());
  std::sort(cliques_.begin(), cliques_.end());
  checksum_ = run();
}

double ReferencePercolation::time_once() {
  const double start = now_seconds();
  const std::uint64_t checksum = run();
  const double seconds = now_seconds() - start;
  if (checksum != checksum_) {
    throw std::runtime_error("perfbench: the reference percolation's checksum "
                             "changed between runs");
  }
  return seconds;
}

std::uint64_t ReferencePercolation::run() const {
  // Node -> cliques containing it, as offsets into one array.
  std::vector<std::uint32_t> start(num_nodes_ + 1, 0);
  for (const kcc::NodeSet& c : cliques_) {
    for (const kcc::NodeId v : c) ++start[v + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::uint32_t> members(start.back());
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (std::uint32_t id = 0; id < cliques_.size(); ++id) {
    for (const kcc::NodeId v : cliques_[id]) members[fill[v]++] = id;
  }

  // Every pair of cliques sharing at least two nodes, with the overlap.
  struct Pair {
    std::uint32_t a, b, overlap;
  };
  std::vector<Pair> pairs;
  std::vector<std::uint32_t> count(cliques_.size(), 0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t a = 0; a < cliques_.size(); ++a) {
    for (const kcc::NodeId v : cliques_[a]) {
      for (std::uint32_t i = start[v]; i < start[v + 1]; ++i) {
        const std::uint32_t b = members[i];
        if (b > a && count[b]++ == 0) touched.push_back(b);
      }
    }
    for (const std::uint32_t b : touched) {
      if (count[b] >= 2) pairs.push_back({a, b, count[b]});
      count[b] = 0;
    }
    touched.clear();
  }

  // Union-find over the pairs, largest overlap first.
  std::stable_sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
    return x.overlap > y.overlap;
  });
  std::vector<std::uint32_t> parent(cliques_.size());
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::uint64_t unions = 0;
  for (const Pair& p : pairs) {
    const std::uint32_t x = find(p.a), y = find(p.b);
    if (x != y) {
      parent[x] = y;
      ++unions;
    }
  }
  return unions * 1000003u + pairs.size();
}

// -- ReferenceEcho ----------------------------------------------------------

namespace {

bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::read(fd, out, n);
    if (got <= 0) return false;
    out += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_exact(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t put = ::write(fd, data, n);
    if (put <= 0) return false;
    data += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

void echo_connection(int fd) {
  // The empty kOk response: [u32 payload bytes = 1][u8 status = 0].
  static constexpr std::uint8_t kOkFrame[5] = {1, 0, 0, 0, 0};
  std::uint8_t header[4];
  std::uint8_t payload[1024];
  while (read_exact(fd, header, 4)) {
    const std::uint32_t n = static_cast<std::uint32_t>(header[0]) |
                            static_cast<std::uint32_t>(header[1]) << 8 |
                            static_cast<std::uint32_t>(header[2]) << 16 |
                            static_cast<std::uint32_t>(header[3]) << 24;
    if (n > sizeof payload || !read_exact(fd, payload, n) ||
        !write_exact(fd, kOkFrame, sizeof kOkFrame)) {
      break;
    }
  }
}

}  // namespace

struct ReferenceEcho::State {
  struct Connection {
    int fd;
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };
  int listen_fd = -1;
  std::atomic<bool> stop{false};
  std::thread acceptor;
  std::vector<Connection> connections;  // the acceptor's alone until stop

  /// Joins and closes the connections whose client has gone.
  void reap() {
    std::erase_if(connections, [](Connection& c) {
      if (!c.done->load()) return false;
      c.thread.join();
      ::close(c.fd);
      return true;
    });
  }
};

ReferenceEcho::ReferenceEcho(std::string socket_path)
    : socket_path_(std::move(socket_path)), state_(std::make_unique<State>()) {
  std::filesystem::remove(socket_path_);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("perfbench: echo socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  state_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (state_->listen_fd < 0 ||
      ::bind(state_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(state_->listen_fd, 64) != 0) {
    if (state_->listen_fd >= 0) ::close(state_->listen_fd);
    throw std::runtime_error("perfbench: cannot listen on " + socket_path_);
  }
  State* state = state_.get();
  state_->acceptor = std::thread([state] {
    pin_to_half(true);  // where the daemon runs; connection threads inherit
    while (!state->stop.load()) {
      pollfd pfd{state->listen_fd, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const int fd = ::accept4(state->listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      state->reap();
      auto done = std::make_unique<std::atomic<bool>>(false);
      std::atomic<bool>* flag = done.get();
      state->connections.push_back({fd, std::thread([fd, flag] {
                                      echo_connection(fd);
                                      flag->store(true);
                                    }),
                                    std::move(done)});
    }
  });
}

ReferenceEcho::~ReferenceEcho() {
  state_->stop.store(true);
  state_->acceptor.join();
  for (auto& c : state_->connections) ::shutdown(c.fd, SHUT_RDWR);
  for (auto& c : state_->connections) c.done->store(true);
  state_->reap();
  ::close(state_->listen_fd);
  std::filesystem::remove(socket_path_);
}

}  // namespace perfbench

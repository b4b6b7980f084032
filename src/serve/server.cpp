#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/query.h"

namespace kcc::serve {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Request latency buckets: 1 us .. ~1 s, exponential.
obs::Histogram& request_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "serve_request_seconds",
      obs::Histogram::exponential_bounds(1e-6, 2.0, 21));
  return h;
}

int make_listen_socket(const std::string& path) {
  require(!path.empty(), "serve: --socket path is empty");
  require(path.size() < sizeof(sockaddr_un{}.sun_path),
          "serve: socket path too long: '" + path + "'");
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0) {
    require(S_ISSOCK(st.st_mode),
            "serve: '" + path + "' exists and is not a socket");
    ::unlink(path.c_str());  // stale socket from a previous daemon
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, std::string("serve: socket() failed: ") +
                       std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw Error("serve: bind('" + path + "') failed: " + what);
  }
  if (::listen(fd, 128) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    throw Error("serve: listen('" + path + "') failed: " + what);
  }
  return fd;
}

}  // namespace

Server::Server(const std::string& snapshot_path, ServerOptions options)
    : view_(std::make_shared<const snapshot::SnapshotView>(snapshot_path)),
      snapshot_path_(snapshot_path),
      options_(std::move(options)) {
  listen_fd_ = make_listen_socket(options_.socket_path);
  KCC_LOG(kInfo) << "serve: snapshot '" << snapshot_path << "' ("
                 << view_->num_communities() << " communities, k "
                 << view_->min_k() << ".." << view_->max_k() << ", engine "
                 << view_->engine_name() << ") on socket '"
                 << options_.socket_path << "'";
}

Server::~Server() {
  shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(options_.socket_path.c_str());
}

void Server::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    require(!started_, "serve: start() called twice");
    started_ = true;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Polling keeps request_shutdown() / request_reload() usable from
    // signal handlers, which must not touch the condition variable.
    while (!stopping() &&
           !shutdown_requested_.load(std::memory_order_acquire)) {
      if (reload_requested_.exchange(false, std::memory_order_acq_rel)) {
        lock.unlock();
        const std::string error = try_reload();
        if (!error.empty()) {
          KCC_LOG(kError) << "serve: reload failed: " << error;
        }
        lock.lock();
        continue;
      }
      shutdown_cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }
  shutdown();
}

std::string Server::try_reload() {
  static obs::Counter& reloads = obs::metrics().counter("serve_reloads_total");
  static obs::Counter& failures =
      obs::metrics().counter("serve_reload_failures_total");
  try {
    auto fresh =
        std::make_shared<const snapshot::SnapshotView>(snapshot_path_);
    {
      std::lock_guard<std::mutex> lock(view_mutex_);
      view_ = fresh;
      // The old mapping is released here unless an in-flight request still
      // pins it via view_ptr(); the last borrower unmaps it.
    }
    reloads.inc();
    KCC_LOG(kInfo) << "serve: reloaded snapshot '" << snapshot_path_ << "' ("
                   << fresh->num_communities() << " communities, k "
                   << fresh->min_k() << ".." << fresh->max_k() << ", engine "
                   << fresh->engine_name() << ")";
    return {};
  } catch (const Error& error) {
    failures.inc();
    return error.what();
  }
}

void Server::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    // Second caller: the first one is tearing down; just make sure wait()
    // wakes and the accept thread is gone before returning.
    shutdown_cv_.notify_all();
    return;
  }
  KCC_LOG(kInfo) << "serve: shutting down";
  // Unblock accept() and every blocking read; threads then exit on their
  // own and are joined below.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, fd] : connections_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<std::uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(threads_);
    finished_.clear();
  }
  for (auto& [id, t] : threads) t.join();
  shutdown_cv_.notify_all();
}

void Server::accept_loop() {
  static obs::Counter& accepted =
      obs::metrics().counter("serve_connections_total");
  while (!stopping()) {
    // Poll with a timeout instead of blocking in accept(): waking a blocked
    // accept() on an AF_UNIX listener is platform-murky, while a 100 ms
    // stopping_ check is a bounded, portable shutdown latency.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) {
      KCC_LOG(kError) << "serve: poll failed: " << std::strerror(errno);
      break;
    }
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping()) break;
      KCC_LOG(kError) << "serve: accept failed: " << std::strerror(errno);
      break;
    }
    if (stopping()) {
      ::close(fd);
      break;
    }
    accepted.inc();
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::uint64_t finished : finished_) {
        done.push_back(std::move(threads_.at(finished)));
        threads_.erase(finished);
      }
      finished_.clear();
    }
    // Recording its id was each thread's last act, so these joins return
    // at once.
    for (std::thread& t : done) t.join();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = next_connection_id_++;
    connections_[id] = fd;
    threads_.emplace(id, [this, fd, id] { connection_loop(fd, id); });
  }
}

void Server::connection_loop(int fd, std::uint64_t id) {
  static obs::Counter& requests =
      obs::metrics().counter("serve_requests_total");
  static obs::Counter& errors = obs::metrics().counter("serve_errors_total");
  static obs::Counter& bytes_in =
      obs::metrics().counter("serve_bytes_in_total");
  static obs::Counter& bytes_out =
      obs::metrics().counter("serve_bytes_out_total");
  static obs::Gauge& active =
      obs::metrics().gauge("serve_active_connections");
  active.add(1);

  bool want_shutdown = false;
  std::vector<std::uint8_t> request, response;
  try {
    while (!stopping()) {
      if (!read_frame(fd, request, kMaxRequestBytes)) break;  // client done
      const double start = now_seconds();
      KCC_SPAN("serve.request");
      requests.inc();
      bytes_in.inc(4 + request.size());
      // Pin the view per request: a concurrent reload swaps the shared
      // pointer, not the mapping this request is reading.
      const std::shared_ptr<const snapshot::SnapshotView> view = view_ptr();
      const QueryAction action =
          evaluate(*view, request.data(), request.size(), response,
                   options_.allow_remote_shutdown,
                   options_.allow_remote_reload);
      if (action == QueryAction::kReload) {
        const std::string reload_error = try_reload();
        if (!reload_error.empty()) {
          response.clear();
          put_u8(response, static_cast<std::uint8_t>(Status::kBadRequest));
          const std::string message = "reload failed: " + reload_error;
          response.insert(response.end(), message.begin(), message.end());
        }
      }
      if (!response.empty() &&
          response[0] != static_cast<std::uint8_t>(Status::kOk)) {
        errors.inc();
      }
      write_frame(fd, response);
      bytes_out.inc(4 + response.size());
      request_seconds().observe(now_seconds() - start);
      if (action == QueryAction::kShutdown) {
        want_shutdown = true;
        break;
      }
    }
  } catch (const Error& error) {
    // Oversized/garbled frame or the peer vanished mid-frame: log, count,
    // drop the connection. The server itself stays up.
    errors.inc();
    KCC_LOG(kWarn) << "serve: connection " << id << ": " << error.what();
  }

  active.add(-1);
  if (want_shutdown) {
    // A connection thread cannot join itself, so it only flags the waiter
    // (Server::wait) to perform the actual teardown.
    request_shutdown();
    shutdown_cv_.notify_all();
  }
  // Last act: from here on accept_loop may join this thread.
  std::lock_guard<std::mutex> lock(mutex_);
  connections_.erase(id);
  ::close(fd);
  finished_.push_back(id);
}

}  // namespace kcc::serve

#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "exec/cluster_protocol.hpp"
#include "obs/obs.hpp"

namespace hmdiv::serve {

namespace {

/// Pending-connection queue length passed to listen().
constexpr int kListenBacklog = 128;

/// poll() with EINTR retry (signals — the daemon's own SIGTERM, or any
/// handler an embedding process installs — must not surface as transport
/// errors; the shutdown signal is observed via the wake pipe, not via
/// EINTR).
int poll_retry(pollfd* fds, nfds_t count, int timeout_ms) {
  for (;;) {
    const int rc = ::poll(fds, count, timeout_ms);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// --- Shard-transport fault injection (test hook) ---------------------------
// HMDIV_SHARD_FAULT="<mode>:<shard|*>" makes the shard endpoint misbehave
// on its reply to every task whose shard index is <shard> ('*' matches
// every task — the deterministic spelling when the task → worker mapping
// is timing-dependent, as it is under the pipelined coordinator's
// concurrent startup). Modes: "connreset" RSTs the connection instead of
// replying; "slowdrain" ships half the reply, then stalls past any
// per-task deadline; "delay", spelled "delay:<shard|*>:<ms>", waits `ms`
// before shipping each matching reply. Anything else is no fault. Only
// fault-injection tests set it.

struct ShardFault {
  enum class Mode { none, connreset, slowdrain, delay };
  Mode mode = Mode::none;
  bool every_task = false;
  std::uint32_t shard = 0;
  unsigned delay_ms = 0;

  [[nodiscard]] bool matches(std::uint32_t shard_index) const {
    return mode != Mode::none && (every_task || shard == shard_index);
  }
};

/// Parses a whole decimal field; false on empty, trailing or overflow.
template <typename T>
bool parse_decimal(std::string_view text, T& value) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return !text.empty() && ec == std::errc{} &&
         end == text.data() + text.size();
}

ShardFault shard_fault_from_env() {
  const char* raw = std::getenv("HMDIV_SHARD_FAULT");
  if (raw == nullptr) return {};
  const std::string_view text(raw);
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) return {};
  const std::string_view mode = text.substr(0, colon);
  std::string_view target = text.substr(colon + 1);
  ShardFault fault;
  if (mode == "delay") {
    const std::size_t second = target.find(':');
    if (second == std::string_view::npos ||
        !parse_decimal(target.substr(second + 1), fault.delay_ms) ||
        fault.delay_ms > 60'000) {
      return {};
    }
    target = target.substr(0, second);
    fault.mode = ShardFault::Mode::delay;
  } else if (mode == "connreset") {
    fault.mode = ShardFault::Mode::connreset;
  } else if (mode == "slowdrain") {
    fault.mode = ShardFault::Mode::slowdrain;
  } else {
    return {};
  }
  if (target == "*") {
    fault.every_task = true;
  } else if (!parse_decimal(target, fault.shard)) {
    return {};
  }
  return fault;
}

}  // namespace

Server::Server(Service& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() {
  if (running()) shutdown();
}

void Server::start() {
  if (running()) throw std::runtime_error("server already running");
  stopping_.store(false, std::memory_order_release);

  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    close_quietly(wake_pipe_[0]);
    close_quietly(wake_pipe_[1]);
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    const std::string bad = options_.bind_address;
    close_quietly(listen_fd_);
    close_quietly(wake_pipe_[0]);
    close_quietly(wake_pipe_[1]);
    throw std::runtime_error("invalid bind address '" + bad + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(listen_fd_);
    close_quietly(wake_pipe_[0]);
    close_quietly(wake_pipe_[1]);
    throw std::runtime_error("bind/listen: " + reason);
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::request_shutdown() noexcept {
  // Only async-signal-safe operations: atomic stores and one write().
  service_.set_draining(true);
  stopping_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::shutdown() {
  request_shutdown();
  wait();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop is gone; no new connections can appear.
  for (;;) {
    std::unique_ptr<Connection> connection;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      if (connections_.empty()) break;
      connection = std::move(connections_.back());
      connections_.pop_back();
    }
    if (connection->thread.joinable()) connection->thread.join();
  }
  close_quietly(listen_fd_);
  close_quietly(wake_pipe_[0]);
  close_quietly(wake_pipe_[1]);
  running_.store(false, std::memory_order_release);
}

std::size_t Server::reap_connections_locked() {
  std::size_t live = 0;
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++live;
      ++it;
    }
  }
  return live;
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (poll_retry(fds, 2, -1) < 0) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int conn_fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn_fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    const int enable = 1;
    ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    timeval send_timeout{};
    send_timeout.tv_sec = options_.send_timeout_seconds;
    ::setsockopt(conn_fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof send_timeout);
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(conn_fd, SOL_SOCKET, SO_SNDBUF,
                   &options_.send_buffer_bytes,
                   sizeof options_.send_buffer_bytes);
    }

    const std::lock_guard<std::mutex> lock(connections_mutex_);
    if (reap_connections_locked() >= options_.max_connections) {
      HMDIV_OBS_COUNT("serve.conn.busy_rejected", 1);
      static constexpr char kBusy[] =
          "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"busy\","
          "\"message\":\"connection limit reached\"}}\n";
      static_cast<void>(send_all(conn_fd, kBusy, sizeof kBusy - 1));
      int fd = conn_fd;
      close_quietly(fd);
      continue;
    }
    HMDIV_OBS_COUNT("serve.conn.accepted", 1);
    auto connection = std::make_unique<Connection>();
    connection->fd = conn_fd;
    Connection& ref = *connection;
    connections_.push_back(std::move(connection));
    ref.thread = std::thread(&Server::connection_loop, this, std::ref(ref));
  }
}

bool Server::send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t rc =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    // EAGAIN here means the send timeout elapsed with zero progress for a
    // full window: the peer stopped reading. The remainder of the burst
    // cannot be delivered, so the connection closes — but never silently:
    // the counter names the cause. (Partial progress is not a timeout;
    // each short send above restarts the SO_SNDTIMEO window.)
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      HMDIV_OBS_COUNT("serve.conn.send_timeout", 1);
    } else {
      HMDIV_OBS_COUNT("serve.conn.send_error", 1);
    }
    return false;
  }
  return true;
}

void Server::connection_loop(Connection& connection) {
  RequestScratch scratch;
  std::string in;
  std::string out;
  std::size_t consumed = 0;
  bool peer_ok = true;
  bool oversized = false;
  char buffer[64 * 1024];

  // Answers every complete line currently buffered. Returns false when
  // the connection must close (oversized unfinished line).
  const auto process_buffered = [&]() -> bool {
    for (;;) {
      const std::size_t newline = in.find('\n', consumed);
      if (newline == std::string::npos) break;
      std::string_view line(in.data() + consumed, newline - consumed);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) service_.handle_line(line, scratch, out);
      consumed = newline + 1;
    }
    if (consumed == in.size()) {
      in.clear();
      consumed = 0;
    } else if (consumed > 4096) {
      // In-place shift; keeps the buffer from growing without bound
      // while a partial line straddles reads.
      in.erase(0, consumed);
      consumed = 0;
    }
    if (in.size() - consumed > options_.max_line_bytes) {
      oversized = true;
      HMDIV_OBS_COUNT("serve.protocol.oversized", 1);
      static constexpr char kOversized[] =
          "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"oversized\","
          "\"message\":\"request line exceeds the size limit\"}}\n";
      out += kOversized;
      return false;
    }
    return true;
  };

  for (;;) {
    pollfd fds[2] = {{connection.fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (poll_retry(fds, 2, -1) < 0) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    const ssize_t got = ::read(connection.fd, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // peer closed or hard error
    in.append(buffer, static_cast<std::size_t>(got));
    const bool resyncable = process_buffered();
    if (!out.empty()) {
      peer_ok = send_all(connection.fd, out.data(), out.size());
      out.clear();
    }
    if (!peer_ok) break;
    if (!resyncable) break;
    if (scratch.shard_upgrade) {
      // The upgrade response is flushed; everything still buffered (and
      // every byte hereafter) is HMDF frames. The shard loop owns the
      // connection until the stream ends, then the socket closes —
      // NDJSON never resumes on an upgraded connection.
      shard_loop(connection,
                 std::string_view(in.data() + consumed, in.size() - consumed));
      break;
    }
  }

  // Drain: requests sent before shutdown still get answers. Bytes the
  // peer wrote before the stop signal may still be in flight or queued in
  // the kernel, so keep reading until the socket goes quiet for one grace
  // interval (bounded by kDrainMaxPolls so a chatty peer cannot stall
  // shutdown indefinitely).
  if (peer_ok && !oversized && stopping_.load(std::memory_order_acquire)) {
    constexpr int kDrainGraceMs = 25;
    constexpr int kDrainMaxPolls = 10;
    for (int polls = 0; polls < kDrainMaxPolls; ++polls) {
      pollfd pfd{connection.fd, POLLIN, 0};
      if (poll_retry(&pfd, 1, kDrainGraceMs) <= 0) break;
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) break;
      const ssize_t got = ::read(connection.fd, buffer, sizeof buffer);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      in.append(buffer, static_cast<std::size_t>(got));
      if (!process_buffered()) break;
    }
    if (!oversized) process_buffered();
    if (!out.empty()) {
      static_cast<void>(send_all(connection.fd, out.data(), out.size()));
    }
  }
  ::shutdown(connection.fd, SHUT_RDWR);
  close_quietly(connection.fd);
  connection.done.store(true, std::memory_order_release);
}

void Server::shard_loop(Connection& connection, std::string_view initial) {
  HMDIV_OBS_COUNT("serve.shard.upgrades", 1);
  exec::ShardSession session;
  char buffer[64 * 1024];

  const ShardFault fault = shard_fault_from_env();

  // Sleeps `ms` in slices so shutdown is not held hostage; false when
  // shutdown arrived first.
  const auto stall = [&](unsigned ms) -> bool {
    for (unsigned slept = 0; slept < ms; slept += 50) {
      if (stopping_.load(std::memory_order_acquire)) return false;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(50u, ms - slept)));
    }
    return !stopping_.load(std::memory_order_acquire);
  };

  // Ships one task's reply frames; false ends the stream. The injectable
  // faults live here — at the transport, where the coordinator's
  // retry-reassign path must absorb them — not in the compute. Replies
  // leave in task order whatever the fault, so FIFO matching holds.
  const auto ship = [&](const exec::ShardSession::Reply& reply) -> bool {
    switch (fault.matches(reply.shard_index) ? fault.mode
                                             : ShardFault::Mode::none) {
      case ShardFault::Mode::connreset: {
        // SO_LINGER{on, 0} turns close() into a RST — what a crashed
        // worker host looks like from the coordinator's side.
        HMDIV_OBS_COUNT("serve.shard.fault_connreset", 1);
        linger hard{};
        hard.l_onoff = 1;
        hard.l_linger = 0;
        ::setsockopt(connection.fd, SOL_SOCKET, SO_LINGER, &hard,
                     sizeof hard);
        return false;
      }
      case ShardFault::Mode::slowdrain: {
        // Half the reply, then a stall past any sane per-task deadline,
        // then the rest. The coordinator must give up mid-drain and
        // reassign.
        HMDIV_OBS_COUNT("serve.shard.fault_slowdrain", 1);
        const std::size_t half = reply.bytes.size() / 2;
        if (!send_all(connection.fd,
                      reinterpret_cast<const char*>(reply.bytes.data()),
                      half) ||
            !stall(1500)) {
          return false;
        }
        return send_all(connection.fd,
                        reinterpret_cast<const char*>(reply.bytes.data()) +
                            half,
                        reply.bytes.size() - half) &&
               !reply.close;
      }
      case ShardFault::Mode::delay:
        HMDIV_OBS_COUNT("serve.shard.fault_delay", 1);
        if (!stall(fault.delay_ms)) return false;
        break;
      case ShardFault::Mode::none:
        break;
    }
    if (!reply.bytes.empty() &&
        !send_all(connection.fd,
                  reinterpret_cast<const char*>(reply.bytes.data()),
                  reply.bytes.size())) {
      return false;
    }
    return !reply.close;
  };

  const auto consume = [&](const std::uint8_t* data,
                           std::size_t size) -> bool {
    for (const exec::ShardSession::Reply& reply :
         session.consume({data, size})) {
      if (!ship(reply)) return false;
    }
    return true;
  };

  if (!initial.empty() &&
      !consume(reinterpret_cast<const std::uint8_t*>(initial.data()),
               initial.size())) {
    return;
  }
  for (;;) {
    pollfd fds[2] = {{connection.fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (poll_retry(fds, 2, -1) < 0) return;
    if (stopping_.load(std::memory_order_acquire)) return;
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t got = ::read(connection.fd, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return;  // coordinator closed (normal end of a run)
    if (!consume(reinterpret_cast<const std::uint8_t*>(buffer),
                 static_cast<std::size_t>(got))) {
      return;
    }
  }
}

}  // namespace hmdiv::serve

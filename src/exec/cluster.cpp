#include "exec/cluster.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

#include "exec/cluster_protocol.hpp"
#include "exec/shard_protocol.hpp"
#include "obs/obs.hpp"

namespace hmdiv::exec {

namespace {

using Clock = std::chrono::steady_clock;

/// Tasks kept in flight per connection (pipelining depth): the next
/// tasks' bytes are on the wire while the worker computes the current one.
constexpr std::size_t kWindow = 4;

/// Micro-shards per worker. Small tasks keep a sidelined worker's requeue
/// and a slow worker's tail short.
constexpr std::uint64_t kShardsPerWorker = 16;

// --- Socket helpers -------------------------------------------------------

int remaining_ms(Clock::time_point deadline) noexcept {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 60'000) return 60'000;
  return static_cast<int>(left.count());
}

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

bool transient(int error) noexcept {
  return error == EAGAIN || error == EWOULDBLOCK || error == EINTR;
}

/// Splits "host:port" / "[v6]:port" into its pieces; false when the shape
/// is wrong (the CLI validates earlier, this is the defensive re-check).
bool split_address(const std::string& address, std::string& host,
                   std::string& port) {
  if (!address.empty() && address.front() == '[') {
    const std::size_t close = address.find(']');
    if (close == std::string::npos || close + 1 >= address.size() ||
        address[close + 1] != ':') {
      return false;
    }
    host = address.substr(1, close - 1);
    port = address.substr(close + 2);
  } else {
    const std::size_t colon = address.rfind(':');
    if (colon == std::string::npos || address.find(':') != colon) {
      return false;
    }
    host = address.substr(0, colon);
    port = address.substr(colon + 1);
  }
  return !host.empty() && !port.empty();
}

}  // namespace

std::uint32_t cluster_shard_count(std::uint64_t items,
                                  std::size_t workers) noexcept {
  const std::uint64_t grain =
      std::min<std::uint64_t>(workers, wire::kMaxShards) * kShardsPerWorker;
  return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
      std::min(items, grain), 1, wire::kMaxShards));
}

// --- Per-worker connection state ------------------------------------------

struct ClusterRunner::Conn {
  enum class State { closed, connecting, upgrading, ready };

  std::string host;
  std::string port;
  int fd = -1;
  State state = State::closed;
  bool healthy = true;  ///< this run; reset at run start
  Clock::time_point conn_deadline{};  ///< connect/upgrade budget

  // Upgrade handshake progress (non-blocking, driven by the poll loop).
  std::size_t upgrade_sent = 0;
  std::string upgrade_line;

  // Pipelined task window, FIFO: the worker replies to tasks in dispatch
  // order, each reply terminated by a done frame naming its shard.
  struct Inflight {
    std::uint32_t shard = 0;
    Clock::time_point dispatched{};
  };
  std::deque<Inflight> inflight;
  Clock::time_point head_deadline{};
  std::vector<std::uint8_t> send_buf;
  std::size_t sent = 0;
  wire::FrameParser parser;

  // Reply accumulation for the head task. Buffered until its done frame
  // so a connection that dies mid-task never half-applies a task's obs
  // delta (the retried task re-ships it).
  std::vector<std::uint8_t> cur_payload;
  bool have_payload = false;
  std::vector<std::vector<std::uint8_t>> cur_obs;

  /// True once this connection shipped the run's blob inline; follow-up
  /// tasks set blob_cached and ride the worker session's cache.
  bool blob_sent = false;

  // Re-admission: one probe per run after the backoff.
  bool readmit_armed = false;
  bool probing = false;  ///< the in-progress connect is the re-probe
  bool readmitted_this_run = false;
  Clock::time_point readmit_at{};

  ClusterWorkerStats stats;

  void close_fd() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    state = State::closed;
    inflight.clear();
    send_buf.clear();
    sent = 0;
    parser = wire::FrameParser{};
    cur_payload.clear();
    have_payload = false;
    cur_obs.clear();
    blob_sent = false;
    probing = false;
    upgrade_sent = 0;
    upgrade_line.clear();
  }
};

// --- One run: shared state and the steps that advance it ------------------

/// Everything one run() call owns; the steps below share it. The
/// connections (warm fds, cumulative stats) outlive it.
struct ClusterRunner::RunState {
  RunState(const ClusterOptions& options, std::vector<Conn>& conns,
           std::string_view workload, std::span<const std::uint8_t> blob,
           std::uint64_t items);

  // connect
  void start_connect(Conn& conn);
  void enter_upgrade(Conn& conn);
  void finish_connect(Conn& conn, short revents);
  void upgrade(Conn& conn, short revents);
  void finish_upgrade(Conn& conn, std::size_t newline);
  // dispatch
  void fill_windows();
  void dispatch(std::size_t index);
  // receive
  void poll_once();
  void pump(Conn& conn, short revents);
  bool send_tasks(Conn& conn, short revents);
  bool receive(Conn& conn);
  bool process_frames(Conn& conn);
  void complete_head(Conn& conn);
  // requeue and readmit
  void sideline(Conn& conn, const std::string& why);
  void readmit_due();

  const ClusterOptions& options;
  std::vector<Conn>& conns;
  std::string_view workload;
  std::span<const std::uint8_t> blob;
  std::uint32_t shards = 1;
  bool ship_obs = false;
  /// Micro-shards not yet dispatched, in dispatch order. A sidelined
  /// worker's in-flight shards requeue at the front (oldest first), so
  /// coverage of [0, shards) is exact on every path.
  std::deque<std::uint32_t> pending;
  /// One result payload per micro-shard, indexed by shard.
  std::vector<std::vector<std::uint8_t>> payloads;
  /// Connection that last took each shard; conns.size() when none has.
  std::vector<std::size_t> last_conn;
  std::uint32_t completed = 0;
  std::string last_failure = "no worker reachable";
  std::uint8_t buffer[1 << 16];
};

ClusterRunner::RunState::RunState(const ClusterOptions& run_options,
                                  std::vector<Conn>& run_conns,
                                  std::string_view run_workload,
                                  std::span<const std::uint8_t> run_blob,
                                  std::uint64_t items)
    : options(run_options),
      conns(run_conns),
      workload(run_workload),
      blob(run_blob),
      shards(cluster_shard_count(items, run_conns.size())),
      ship_obs(obs::enabled()),
      payloads(shards),
      last_conn(shards, run_conns.size()) {
  for (std::uint32_t s = 0; s < shards; ++s) pending.push_back(s);
  // Health, blob shipping and re-admission are per run; warm fds and
  // cumulative stats persist across runs.
  for (Conn& conn : conns) {
    conn.healthy = !conn.host.empty();
    conn.blob_sent = false;
    conn.readmit_armed = false;
    conn.probing = false;
    conn.readmitted_this_run = false;
  }
}

// Drops a worker: the frame stream cannot be resynced, so the fd closes,
// every in-flight shard goes back to the front of the queue in dispatch
// order, and — once per run — a re-probe is scheduled after the backoff.
void ClusterRunner::RunState::sideline(Conn& conn, const std::string& why) {
  conn.stats.last_error = why;
  last_failure = conn.stats.address + ": " + why;
  if (!conn.inflight.empty()) {
    conn.stats.retries += conn.inflight.size();
    HMDIV_OBS_COUNT("exec.cluster.retries", conn.inflight.size());
    for (auto it = conn.inflight.rbegin(); it != conn.inflight.rend(); ++it) {
      pending.push_front(it->shard);
    }
  }
  conn.close_fd();
  conn.healthy = false;
  if (options.readmit_after.count() > 0 && !conn.readmitted_this_run) {
    conn.readmit_armed = true;
    conn.readmit_at = Clock::now() + options.readmit_after;
  }
}

void ClusterRunner::RunState::readmit_due() {
  for (Conn& conn : conns) {
    if (conn.readmit_armed && Clock::now() >= conn.readmit_at) {
      conn.readmit_armed = false;
      conn.readmitted_this_run = true;
      conn.probing = true;
      conn.healthy = true;
      start_connect(conn);
    }
  }
}

// Kicks off a non-blocking connect; the poll loop finishes it. All startup
// connects launch together, so startup cost is the slowest worker's
// handshake, not the sum.
void ClusterRunner::RunState::start_connect(Conn& conn) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* list = nullptr;
  const int rc =
      ::getaddrinfo(conn.host.c_str(), conn.port.c_str(), &hints, &list);
  if (rc != 0) {
    sideline(conn, std::string("resolve failed: ") + ::gai_strerror(rc));
    return;
  }
  int fd = -1;
  int last_errno = ECONNREFUSED;
  bool in_progress = false;
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS) {
      in_progress = true;
      break;
    }
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(list);
  if (fd < 0) {
    sideline(conn,
             std::string("connect failed: ") + std::strerror(last_errno));
    return;
  }
  conn.fd = fd;
  if (in_progress) {
    conn.state = Conn::State::connecting;
    conn.conn_deadline = Clock::now() + options.connect_timeout;
  } else {
    enter_upgrade(conn);
  }
}

void ClusterRunner::RunState::enter_upgrade(Conn& conn) {
  conn.state = Conn::State::upgrading;
  conn.upgrade_sent = 0;
  conn.upgrade_line.clear();
  conn.conn_deadline = Clock::now() + options.connect_timeout;
  const int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void ClusterRunner::RunState::finish_connect(Conn& conn, short revents) {
  if (revents == 0) {
    if (Clock::now() >= conn.conn_deadline) {
      sideline(conn, "connect timed out");
    }
    return;
  }
  int so_error = 0;
  socklen_t len = sizeof so_error;
  if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
    so_error = errno;
  }
  if (so_error != 0) {
    sideline(conn, std::string("connect failed: ") + std::strerror(so_error));
  } else {
    enter_upgrade(conn);
  }
}

// Sends the upgrade line and reads the daemon's one-line answer.
void ClusterRunner::RunState::upgrade(Conn& conn, short revents) {
  if ((revents & POLLOUT) != 0 &&
      conn.upgrade_sent < kShardUpgradeLine.size()) {
    const ssize_t n =
        ::send(conn.fd, kShardUpgradeLine.data() + conn.upgrade_sent,
               kShardUpgradeLine.size() - conn.upgrade_sent, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.upgrade_sent += static_cast<std::size_t>(n);
    } else if (!transient(errno)) {
      sideline(conn, "upgrade send failed");
      return;
    }
  }
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      conn.upgrade_line.append(reinterpret_cast<const char*>(buffer),
                               static_cast<std::size_t>(n));
      const std::size_t newline = conn.upgrade_line.find('\n');
      if (newline != std::string::npos) {
        finish_upgrade(conn, newline);
      } else if (conn.upgrade_line.size() > 4096) {
        sideline(conn, "oversized upgrade response");
      }
    } else if (n == 0) {
      sideline(conn, "closed during upgrade");
    } else if (!transient(errno)) {
      sideline(conn,
               std::string("upgrade read failed: ") + std::strerror(errno));
    }
  }
  if (conn.state == Conn::State::upgrading &&
      Clock::now() >= conn.conn_deadline) {
    sideline(conn, "upgrade timed out");
  }
}

void ClusterRunner::RunState::finish_upgrade(Conn& conn,
                                             std::size_t newline) {
  const std::size_t ok = conn.upgrade_line.find("\"ok\":true");
  if (ok == std::string::npos || ok > newline) {
    sideline(conn,
             "upgrade rejected: " + conn.upgrade_line.substr(0, newline));
    return;
  }
  // Trailing bytes already belong to the frame stream (none with a
  // well-behaved worker, but the parser owns them either way).
  const std::size_t extra = conn.upgrade_line.size() - newline - 1;
  if (extra > 0) {
    conn.parser.feed(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(conn.upgrade_line.data()) +
            newline + 1,
        extra));
  }
  conn.upgrade_line.clear();
  conn.state = Conn::State::ready;
  if (conn.probing) {
    conn.probing = false;
    conn.stats.readmitted += 1;
    HMDIV_OBS_COUNT("exec.cluster.readmitted", 1);
  }
}

// Hands queued shards out one at a time, each to the ready, healthy
// connection with the shallowest window, until the queue is empty or
// every window is full.
void ClusterRunner::RunState::fill_windows() {
  while (!pending.empty()) {
    std::size_t best = conns.size();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const Conn& conn = conns[i];
      if (!conn.healthy || conn.state != Conn::State::ready ||
          conn.inflight.size() >= kWindow) {
        continue;
      }
      if (best == conns.size() ||
          conn.inflight.size() < conns[best].inflight.size()) {
        best = i;
      }
    }
    if (best == conns.size()) return;
    dispatch(best);
  }
}

void ClusterRunner::RunState::dispatch(std::size_t index) {
  Conn& conn = conns[index];
  const std::uint32_t shard = pending.front();
  pending.pop_front();
  if (last_conn[shard] < conns.size() && last_conn[shard] != index) {
    HMDIV_OBS_COUNT("exec.cluster.reassigned", 1);
  }
  last_conn[shard] = index;
  wire::ShardTask task;
  task.workload = std::string(workload);
  task.shard_index = shard;
  task.shard_count = shards;
  task.threads = options.threads;
  task.obs_enabled = ship_obs;
  task.blob_cached = conn.blob_sent;
  if (!conn.blob_sent) {
    task.blob.assign(blob.begin(), blob.end());
    conn.blob_sent = true;
  }
  wire::append_frame(conn.send_buf, wire::FrameType::task,
                     wire::serialize_task(task));
  const auto now = Clock::now();
  conn.inflight.push_back(Conn::Inflight{shard, now});
  if (conn.inflight.size() == 1) {
    conn.head_deadline = now + options.task_deadline;
  }
}

// Waits for the next socket event on any live connection (or the next
// re-probe) and hands each ready connection to the step its state needs.
void ClusterRunner::RunState::poll_once() {
  std::vector<pollfd> fds;
  std::vector<std::size_t> owner;
  int timeout = 60'000;
  bool readmit_pending = false;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const Conn& conn = conns[i];
    if (conn.readmit_armed) {
      readmit_pending = true;
      timeout = std::min(timeout, remaining_ms(conn.readmit_at));
    }
    if (!conn.healthy) continue;
    short events = 0;
    switch (conn.state) {
      case Conn::State::closed:
        continue;
      case Conn::State::connecting:
        events = POLLOUT;
        timeout = std::min(timeout, remaining_ms(conn.conn_deadline));
        break;
      case Conn::State::upgrading:
        events = POLLIN;
        if (conn.upgrade_sent < kShardUpgradeLine.size()) events |= POLLOUT;
        timeout = std::min(timeout, remaining_ms(conn.conn_deadline));
        break;
      case Conn::State::ready:
        if (conn.inflight.empty() && conn.sent >= conn.send_buf.size()) {
          continue;  // idle warm connection: nothing expected
        }
        events = POLLIN;
        if (conn.sent < conn.send_buf.size()) events |= POLLOUT;
        if (!conn.inflight.empty()) {
          timeout = std::min(timeout, remaining_ms(conn.head_deadline));
        }
        break;
    }
    fds.push_back(pollfd{conn.fd, events, 0});
    owner.push_back(i);
  }
  if (fds.empty()) {
    if (readmit_pending) {
      // Every worker is sidelined but a re-probe is scheduled: sleep out
      // the shortest backoff instead of giving up.
      if (timeout > 0) ::poll(nullptr, 0, timeout);
      return;
    }
    throw ClusterError("cluster: no healthy workers remain (" +
                       std::to_string(shards - completed) +
                       " micro-shards unfinished; last failure: " +
                       last_failure + ")");
  }
  if (::poll(fds.data(), fds.size(), timeout) < 0 && errno != EINTR) {
    throw ClusterError(std::string("cluster: poll failed: ") +
                       std::strerror(errno));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    Conn& conn = conns[owner[i]];
    if (!conn.healthy) continue;
    switch (conn.state) {
      case Conn::State::closed:
        break;
      case Conn::State::connecting:
        finish_connect(conn, fds[i].revents);
        break;
      case Conn::State::upgrading:
        upgrade(conn, fds[i].revents);
        break;
      case Conn::State::ready:
        pump(conn, fds[i].revents);
        break;
    }
  }
}

// A ready connection: pump pipelined task bytes out, drain reply frames
// in, then enforce the head task's deadline.
void ClusterRunner::RunState::pump(Conn& conn, short revents) {
  if (!send_tasks(conn, revents)) return;
  if ((revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) != 0 &&
      !receive(conn)) {
    return;
  }
  if (!conn.inflight.empty() && Clock::now() >= conn.head_deadline) {
    sideline(conn, "task deadline expired");
  }
}

// False when the connection was sidelined.
bool ClusterRunner::RunState::send_tasks(Conn& conn, short revents) {
  if ((revents & POLLOUT) == 0 || conn.sent >= conn.send_buf.size()) {
    return true;
  }
  const ssize_t n = ::send(conn.fd, conn.send_buf.data() + conn.sent,
                           conn.send_buf.size() - conn.sent, MSG_NOSIGNAL);
  if (n < 0) {
    if (transient(errno)) return true;
    sideline(conn, std::string("task send failed: ") + std::strerror(errno));
    return false;
  }
  conn.sent += static_cast<std::size_t>(n);
  conn.stats.bytes_out += static_cast<std::uint64_t>(n);
  HMDIV_OBS_COUNT("exec.cluster.bytes_out", n);
  if (conn.sent == conn.send_buf.size()) {
    conn.send_buf.clear();
    conn.sent = 0;
  }
  return true;
}

// False when the connection was sidelined.
bool ClusterRunner::RunState::receive(Conn& conn) {
  const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
  if (n < 0) {
    if (transient(errno)) return true;
    sideline(conn, std::string("reply read failed: ") + std::strerror(errno));
    return false;
  }
  if (n == 0) {
    sideline(conn, "connection closed by worker");
    return false;
  }
  conn.stats.bytes_in += static_cast<std::uint64_t>(n);
  HMDIV_OBS_COUNT("exec.cluster.bytes_in", n);
  conn.parser.feed({buffer, static_cast<std::size_t>(n)});
  try {
    return process_frames(conn);
  } catch (const wire::ProtocolError& e) {
    sideline(conn, std::string("protocol error: ") + e.what());
    return false;
  }
}

// Drains every parsed frame; false when the connection was sidelined.
// Throws ClusterError on structured worker errors (deterministic failures
// reassignment cannot fix) — run() lets those abort.
bool ClusterRunner::RunState::process_frames(Conn& conn) {
  while (auto frame = conn.parser.next()) {
    switch (frame->type) {
      case wire::FrameType::result:
        if (conn.inflight.empty() || conn.have_payload) {
          sideline(conn, "unexpected result frame");
          return false;
        }
        conn.cur_payload = std::move(frame->payload);
        conn.have_payload = true;
        break;
      case wire::FrameType::obs:
        if (conn.inflight.empty()) {
          sideline(conn, "unexpected obs frame");
          return false;
        }
        conn.cur_obs.push_back(std::move(frame->payload));
        break;
      case wire::FrameType::error: {
        std::string message = "worker error";
        try {
          wire::Reader reader(frame->payload);
          message = reader.str();
        } catch (const wire::ProtocolError&) {
        }
        conn.stats.last_error = message;
        throw ClusterError("cluster: " + conn.stats.address + ": " +
                           message);
      }
      case wire::FrameType::done: {
        std::uint32_t id = 0;
        try {
          id = wire::parse_done(frame->payload);
        } catch (const wire::ProtocolError& e) {
          sideline(conn, std::string("bad done frame: ") + e.what());
          return false;
        }
        if (conn.inflight.empty() || id != conn.inflight.front().shard ||
            !conn.have_payload) {
          sideline(conn, "done frame out of order (task " +
                             std::to_string(id) + ")");
          return false;
        }
        complete_head(conn);
        break;
      }
      case wire::FrameType::task:
        sideline(conn, "unexpected task frame from worker");
        return false;
    }
  }
  return true;
}

void ClusterRunner::RunState::complete_head(Conn& conn) {
  const Conn::Inflight head = conn.inflight.front();
  conn.inflight.pop_front();
  for (std::vector<std::uint8_t>& snapshot : conn.cur_obs) {
    try {
      obs::Registry::global().merge(wire::parse_snapshot(snapshot));
    } catch (const std::exception& e) {
      throw ClusterError("cluster: " + conn.stats.address +
                         ": bad obs frame: " + e.what());
    }
  }
  conn.cur_obs.clear();
  payloads[head.shard] = std::move(conn.cur_payload);
  conn.cur_payload = std::vector<std::uint8_t>{};
  conn.have_payload = false;
  completed += 1;
  conn.stats.tasks += 1;
  HMDIV_OBS_COUNT("exec.cluster.tasks", 1);
  const auto now = Clock::now();
  if (obs::enabled()) {
    static obs::Histogram& rpc =
        obs::Registry::global().histogram("exec.cluster.rpc_ns");
    rpc.record(elapsed_ns(head.dispatched, now));
  }
  if (!conn.inflight.empty()) {
    conn.head_deadline = now + options.task_deadline;
  }
}

// --- ClusterRunner ----------------------------------------------------------

ClusterRunner::ClusterRunner(ClusterOptions options)
    : options_(std::move(options)) {
  conns_.reserve(options_.workers.size());
  for (const std::string& address : options_.workers) {
    Conn conn;
    conn.stats.address = address;
    if (!split_address(address, conn.host, conn.port)) {
      conn.healthy = false;
      conn.stats.last_error = "malformed worker address";
    }
    conns_.push_back(std::move(conn));
  }
}

ClusterRunner::~ClusterRunner() {
  for (Conn& conn : conns_) conn.close_fd();
}

std::vector<ClusterWorkerStats> ClusterRunner::worker_stats() const {
  std::vector<ClusterWorkerStats> out;
  out.reserve(conns_.size());
  for (const Conn& conn : conns_) out.push_back(conn.stats);
  return out;
}

std::vector<std::vector<std::uint8_t>> ClusterRunner::run(
    std::string_view workload, std::span<const std::uint8_t> blob,
    std::uint64_t items) {
  if (conns_.empty()) {
    throw ClusterError("cluster: no workers configured");
  }
  HMDIV_OBS_SCOPED_TIMER("exec.cluster.run_ns");
  HMDIV_OBS_COUNT("exec.cluster.runs", 1);
  RunState state(options_, conns_, workload, blob, items);
  try {
    for (Conn& conn : conns_) {
      if (conn.healthy && conn.state == Conn::State::closed) {
        state.start_connect(conn);
      }
    }
    while (state.completed < state.shards) {
      state.readmit_due();
      state.fill_windows();
      state.poll_once();
    }
  } catch (...) {
    HMDIV_OBS_COUNT("exec.cluster.failures", 1);
    // Mid-task streams cannot be resynced; drop them so a later run
    // starts from a clean connection.
    for (Conn& conn : conns_) {
      if (!conn.inflight.empty()) conn.close_fd();
    }
    throw;
  }
  return std::move(state.payloads);
}

}  // namespace hmdiv::exec

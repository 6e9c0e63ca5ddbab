// perfbench_load — open-loop NDJSON traffic against a running hmdiv_serve.
//
//   perfbench_load --port P --model M --trial T --field F --seed S
//                  --rate R --seconds D --conns C --out FILE
//                  [--salt N] [--window W]
//
// One thread drives C connections (independent analysts). Arrivals are a
// Poisson process at R requests/s generated from S before the clock
// starts; every request is sent at its due time whatever the replies are
// doing (open loop), and its latency is timed from the due time, so a
// server that falls behind shows as latency, not as a slower sender.
//
// Traffic (the constants below give each share and its reason): light
// whatif / compare / analyze with what-if keys drawn from a Zipf(1)
// popularity over 16384 keys (four times the daemon's default what-if
// cache), heavy cache-missing uq / sweep / minimise (2k-20k draws or
// steps), and a reload of the same model text every kReloadEveryUs of
// schedule, which clears every cache.
//
// Checks: reply ids match the request on their connection in FIFO order;
// every what-if reply's numbers equal an in-process core::Extrapolator;
// a key's replies are identical whether cached or not, across reloads.
//
// --window W > 0 switches to a closed loop for measuring capacity: each
// connection keeps W requests in flight for D seconds, taking requests in
// schedule order; R then only sizes the schedule (an upper bound on the
// completion rate), and latency is timed from the send.
//
// FILE receives one row of four doubles per request, in due order:
// kind (0 light, 1 heavy, 2 reload), due time (µs after start), latency
// (µs from due to reply, -1 if none came) and sender lag (µs from due to
// send). A JSON summary goes to stdout.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adapters/core.hpp"
#include "adapters/serve.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace perfbench;

// The traffic mix. Costs measured on a 4-vCPU host (g++ 12.2, Release)
// with the benchmark's 12-class model: a light request ~11 us round trip
// (serve.light_p50_us), a heavy one ~1.2 ms at its median size
// (serve.handle_us.heavy).
//
// Heavy share: the two classes split the daemon's busy time about evenly,
// so both the request path and the core kernels show in the latencies:
// 0.01 x 1.2 ms = 12 us of heavy work per request against 0.99 x 11 us
// of light.
constexpr double kHeavyFrac = 0.01;
// Light mix (assumption: analysts mostly ask single what-ifs, the paper's
// Eq.-8 question; compare and analyze are the occasional summary views).
constexpr double kWhatifShare = 0.8;
constexpr double kCompareShare = 0.1;  // the rest of light is analyze
// What-if keys: Zipf exponent 1 (assumption: the textbook skewed
// popularity) over four times the 4096-entry default cache, so popular
// keys hit and the long tail cannot all fit.
constexpr std::uint32_t kKeys = 16384;
// A reload (a write beside the reads) every 2.5 s of schedule: two per
// open-loop phase of the serve workload, each after ~16k what-ifs at its
// fixed rate, enough to touch more than 4096 distinct keys and fill the
// cache before it is cleared.
constexpr double kReloadEveryUs = 2.5e6;

enum Op : unsigned char { kWhatif, kCompare, kAnalyze, kUq, kSweep, kMinimise, kReload };

struct Request {
  double due_us = 0.0;
  std::size_t conn = 0;
  Op op = kWhatif;
  std::uint32_t key = 0;  // what-if key (whatif only)
  std::string line;
};

struct Conn {
  int fd = -1;
  std::string outbuf;
  std::size_t out_sent = 0;
  std::string inbuf;
  std::deque<std::size_t> pending;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "perfbench_load: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double reader_factor(std::uint32_t key) { return 0.5 + (key & 127u) / 128.0; }
double machine_factor(std::uint32_t key) { return 0.5 + (key >> 7) / 128.0; }

/// The value after `"name":` in a reply, or NaN when absent.
double number_after(std::string_view body, std::string_view name) {
  const std::string needle = "\"" + std::string(name) + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string_view::npos) return std::nan("");
  return std::strtod(std::string(body.substr(at + needle.size(), 40)).c_str(),
                     nullptr);
}

/// Base-2 radical inverse (van der Corput sequence) of i, in [0, 1).
double radical_inverse(std::uint64_t i) {
  double result = 0.0, scale = 0.5;
  for (; i != 0; i >>= 1, scale *= 0.5) {
    if ((i & 1) != 0) result += scale;
  }
  return result;
}

int connect_loopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::cerr << "perfbench_load: cannot connect to port " << port << "\n";
    std::exit(1);
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--port", "--model", "--trial", "--field",
                               "--seed", "--rate", "--seconds", "--conns",
                               "--out"}) {
    if (args.count(required) == 0) {
      std::cerr << "perfbench_load: missing " << required << "\n";
      return 2;
    }
  }
  const auto get = [&](const char* name, const char* fallback) {
    return args.count(name) != 0 ? args[name] : std::string(fallback);
  };
  const auto port = static_cast<std::uint16_t>(std::stoul(args["--port"]));
  const std::uint64_t seed = std::stoull(args["--seed"]);
  const std::uint64_t salt = std::stoull(get("--salt", "0"));
  const double rate = std::stod(args["--rate"]);
  const double seconds = std::stod(args["--seconds"]);
  const std::size_t conns = std::stoul(args["--conns"]);
  const std::size_t window = std::stoul(get("--window", "0"));
  const std::string model_text = read_file(args["--model"]);
  const std::string trial_text = read_file(args["--trial"]);
  const std::string field_text = read_file(args["--field"]);
  const core_layer::Inputs inputs =
      core_layer::parse_inputs(model_text, trial_text, field_text);

  // --- the schedule, generated before the clock starts -----------------
  std::mt19937_64 gen(seed * 0x9E3779B97F4A7C15ULL + salt);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> zipf_cdf(kKeys);
  double total = 0.0;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    total += 1.0 / (k + 1.0);
    zipf_cdf[k] = total;
  }
  std::vector<std::uint32_t> permutation(kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) permutation[k] = k;
  std::shuffle(permutation.begin(), permutation.end(), gen);
  const auto draw_key = [&] {
    const double u = unit(gen) * total;
    const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
    return permutation[std::min<std::size_t>(it - zipf_cdf.begin(),
                                             kKeys - 1)];
  };

  std::vector<Request> requests;
  std::exponential_distribution<double> gap(rate / 1e6);
  double next_reload = kReloadEveryUs;
  std::uint64_t unique = salt << 16;  // heavy keys never repeat
  std::uint64_t heavy_cycle = gen() % 3000;
  char line[512];
  for (double t = gap(gen); t < seconds * 1e6; t += gap(gen)) {
    Request r;
    r.due_us = t;
    r.conn = std::min<std::size_t>(
        static_cast<std::size_t>(unit(gen) * static_cast<double>(conns)),
        conns - 1);
    const std::size_t id = requests.size();
    if (t >= next_reload) {
      next_reload += kReloadEveryUs;
      r.op = kReload;
      r.line = serve_layer::reload_request(id, model_text, trial_text,
                                           field_text);
    } else if (unit(gen) < kHeavyFrac) {
      // Heavy requests rotate through the three endpoints, with sizes from
      // a low-discrepancy sequence over [2k, 20k] starting at a seeded
      // point: every run carries the same, evenly spread cost mix.
      const std::uint64_t slot = heavy_cycle++;
      const unsigned pick = static_cast<unsigned>(slot % 3);
      const unsigned size =
          2000u + static_cast<unsigned>(18000.0 * radical_inverse(slot / 3));
      const double u = static_cast<double>(++unique);
      if (pick == 0) {
        r.op = kUq;
        std::snprintf(line, sizeof(line),
                      R"({"op":"uq","id":%zu,"params":{"draws":%u,"seed":%.0f}})",
                      id, size, u);
      } else if (pick == 1) {
        r.op = kSweep;
        std::snprintf(line, sizeof(line),
                      R"({"op":"sweep","id":%zu,"params":{"steps":%u,"lo":%.17g}})",
                      id, size, -4.0 - std::ldexp(u, -24));
      } else {
        r.op = kMinimise;
        std::snprintf(
            line, sizeof(line),
            R"({"op":"minimise","id":%zu,"params":{"steps":%u,"cost_fn":%.17g}})",
            id, size, 500.0 + std::ldexp(u, -16));
      }
      r.line = line;
    } else {
      const double pick = unit(gen);
      if (pick < kWhatifShare) {
        r.op = kWhatif;
        r.key = draw_key();
        std::snprintf(line, sizeof(line),
                      R"({"op":"whatif","id":%zu,"params":{"reader_factor":%.17g,"machine_factor":%.17g}})",
                      id, reader_factor(r.key), machine_factor(r.key));
      } else if (pick < kWhatifShare + kCompareShare) {
        r.op = kCompare;
        const std::uint32_t a = draw_key(), b = draw_key();
        std::snprintf(line, sizeof(line),
                      R"({"op":"compare","id":%zu,"params":{"scenarios":[{"name":"a","reader_factor":%.17g,"machine_factor":%.17g},{"name":"b","reader_factor":%.17g,"machine_factor":%.17g}]}})",
                      id, reader_factor(a), machine_factor(a),
                      reader_factor(b), machine_factor(b));
      } else {
        r.op = kAnalyze;
        std::snprintf(line, sizeof(line), R"({"op":"analyze","id":%zu})", id);
      }
      r.line = line;
    }
    r.line += '\n';
    requests.push_back(std::move(r));
  }
  const std::size_t n = requests.size();
  std::vector<double> latency(n, -1.0), lag(n, 0.0);

  // --- checks and tallies ----------------------------------------------
  std::vector<std::string> whatif_body(kKeys);
  std::vector<unsigned char> seen_cached(kKeys, 0), seen_fresh(kKeys, 0);
  std::uint64_t id_mismatch = 0, body_mismatch = 0, failed = 0, shed = 0,
                deadline = 0, transport = 0, reloads = 0;
  std::map<std::string, std::uint64_t> errors;
  std::uint64_t lookups[4] = {0, 0, 0, 0}, hits[4] = {0, 0, 0, 0};
  const auto cache_slot = [](Op op) {
    return op == kWhatif ? 0 : op == kUq ? 1 : op == kSweep ? 2 : 3;
  };

  const auto on_reply = [&](std::size_t index, std::string_view reply) {
    const Request& r = requests[index];
    // Ids are JSON numbers: the daemon may spell 100000 as 1e+05.
    if (reply.substr(0, 6) != "{\"id\":" ||
        number_after(reply.substr(0, 40), "id") != static_cast<double>(index)) {
      if (id_mismatch++ == 0) {
        std::cerr << "perfbench_load: request " << index << " got reply "
                  << reply.substr(0, 200) << "\n";
      }
    }
    if (reply.find("\"ok\":true", 0) == std::string_view::npos) {
      ++failed;
      const std::size_t at = reply.find("\"code\":\"");
      const std::string code =
          at == std::string_view::npos
              ? "unparsed"
              : std::string(reply.substr(at + 8, reply.find('"', at + 8) -
                                                     (at + 8)));
      ++errors[code];
      if (code == "shed") ++shed;
      if (code == "deadline_exceeded") ++deadline;
      return;
    }
    if (r.op == kReload) {
      ++reloads;
      return;
    }
    if (r.op == kWhatif || r.op == kUq || r.op == kSweep || r.op == kMinimise) {
      const bool cached = reply.find("\"cached\":true") != std::string_view::npos;
      ++lookups[cache_slot(r.op)];
      if (cached) ++hits[cache_slot(r.op)];
      if (r.op == kWhatif) {
        const std::size_t begin = reply.find("\"result\":{");
        const std::size_t end = reply.find(",\"cached\":");
        const std::string body(reply.substr(begin, end - begin));
        std::string& first = whatif_body[r.key];
        if (first.empty()) {
          first = body;
        } else if (first != body) {
          ++body_mismatch;
        }
        (cached ? seen_cached : seen_fresh)[r.key] = 1;
      }
    }
  };

  // --- the open loop -----------------------------------------------------
  std::vector<Conn> conn(conns);
  std::vector<pollfd> fds(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    conn[c].fd = connect_loopback(port);
    fds[c].fd = conn[c].fd;
  }
  std::size_t next = 0, outstanding = 0, sent_count = 0;
  bool exhausted = false;
  // Closed loop: each connection's requests in schedule order.
  std::vector<std::vector<std::size_t>> queue(conns);
  std::vector<std::size_t> cursor(conns, 0);
  for (std::size_t i = 0; i < n; ++i) queue[requests[i].conn].push_back(i);
  const auto enqueue = [&](std::size_t index, double now) {
    Conn& c = conn[requests[index].conn];
    c.outbuf += requests[index].line;
    c.pending.push_back(index);
    lag[index] = now - requests[index].due_us;
    ++outstanding;
    ++sent_count;
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto now_us = [&] {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };
  const double give_up_us = seconds * 1e6 + 5e6;
  char buffer[1 << 16];
  while ((next < n || outstanding > 0) && now_us() < give_up_us) {
    const double now = now_us();
    if (window == 0) {
      while (next < n && requests[next].due_us <= now) enqueue(next++, now);
    } else if (now < seconds * 1e6) {
      for (std::size_t i = 0; i < conns; ++i) {
        while (conn[i].pending.size() < window) {
          if (cursor[i] == queue[i].size()) {
            exhausted = true;
            break;
          }
          const std::size_t index = queue[i][cursor[i]++];
          requests[index].due_us = now;
          enqueue(index, now);
        }
      }
    } else {
      next = n;  // closed loop over: stop sending, drain
    }
    for (std::size_t i = 0; i < conns; ++i) {
      Conn& c = conn[i];
      if (c.out_sent < c.outbuf.size()) {
        const ssize_t sent =
            send(c.fd, c.outbuf.data() + c.out_sent,
                 c.outbuf.size() - c.out_sent, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (sent > 0) c.out_sent += static_cast<std::size_t>(sent);
        if (c.out_sent == c.outbuf.size()) {
          c.outbuf.clear();
          c.out_sent = 0;
        }
      }
      fds[i].events = POLLIN;
    }
    // Open loop: never sleep, since a sleeping sender wakes late on a busy
    // host and lateness is lag; the generator owns one core and polls.
    // The closed loop has no schedule to keep and waits for replies.
    timespec timeout{0, window == 0 ? 0L : 1'000'000L};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < conns; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conn[i];
      const ssize_t got = recv(c.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (got <= 0) {
        transport += c.pending.size();
        outstanding -= c.pending.size();
        c.pending.clear();
        fds[i].fd = -1;
        continue;
      }
      const double arrived = now_us();
      c.inbuf.append(buffer, static_cast<std::size_t>(got));
      std::size_t begin = 0;
      for (std::size_t nl; (nl = c.inbuf.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        if (c.pending.empty()) {
          ++id_mismatch;
          continue;
        }
        const std::size_t index = c.pending.front();
        c.pending.pop_front();
        --outstanding;
        latency[index] = arrived - requests[index].due_us;
        on_reply(index, std::string_view(c.inbuf).substr(begin, nl - begin));
      }
      c.inbuf.erase(0, begin);
    }
  }
  for (Conn& c : conn) {
    transport += c.pending.size();
    close(c.fd);
  }

  // --- post-run reference check of every what-if key seen --------------
  std::uint64_t reference_mismatch = 0, keys_seen = 0, keys_both = 0;
  const hmdiv::core::Extrapolator reference(inputs.model, inputs.trial);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    if (whatif_body[k].empty()) continue;
    ++keys_seen;
    if (seen_cached[k] != 0 && seen_fresh[k] != 0) ++keys_both;
    hmdiv::core::Scenario scenario;
    scenario.reader_failure_factor = reader_factor(k);
    scenario.machine_failure_factor = machine_factor(k);
    scenario.profile = inputs.field;
    const auto want = reference.evaluate(scenario);
    const std::string_view body = whatif_body[k];
    const double got[] = {number_after(body, "system_failure"),
                          number_after(body, "machine_failure"),
                          number_after(body, "failure_floor"),
                          number_after(body, "floor"),
                          number_after(body, "mean_field"),
                          number_after(body, "covariance")};
    const double expect[] = {want.system_failure, want.machine_failure,
                             want.failure_floor, want.decomposition.floor,
                             want.decomposition.mean_field,
                             want.decomposition.covariance};
    for (int i = 0; i < 6; ++i) {
      if (got[i] != expect[i]) {
        ++reference_mismatch;
        break;
      }
    }
  }

  std::ofstream out(args["--out"], std::ios::binary);
  for (std::size_t i = 0; i < n; ++i) {
    const Op op = requests[i].op;
    const double row[4] = {
        op == kReload ? 2.0 : (op == kUq || op == kSweep || op == kMinimise)
                                  ? 1.0
                                  : 0.0,
        requests[i].due_us, latency[i], lag[i]};
    out.write(reinterpret_cast<const char*>(row), sizeof(row));
  }

  std::printf(
      "{\"attempted\":%zu,\"schedule_exhausted\":%s,\"failed\":%llu,\"transport_errors\":%llu,"
      "\"id_mismatch\":%llu,\"body_mismatch\":%llu,"
      "\"reference_mismatch\":%llu,\"keys_seen\":%llu,"
      "\"keys_cached_and_fresh\":%llu,\"reloads\":%llu,\"shed\":%llu,"
      "\"deadline_exceeded\":%llu,\"lookups\":{\"whatif\":%llu,\"uq\":%llu,"
      "\"sweep\":%llu,\"minimise\":%llu},\"hits\":{\"whatif\":%llu,"
      "\"uq\":%llu,\"sweep\":%llu,\"minimise\":%llu}}\n",
      sent_count, exhausted ? "true" : "false",
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(transport),
      static_cast<unsigned long long>(id_mismatch),
      static_cast<unsigned long long>(body_mismatch),
      static_cast<unsigned long long>(reference_mismatch),
      static_cast<unsigned long long>(keys_seen),
      static_cast<unsigned long long>(keys_both),
      static_cast<unsigned long long>(reloads),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline),
      static_cast<unsigned long long>(lookups[0]),
      static_cast<unsigned long long>(lookups[1]),
      static_cast<unsigned long long>(lookups[2]),
      static_cast<unsigned long long>(lookups[3]),
      static_cast<unsigned long long>(hits[0]),
      static_cast<unsigned long long>(hits[1]),
      static_cast<unsigned long long>(hits[2]),
      static_cast<unsigned long long>(hits[3]));
  for (const auto& [code, count] : errors) {
    std::cerr << "perfbench_load: " << count << " replies failed with "
              << code << "\n";
  }
  return 0;
}

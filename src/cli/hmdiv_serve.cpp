// hmdiv_serve — long-running analysis daemon over a TCP socket.
//
// Usage:
//   hmdiv_serve --model MODEL_FILE --trial PROFILE_FILE --field PROFILE_FILE
//               [--bind IPV4:PORT] [--port N] [--threads N]
//   hmdiv_serve --example [--port N] ...
//
// Protocol: newline-delimited JSON (one request object per line; see
// DESIGN.md §13). Endpoints: analyze, whatif, sweep, minimise, uq,
// compare, health, metrics, reload, shard (the last upgrades the
// connection to the binary cluster-worker protocol, DESIGN.md §15).
//
// The daemon prints exactly one "listening on <address>:<port>" line to
// stdout once the socket is bound (--port 0 binds an ephemeral port and
// reports the real one), then serves until SIGTERM/SIGINT. On signal it
// stops accepting, answers every fully received request, closes every
// connection and exits 0.
#include <arpa/inet.h>

#include <csignal>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "cli/parse_util.hpp"
#include "core/model_io.hpp"
#include "core/paper_example.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty_shard.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/trial_shard.hpp"

namespace {

using namespace hmdiv;

constexpr const char* kBindForm = "IPV4:PORT";

[[noreturn]] void usage(int exit_code) {
  std::cerr
      << "usage: hmdiv_serve --model FILE --trial FILE --field FILE\n"
         "                   [--bind IPV4:PORT] [--port N] [--threads N]\n"
         "       hmdiv_serve --example [--port N] ...\n"
         "\n"
         "Serves the analysis endpoints (analyze, whatif, sweep, minimise,\n"
         "uq, compare, health, metrics, reload) over a newline-delimited\n"
         "JSON TCP protocol.\n"
         "--bind IPV4:PORT sets the listen address and port (default\n"
         "127.0.0.1:0). --port N sets the port alone (0 = ephemeral; the\n"
         "bound port is printed on startup).\n"
         "--threads N is the per-request compute thread budget (default\n"
         "1; requests are already parallel across connections).\n";
  std::exit(exit_code);
}

serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_path;
  std::string trial_path;
  std::string field_path;
  bool example = false;
  serve::ServiceOptions service_options;
  serve::ServerOptions server_options;

  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model") {
      model_path = next(i);
    } else if (arg == "--trial") {
      trial_path = next(i);
    } else if (arg == "--field") {
      field_path = next(i);
    } else if (arg == "--example") {
      example = true;
    } else if (arg == "--port") {
      server_options.port = static_cast<std::uint16_t>(cli::parse_bounded_ulong(
          "hmdiv_serve", "--port", next(i), 0, 65535));
    } else if (arg == "--bind") {
      // The server binds an AF_INET socket: a bracketed literal, an IPv6
      // address or a hostname is rejected here, not at bind time.
      const std::string value = next(i);
      cli::HostPort bind =
          cli::parse_host_port("hmdiv_serve", "--bind", value, kBindForm);
      in_addr ipv4{};
      if (value.front() == '[' ||
          ::inet_pton(AF_INET, bind.host.c_str(), &ipv4) != 1) {
        cli::reject_address("hmdiv_serve", "--bind", kBindForm, value);
      }
      server_options.bind_address = std::move(bind.host);
      server_options.port = bind.port;
    } else if (arg == "--threads") {
      service_options.compute_threads =
          static_cast<unsigned>(cli::parse_bounded_ulong(
              "hmdiv_serve", "--threads", next(i), 1, 4096));
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "hmdiv_serve: unknown flag '" << arg << "'\n";
      usage(2);
    }
  }

  if (!example && (model_path.empty() || trial_path.empty() ||
                   field_path.empty())) {
    usage(2);
  }

  obs::set_enabled(true);

  // Anchor the shard-workload translation units (static registrations in
  // static libraries are dead-stripped unless something in the executable
  // references them) so the "shard" endpoint can serve every workload.
  sim::ensure_trial_shard_registered();
  core::ensure_tradeoff_shard_registered();
  core::ensure_uncertainty_shard_registered();

  std::optional<serve::Service> service;
  try {
    if (example) {
      service.emplace(core::paper::example_model(),
                      core::paper::trial_profile(),
                      core::paper::field_profile(), service_options);
    } else {
      // One statement per file, so the files are read and checked in
      // flag order.
      const auto read = [](const std::string& path) {
        return cli::read_file("hmdiv_serve", path);
      };
      core::SequentialModel model =
          core::parse_sequential_model(read(model_path));
      core::DemandProfile trial = core::parse_demand_profile(read(trial_path));
      core::DemandProfile field = core::parse_demand_profile(read(field_path));
      service.emplace(std::move(model), std::move(trial), std::move(field),
                      service_options);
    }
  } catch (const std::exception& e) {
    std::cerr << "hmdiv_serve: " << e.what() << "\n";
    return 2;
  }

  serve::Server server(*service, server_options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "hmdiv_serve: " << e.what() << "\n";
    return 2;
  }
  g_server = &server;

  struct sigaction action{};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: the accept/connection poll loops observe shutdown via
  // the wake pipe, not via EINTR, so restart semantics are irrelevant —
  // but leaving it off exercises the EINTR-retry paths.
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::cout << "hmdiv_serve: listening on " << server_options.bind_address
            << ":" << server.port() << std::endl;

  server.wait();
  g_server = nullptr;
  std::cout << "hmdiv_serve: drained, exiting\n";
  return 0;
}

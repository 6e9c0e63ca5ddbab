// Shared hardened option parsing and input-file reading for the hmdiv
// command-line tools.
//
// Every integer-valued flag across the CLIs wants the same rejection
// table: empty values, leading/trailing garbage ("2x" must not pass as
// 2), negatives (strtoul silently wraps them into huge values), overflow
// (ERANGE) and out-of-range counts all exit 2 with a message that names
// the flag, the accepted range AND the offending value — hmdiv_analyze
// used to carry four near-identical copies of this logic, which is
// exactly how the error messages drifted. One helper, one message shape.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

namespace hmdiv::cli {

/// Parses `value` as an unsigned decimal integer in [lo, hi]. On any
/// violation prints
///   <program>: <flag> expects an integer in [<lo>, <hi>], got '<value>'
/// to stderr and exits 2 — malformed input must never silently
/// misconfigure a run (or a long-lived server).
[[nodiscard]] inline unsigned long parse_bounded_ulong(
    const char* program, const char* flag, const std::string& value,
    unsigned long lo, unsigned long hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
  // strtoul accepts leading whitespace and '-'; neither is a sane spelling
  // of a count, and "-1" would otherwise wrap to ULONG_MAX and be caught
  // only when hi is small. Reject any value that does not start with a
  // digit outright.
  const bool starts_with_digit =
      !value.empty() && value.front() >= '0' && value.front() <= '9';
  if (!starts_with_digit || end != value.c_str() + value.size() ||
      errno == ERANGE || parsed < lo || parsed > hi) {
    std::cerr << program << ": " << flag << " expects an integer in [" << lo
              << ", " << hi << "], got '" << value << "'\n";
    std::exit(2);
  }
  return parsed;
}

/// Returns the whole text of the file at `path`. If it cannot be opened,
/// prints
///   <program>: cannot open '<path>'
/// to stderr and exits 2.
[[nodiscard]] inline std::string read_file(const char* program,
                                           const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << program << ": cannot open '" << path << "'\n";
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A parsed "host:port" endpoint. `host` keeps the textual form handed to
/// getaddrinfo later (IPv6 literals without the brackets).
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Prints
///   <program>: <flag> expects <form>, got '<value>'
/// to stderr and exits 2. `form` spells the addresses the flag accepts.
[[noreturn]] inline void reject_address(const char* program, const char* flag,
                                        const char* form,
                                        const std::string& value) {
  std::cerr << program << ": " << flag << " expects " << form << ", got '"
            << value << "'\n";
  std::exit(2);
}

/// Parses `value` as "HOST:PORT" or "[IPV6]:PORT" (the bracketed form is
/// required for IPv6 literals — a bare one is ambiguous with the port
/// separator). Port 0 is accepted: it means "ephemeral" in bind contexts
/// (callers that need a connectable port reject 0 themselves, naming the
/// element). On any violation it calls reject_address with `form`, the
/// spelling the caller accepts: hmdiv_analyze --workers resolves HOST
/// through getaddrinfo and passes "HOST:PORT or [IPV6]:PORT", while
/// hmdiv_serve --bind, which binds an IPv4 address only
/// (serve::ServerOptions::bind_address), passes "IPV4:PORT" and checks
/// the host itself. The same fail-fast contract as parse_bounded_ulong,
/// so the two tools can never drift on what an address is.
[[nodiscard]] inline HostPort parse_host_port(const char* program,
                                              const char* flag,
                                              const std::string& value,
                                              const char* form) {
  const auto reject = [&]() -> HostPort {
    reject_address(program, flag, form, value);
  };
  std::string host;
  std::string port_text;
  if (!value.empty() && value.front() == '[') {
    const std::size_t close = value.find(']');
    if (close == std::string::npos || close == 1 ||
        close + 1 >= value.size() || value[close + 1] != ':') {
      return reject();
    }
    host = value.substr(1, close - 1);
    port_text = value.substr(close + 2);
  } else {
    const std::size_t colon = value.find(':');
    // A second colon means an unbracketed IPv6 literal (or garbage);
    // require the bracketed form so "::1:8080" can't parse as host "::1".
    if (colon == std::string::npos || colon == 0 ||
        value.find(':', colon + 1) != std::string::npos) {
      return reject();
    }
    host = value.substr(0, colon);
    port_text = value.substr(colon + 1);
  }
  const bool digits_only =
      !port_text.empty() &&
      port_text.find_first_not_of("0123456789") == std::string::npos;
  if (!digits_only) return reject();
  errno = 0;
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end != port_text.c_str() + port_text.size() || errno == ERANGE ||
      port > 65535) {
    return reject();
  }
  return HostPort{std::move(host), static_cast<std::uint16_t>(port)};
}

}  // namespace hmdiv::cli

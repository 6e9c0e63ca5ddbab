// serve layer adapter: the only place the benchmark calls into src/serve
// in process (the daemon itself is driven over its socket).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "adapters/core.hpp"
#include "adapters/trace.hpp"
#include "exec/workspace.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

namespace perfbench::serve_layer {

/// A Service with the daemon's default options over `in`.
inline std::unique_ptr<hmdiv::serve::Service> make_service(
    const core_layer::Inputs& in) {
  return std::make_unique<hmdiv::serve::Service>(in.model, in.trial, in.field);
}

/// One request line through the dispatcher; `out` receives the response.
inline void handle(hmdiv::serve::Service& service, std::string_view line,
                   hmdiv::serve::RequestScratch& scratch, std::string& out,
                   const char* span_name = "serve.handle") {
  trace::Span span(span_name);
  out.clear();
  service.handle_line(line, scratch, out);
}

/// A `reload` request line carrying the three input texts.
inline std::string reload_request(std::size_t id, const std::string& model,
                                  const std::string& trial,
                                  const std::string& field) {
  std::string line = "{\"op\":\"reload\",\"id\":" + std::to_string(id) +
                     ",\"params\":{\"model\":\"";
  hmdiv::serve::append_json_escaped(line, model);
  line += "\",\"trial\":\"";
  hmdiv::serve::append_json_escaped(line, trial);
  line += "\",\"field\":\"";
  hmdiv::serve::append_json_escaped(line, field);
  line += "\"}}";
  return line;
}

/// Parses one request line with the protocol's JSON parser; true on
/// success.
inline bool parse(hmdiv::serve::JsonParser& parser, std::string_view line) {
  hmdiv::exec::Workspace& workspace = hmdiv::exec::thread_workspace();
  const hmdiv::exec::Workspace::Scope scope(workspace);
  trace::Span span("serve.parse");
  return parser.parse(line, workspace).value != nullptr;
}

}  // namespace perfbench::serve_layer

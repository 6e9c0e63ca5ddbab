// Replays a newline-delimited JSON request script through
// serve::Service::handle_line, the daemon's transport-free dispatcher, on
// the bundle `hmdiv_serve --example` serves (the paper's Section-5 model
// and profiles), and prints each reply line in script order. Blank lines
// are skipped, as the socket server skips them.
//
//   serve_script tests/golden/hmdiv_serve_requests.ndjson
//
// The ctest serve_example_replies compares this stdout with
// tests/golden/hmdiv_serve_replies.txt byte for byte.
#include <fstream>
#include <iostream>
#include <string>

#include "core/paper_example.hpp"
#include "obs/obs.hpp"
#include "serve/service.hpp"

int main(int argc, char** argv) {
  using namespace hmdiv;
  if (argc != 2) {
    std::cerr << "usage: serve_script REQUESTS_FILE\n";
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "serve_script: cannot open '" << argv[1] << "'\n";
    return 2;
  }
  obs::set_enabled(true);  // as in hmdiv_serve
  serve::Service service(core::paper::example_model(),
                         core::paper::trial_profile(),
                         core::paper::field_profile());
  serve::RequestScratch scratch;
  std::string reply;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    reply.clear();
    service.handle_line(line, scratch, reply);
    std::cout << reply;
  }
  return 0;
}

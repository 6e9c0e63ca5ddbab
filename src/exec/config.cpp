#include "exec/config.hpp"

#include <thread>

namespace hmdiv::exec {

unsigned Config::resolved_threads() const noexcept {
  if (threads != 0) return threads;
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace hmdiv::exec

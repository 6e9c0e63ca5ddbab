#include "report/profile.hpp"

#include <sstream>

#include "report/csv.hpp"
#include "report/format.hpp"
#include "report/table.hpp"

namespace hmdiv::report {

namespace {

/// Nanoseconds to a fixed-point microsecond string.
std::string us(std::uint64_t ns) {
  return fixed(static_cast<double>(ns) / 1e3, 1);
}

std::string count_string(std::uint64_t n) {
  return with_thousands(static_cast<long long>(n));
}

}  // namespace

std::string profile_table(const obs::Snapshot& snapshot) {
  if (snapshot.empty()) {
    return "profile: registry is empty (was profiling enabled?)\n";
  }
  std::ostringstream out;
  if (!snapshot.counters.empty()) {
    Table counters({"counter", "value"});
    counters.caption("Registry counters");
    for (const auto& c : snapshot.counters) {
      counters.row({c.name, count_string(c.value)});
    }
    out << counters << '\n';
  }
  if (!snapshot.histograms.empty()) {
    Table timers({"timer", "count", "total ms", "mean us", "p50 us",
                  "p90 us", "p99 us", "p99.9 us", "max us"});
    timers.caption("Registry histograms (timings)");
    for (const auto& h : snapshot.histograms) {
      const double mean_ns =
          h.count == 0 ? 0.0
                       : static_cast<double>(h.sum) /
                             static_cast<double>(h.count);
      timers.row({h.name, count_string(h.count),
                  fixed(static_cast<double>(h.sum) / 1e6, 2),
                  fixed(mean_ns / 1e3, 1),
                  us(obs::snapshot_quantile(h, 0.50)),
                  us(obs::snapshot_quantile(h, 0.90)),
                  us(obs::snapshot_quantile(h, 0.99)),
                  us(obs::snapshot_quantile(h, 0.999)), us(h.max)});
    }
    out << timers << '\n';
  }
  return out.str();
}

void write_profile_csv(std::ostream& os, const obs::Snapshot& snapshot) {
  CsvWriter csv(os);
  csv.row({"kind", "name", "count", "sum_ns", "min_ns", "max_ns", "p50_ns",
           "p90_ns", "p99_ns", "p999_ns"});
  for (const auto& c : snapshot.counters) {
    csv.row({"counter", c.name, std::to_string(c.value), "", "", "", "", "",
             "", ""});
  }
  for (const auto& h : snapshot.histograms) {
    csv.row({"histogram", h.name, std::to_string(h.count),
             std::to_string(h.sum), std::to_string(h.min),
             std::to_string(h.max),
             std::to_string(obs::snapshot_quantile(h, 0.50)),
             std::to_string(obs::snapshot_quantile(h, 0.90)),
             std::to_string(obs::snapshot_quantile(h, 0.99)),
             std::to_string(obs::snapshot_quantile(h, 0.999))});
  }
}

}  // namespace hmdiv::report

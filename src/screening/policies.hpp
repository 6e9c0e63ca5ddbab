// Reading policies: how humans (and optionally a CADT) are organised to
// produce the recall decision for one screened case.
//
// These are the programme alternatives of the paper's Conclusions: single
// reading, single reading with CADT, UK-style double reading (recall if
// either reader recalls), double reading with arbitration, two readers with
// a shared CADT, and less-qualified readers with a CADT. Each policy works
// on both cancer and healthy cases, so programme-level sensitivity *and*
// specificity come out of the same simulation.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/cadt.hpp"
#include "sim/case.hpp"
#include "sim/reader.hpp"
#include "stats/rng.hpp"

namespace hmdiv::screening {

/// Interface: decide recall for one case.
class ReadingPolicy {
 public:
  virtual ~ReadingPolicy() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  /// True if this policy runs the case through a CADT (for costing).
  [[nodiscard]] virtual bool uses_cadt() const = 0;
  /// Average number of human readings per case (arbitration policies
  /// report their expected value including the arbiter's share).
  [[nodiscard]] virtual double readings_per_case() const = 0;
  /// The recall decision.
  [[nodiscard]] virtual bool decide_recall(const sim::Case& c,
                                           stats::Rng& rng) = 0;
};

namespace detail {
/// One reader's recall vote on a case, optionally knowing the CADT prompt.
[[nodiscard]] bool reader_votes_recall(const sim::ReaderModel& reader,
                                       const sim::Case& c, bool prompted,
                                       stats::Rng& rng);
}  // namespace detail

/// A single reader, no CADT. It reads as the reader does with no reliance
/// on a machine (a zero-reliance copy, made once).
class SingleReaderPolicy final : public ReadingPolicy {
 public:
  explicit SingleReaderPolicy(const sim::ReaderModel& reader,
                              std::string name = "single reader");
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] bool uses_cadt() const override { return false; }
  [[nodiscard]] double readings_per_case() const override { return 1.0; }
  [[nodiscard]] bool decide_recall(const sim::Case& c,
                                   stats::Rng& rng) override;

 private:
  sim::ReaderModel reader_;
  std::string name_;
};

/// A single reader assisted by a CADT (the paper's case study).
class ReaderWithCadtPolicy final : public ReadingPolicy {
 public:
  ReaderWithCadtPolicy(sim::ReaderModel reader, sim::CadtModel cadt,
                       std::string name = "reader + CADT");
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] bool uses_cadt() const override { return true; }
  [[nodiscard]] double readings_per_case() const override { return 1.0; }
  [[nodiscard]] bool decide_recall(const sim::Case& c,
                                   stats::Rng& rng) override;

 private:
  sim::ReaderModel reader_;
  sim::CadtModel cadt_;
  std::string name_;
};

/// Two readers; recall iff either recalls. Optional arbiter: when the two
/// disagree, the arbiter's own reading decides instead. No CADT, so every
/// reader reads as a zero-reliance copy, made once.
class DoubleReadingPolicy final : public ReadingPolicy {
 public:
  DoubleReadingPolicy(
      const sim::ReaderModel& reader_a, const sim::ReaderModel& reader_b,
      const std::optional<sim::ReaderModel>& arbiter = std::nullopt,
      std::string name = "double reading");
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] bool uses_cadt() const override { return false; }
  [[nodiscard]] double readings_per_case() const override;
  [[nodiscard]] bool decide_recall(const sim::Case& c,
                                   stats::Rng& rng) override;

 private:
  sim::ReaderModel reader_a_;
  sim::ReaderModel reader_b_;
  std::optional<sim::ReaderModel> arbiter_;
  std::string name_;
  std::uint64_t cases_seen_ = 0;
  std::uint64_t arbitrations_ = 0;
};

/// Two readers, both seeing the same CADT prompts; recall iff either
/// recalls.
class TwoReadersWithCadtPolicy final : public ReadingPolicy {
 public:
  TwoReadersWithCadtPolicy(sim::ReaderModel reader_a,
                           sim::ReaderModel reader_b, sim::CadtModel cadt,
                           std::string name = "two readers + CADT");
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] bool uses_cadt() const override { return true; }
  [[nodiscard]] double readings_per_case() const override { return 2.0; }
  [[nodiscard]] bool decide_recall(const sim::Case& c,
                                   stats::Rng& rng) override;

 private:
  sim::ReaderModel reader_a_;
  sim::ReaderModel reader_b_;
  sim::CadtModel cadt_;
  std::string name_;
};

/// The standard policy suite compared by the programme bench: built around
/// a baseline reader/CADT; the "less qualified" variants use
/// `low_skill_factor` (< 1) on the reader's skill.
[[nodiscard]] std::vector<std::unique_ptr<ReadingPolicy>> standard_policies(
    const sim::ReaderModel& reader, const sim::CadtModel& cadt,
    double low_skill_factor = 0.6);

}  // namespace hmdiv::screening

// The benchmark's traffic source. A FleetGenerator (seeded from the
// workload seed) builds its template pool through the real PHY pipeline;
// StreamPlan then finds which distinct template every (station, round)
// report uses, keeps one pre-encoded wire frame per template, and writes
// each report by copying that frame and patching the station MAC and
// timestamp at their payload offsets (net/protocol.h). The stream itself
// is never materialized: a report is a (station, round) pair, and its
// bytes are produced when it is sent.
//
// The timestamp doubles as the report id: report `seq` carries
// timestamp seq * kTickS, so every callback that sees a report (ingest,
// verdict, completion) can recover its id without a side table keyed by
// anything the server could alter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "capture/monitor.h"
#include "serving/fleet.h"

namespace wirebench {

inline constexpr double kTickS = 1e-4;
inline double timestamp_of(std::uint64_t seq) {
  return static_cast<double>(seq) * kTickS;
}
std::uint64_t seq_of(double timestamp_s);

class StreamPlan {
 public:
  explicit StreamPlan(const deepcsi::serving::FleetConfig& cfg);

  std::uint64_t stations() const { return stations_; }
  std::size_t num_templates() const { return templates_.size(); }
  // The template's report as FleetGenerator produced it (station MAC and
  // timestamp of its first occurrence).
  const deepcsi::capture::ObservedFeedback& template_report(
      std::size_t t) const {
    return templates_[t];
  }

  // Template of station `station`'s report in round `round`; rounds
  // cycle through the generator's reports_per_station.
  std::uint16_t template_of(std::uint64_t station, std::uint64_t round) const {
    return tids_[station * rounds_ + round % rounds_];
  }

  // The wire frame of template `tid` sent by `station` as report `seq`.
  void write_frame(std::uint16_t tid, std::uint64_t station, std::uint64_t seq,
                   std::vector<std::uint8_t>& out) const;

 private:
  std::uint64_t stations_ = 0;
  std::size_t rounds_ = 0;
  std::vector<std::uint16_t> tids_;  // [station * rounds_ + round]
  std::vector<deepcsi::capture::ObservedFeedback> templates_;
  std::vector<std::vector<std::uint8_t>> frames_;
};

}  // namespace wirebench

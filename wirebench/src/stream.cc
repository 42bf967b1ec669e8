#include "stream.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "common/hash.h"
#include "common/parallel.h"
#include "net/protocol.h"

namespace wirebench {

using namespace deepcsi;

namespace {

// Payload offsets of the patched fields (net/protocol.h, kFeedbackReport):
// mac station[6] at 0, mac beamformer[6] at 6, f64 timestamp_s at 12.
constexpr std::size_t kStationOffset = net::kHeaderBytes + 0;
constexpr std::size_t kTimestampOffset = net::kHeaderBytes + 12;

// Identity of a template: everything on the wire except the station MAC
// and the timestamp.
std::uint64_t template_hash(const capture::ObservedFeedback& obs) {
  std::uint64_t h = common::mix64(obs.beamformer.to_u64());
  const auto add = [&h](std::uint64_t v) { h = common::mix64(h ^ v); };
  const feedback::CompressedFeedbackReport& r = obs.report;
  add(static_cast<std::uint64_t>(r.m) << 32 | static_cast<std::uint32_t>(r.nss));
  add(static_cast<std::uint64_t>(r.quant.b_phi) << 32 |
      static_cast<std::uint32_t>(r.quant.b_psi));
  for (int k : r.subcarriers) add(static_cast<std::uint32_t>(k));
  for (const feedback::QuantizedAngles& q : r.per_subcarrier) {
    for (std::uint16_t v : q.q_phi) add(v);
    for (std::uint16_t v : q.q_psi) add(0x10000u | v);
  }
  return h;
}

}  // namespace

std::uint64_t seq_of(double timestamp_s) {
  return static_cast<std::uint64_t>(std::llround(timestamp_s / kTickS));
}

StreamPlan::StreamPlan(const serving::FleetConfig& cfg)
    : stations_(cfg.stations), rounds_(cfg.reports_per_station) {
  const serving::FleetGenerator gen(cfg);
  const std::size_t n = static_cast<std::size_t>(stations_) * rounds_;
  std::vector<std::uint64_t> hashes(n);
  common::parallel_for(0, n, 256, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      hashes[i] = template_hash(gen.report(i / rounds_, i % rounds_));
  });

  std::unordered_map<std::uint64_t, std::uint16_t> ids;
  tids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, fresh] =
        ids.emplace(hashes[i], static_cast<std::uint16_t>(templates_.size()));
    if (fresh) {
      if (templates_.size() == std::numeric_limits<std::uint16_t>::max())
        throw std::runtime_error("stream plan: too many distinct templates");
      templates_.push_back(gen.report(i / rounds_, i % rounds_));
      frames_.push_back(net::encode_report_frame(templates_.back()));
    }
    tids_[i] = it->second;
  }
}

void StreamPlan::write_frame(std::uint16_t tid, std::uint64_t station,
                             std::uint64_t seq,
                             std::vector<std::uint8_t>& out) const {
  const std::vector<std::uint8_t>& frame = frames_[tid];
  out.assign(frame.begin(), frame.end());
  const capture::MacAddress mac = capture::MacAddress::for_fleet_station(station);
  std::memcpy(out.data() + kStationOffset, mac.octets.data(), mac.octets.size());
  std::uint64_t bits = 0;
  const double ts = timestamp_of(seq);
  std::memcpy(&bits, &ts, sizeof bits);
  for (int b = 0; b < 8; ++b)
    out[kTimestampOffset + b] = static_cast<std::uint8_t>(bits >> (8 * b));
}

}  // namespace wirebench

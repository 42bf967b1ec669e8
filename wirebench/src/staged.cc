#include "staged.h"

#include <bit>
#include <map>
#include <span>
#include <stdexcept>

#include "dataset/features.h"
#include "feedback/bitpack.h"
#include "net/protocol.h"
#include "nn/infer.h"
#include "serving/session_table.h"

namespace wirebench {

using namespace deepcsi;

namespace {

// Enough reports per pass for a stable median at paper scale without
// stretching the traced run by more than a few seconds.
constexpr std::size_t kReportsPerPass = 1024;
constexpr std::size_t kMinBatches = 8;

bool same_angles(const feedback::CompressedFeedbackReport& a,
                 const feedback::CompressedFeedbackReport& b) {
  if (a.per_subcarrier.size() != b.per_subcarrier.size()) return false;
  for (std::size_t k = 0; k < a.per_subcarrier.size(); ++k)
    if (a.per_subcarrier[k].q_phi != b.per_subcarrier[k].q_phi ||
        a.per_subcarrier[k].q_psi != b.per_subcarrier[k].q_psi)
      return false;
  return true;
}

}  // namespace

StagedResult run_staged(const Workload& w, const StreamPlan& plan,
                        const Artifact& artifact,
                        const core::Authenticator& auth,
                        std::size_t small_batch, std::size_t live_batch,
                        SpanLog& log) {
  const std::size_t channels =
      static_cast<std::size_t>(dataset::num_input_channels(artifact.spec));
  const std::size_t width = dataset::num_input_columns(artifact.spec);
  const std::size_t sample = channels * width;
  nn::InferenceContext ctx(auth.shared_model(), {channels, 1, width},
                           core::Authenticator::kContextBatch);
  std::vector<std::vector<std::uint8_t>> packed;
  for (std::size_t t = 0; t < plan.num_templates(); ++t)
    packed.push_back(feedback::pack_report(plan.template_report(t).report));

  // One round of every station first, so the timed records meet the live
  // run's steady state: updates of resident stations on the paper
  // workloads, inserts plus LRU evictions on fleet_churn.
  serving::SessionTable table(service_config(w).sessions);
  const std::uint64_t stations = plan.stations();
  std::uint64_t pos = 0;
  for (; pos < stations; ++pos)
    table.record(capture::MacAddress::for_fleet_station(pos),
                 artifact.reference[plan.template_of(pos, 0)],
                 timestamp_of(pos));

  SpanLog::Buffer spans;
  std::uint64_t next_id = std::uint64_t{1} << 62;
  StagedResult result;

  const auto pass = [&](std::size_t batch) {
    StagedCosts costs;
    costs.batch = batch;
    const std::size_t batches =
        std::max(kMinBatches, (kReportsPerPass + batch - 1) / batch);
    costs.reports = batches * batch;
    std::vector<std::vector<std::uint8_t>> frames(batch);
    std::vector<std::uint16_t> tids(batch);
    std::vector<std::uint64_t> seqs(batch);
    std::vector<feedback::CompressedFeedbackReport> reports(batch);
    std::vector<feedback::CompressedFeedbackReport> unpacked(batch);
    std::vector<core::Authenticator::Prediction> preds(batch);
    std::map<SpanName, std::vector<double>> per_report_us;

    for (std::size_t b = 0; b < batches; ++b) {
      for (std::size_t i = 0; i < batch; ++i, ++pos) {
        const std::uint64_t station = pos % stations;
        tids[i] = plan.template_of(station, pos / stations);
        seqs[i] = pos;
        plan.write_frame(tids[i], station, pos, frames[i]);
      }
      const std::uint64_t root = next_id++;
      const std::int64_t root_start = now_ns();
      std::int64_t t0 = root_start;
      const auto child = [&](SpanName name) {
        const std::int64_t t1 = now_ns();
        spans.push_back({next_id++, root, b, t0, t1, name});
        per_report_us[name].push_back(static_cast<double>(t1 - t0) / 1e3 /
                                      static_cast<double>(batch));
        t0 = t1;
      };

      // Both decode and unpack build reports of many small vectors; the
      // previous batch's are freed before each timed loop, never inside.
      for (feedback::CompressedFeedbackReport& r : reports) r = {};
      t0 = now_ns();
      for (std::size_t i = 0; i < batch; ++i) {
        auto obs = net::decode_report(std::span<const std::uint8_t>(
            frames[i].data() + net::kHeaderBytes,
            frames[i].size() - net::kHeaderBytes));
        if (!obs) throw std::runtime_error("staged: frame failed to decode");
        reports[i] = std::move(obs->report);
      }
      child(SpanName::kDecode);

      for (feedback::CompressedFeedbackReport& u : unpacked) u = {};
      t0 = now_ns();
      for (std::size_t i = 0; i < batch; ++i) {
        const feedback::CompressedFeedbackReport& r =
            plan.template_report(tids[i]).report;
        unpacked[i] = feedback::unpack_report(packed[tids[i]], r.m, r.nss,
                                              r.subcarriers, r.quant);
      }
      child(SpanName::kUnpack);
      for (std::size_t i = 0; i < batch; ++i)
        if (!same_angles(unpacked[i], reports[i]))
          throw std::runtime_error("staged: unpack disagrees with decode");

      for (std::size_t i = 0; i < batch; ++i)
        dataset::fill_features(reports[i], artifact.spec,
                               ctx.input() + i * sample);
      child(SpanName::kFeatures);
      ctx.run(batch);
      child(SpanName::kForward);
      auth.classify_batch_into(std::span(reports.data(), batch),
                               std::span(preds.data(), batch));
      child(SpanName::kClassify);
      for (std::size_t i = 0; i < batch; ++i)
        table.record(capture::MacAddress::for_fleet_station(seqs[i] % stations),
                     preds[i], timestamp_of(seqs[i]));
      child(SpanName::kRecord);
      spans.push_back({root, kNoParent, b, root_start, t0, SpanName::kStageBatch});

      for (std::size_t i = 0; i < batch; ++i) {
        const core::Authenticator::Prediction& ref =
            artifact.reference[tids[i]];
        if (preds[i].module_id != ref.module_id ||
            std::bit_cast<std::uint64_t>(preds[i].confidence) !=
                std::bit_cast<std::uint64_t>(ref.confidence))
          ++result.wrong_predictions;
      }
    }
    costs.decode_us = median(per_report_us[SpanName::kDecode]);
    costs.unpack_us = median(per_report_us[SpanName::kUnpack]);
    costs.features_us = median(per_report_us[SpanName::kFeatures]);
    costs.forward_us = median(per_report_us[SpanName::kForward]);
    costs.classify_us = median(per_report_us[SpanName::kClassify]);
    costs.record_us = median(per_report_us[SpanName::kRecord]);
    return costs;
  };

  result.b64 = pass(core::Authenticator::kContextBatch);
  result.small = pass(small_batch);
  result.live = live_batch == result.b64.batch ? result.b64 : pass(live_batch);
  log.absorb(std::move(spans));
  return result;
}

}  // namespace wirebench

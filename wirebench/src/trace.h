// Span recording for the traced run. A span has a name, start, end,
// parent and report id; spans are appended to per-thread buffers (one
// writer each, no locks on the hot path), kept in memory, and written out
// when the benchmark ends together with a table of per-layer self time:
// a span's duration minus the part of it that its children cover,
// summed per layer (the span name up to its first '.').
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wirebench {

using Clock = std::chrono::steady_clock;
inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline std::int64_t now_ns() { return to_ns(Clock::now()); }

// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 for an
// empty sample. The first reorders its argument, the second a copy.
double percentile(std::vector<float>& samples, double p);
double percentile_of(std::vector<double> values, double p);
double median(std::vector<double> values);

enum class SpanName : std::uint8_t {
  // live, per report
  kReport,            // send start -> completion (root)
  kSend,              // NetClient::send_bytes
  kIngest,            // send end -> entry into the ingest submit callback
  kSubmit,            // AuthService::try_submit
  kEnqueueToVerdict,  // PendingReport::enqueued_at -> completion
  kPublish,           // VerdictPublisher::publish
  // staged, per batch
  kStageBatch,        // root
  kDecode,            // net::decode_report
  kUnpack,            // feedback::unpack_report
  kFeatures,          // dataset::fill_features
  kForward,           // nn::InferenceContext::run
  kClassify,          // Authenticator::classify_batch_into
  kRecord,            // SessionTable::record
};
const char* span_name(SpanName n);

// Live span ids are derived from the report id so a child can name its
// parent before the parent span is closed.
inline std::uint64_t live_span_id(std::uint64_t report, SpanName n) {
  return report * 8 + static_cast<std::uint64_t>(n);
}
inline constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = kNoParent;
  std::uint64_t report = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanName name = SpanName::kReport;
};

class SpanLog {
 public:
  using Buffer = std::vector<Span>;
  // A buffer owned by the log, for a thread that lives as long as the log
  // (ingest loop, lane). The caller is its only writer.
  Buffer& dedicated_buffer();
  // Moves a short-lived thread's spans in (thread-safe).
  void absorb(Buffer&& spans);

  // All spans, every buffer merged. Call once writers have stopped.
  std::vector<Span> collect() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> dedicated_;
  std::vector<Buffer> absorbed_;
};

struct LayerRow {
  std::string layer;
  std::size_t spans = 0;
  double self_ms = 0.0;
};
// Per-layer self time over `spans` (children found through `parent`).
std::vector<LayerRow> self_time_by_layer(const std::vector<Span>& spans);
std::string render_layer_table(const char* title,
                               const std::vector<LayerRow>& rows,
                               std::size_t reports);

// Writes spans as CSV (id,parent,report,name,start_ns,end_ns).
void write_spans_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace wirebench

#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace wirebench {

namespace {

template <typename T>
double nearest_rank(std::vector<T>& samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace

double percentile(std::vector<float>& samples, double p) {
  return nearest_rank(samples, p);
}

double percentile_of(std::vector<double> values, double p) {
  return nearest_rank(values, p);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double hi = values[mid];
  const double lo = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kReport: return "report";
    case SpanName::kSend: return "gen.send";
    case SpanName::kIngest: return "net.ingest";
    case SpanName::kSubmit: return "serving.submit";
    case SpanName::kEnqueueToVerdict: return "serving.enqueue_to_verdict";
    case SpanName::kPublish: return "net.publish";
    case SpanName::kStageBatch: return "gen.stage_batch";
    case SpanName::kDecode: return "net.decode";
    case SpanName::kUnpack: return "feedback.unpack";
    case SpanName::kFeatures: return "dataset.features";
    case SpanName::kForward: return "nn.forward";
    case SpanName::kClassify: return "core.classify";
    case SpanName::kRecord: return "serving.record";
  }
  return "?";
}

SpanLog::Buffer& SpanLog::dedicated_buffer() {
  std::lock_guard<std::mutex> lock(mu_);
  dedicated_.push_back(std::make_unique<Buffer>());
  return *dedicated_.back();
}

void SpanLog::absorb(Buffer&& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  absorbed_.push_back(std::move(spans));
}

std::vector<Span> SpanLog::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : dedicated_) all.insert(all.end(), b->begin(), b->end());
  for (const Buffer& b : absorbed_) all.insert(all.end(), b.begin(), b.end());
  return all;
}

std::vector<LayerRow> self_time_by_layer(const std::vector<Span>& spans) {
  // Children's intervals, clipped to the parent, grouped by parent id.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != kNoParent) children[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, LayerRow> rows;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    const std::string name = span_name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    LayerRow& row = rows[layer];
    row.layer = layer;
    ++row.spans;
    row.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

std::string render_layer_table(const char* title,
                               const std::vector<LayerRow>& rows,
                               std::size_t reports) {
  double total = 0.0;
  for (const LayerRow& r : rows) total += r.self_ms;
  std::string out = std::string(title) + "\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-10s %10s %12s %14s %7s\n", "layer",
                "spans", "self ms", "self us/report", "share");
  out += line;
  for (const LayerRow& r : rows) {
    std::snprintf(line, sizeof line, "  %-10s %10zu %12.3f %14.3f %6.1f%%\n",
                  r.layer.c_str(), r.spans, r.self_ms,
                  reports ? r.self_ms * 1e3 / static_cast<double>(reports) : 0.0,
                  total > 0.0 ? 100.0 * r.self_ms / total : 0.0);
    out += line;
  }
  return out;
}

void write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "id,parent,report,name,start_ns,end_ns\n");
  for (const Span& s : spans)
    std::fprintf(f, "%llu,%lld,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.report), span_name(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace wirebench

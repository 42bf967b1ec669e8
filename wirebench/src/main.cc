// wirebench: the wire-to-verdict benchmark of the DeepCSI serving path.
//
//   wirebench --workload paper_steady|paper_open|fleet_churn --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Builds the workload's traffic from the seed, writes a model trio, then
// cold-starts the server several times (setup_s is the median), drives
// the wire path phase by phase for S seconds and checks every output.
// --trace 0 prints the end-to-end metrics; --trace 1 runs the pipeline
// untraced and traced, then a staged per-layer replay, and prints the
// per-layer metrics (spans and a per-layer self-time table go to DIR).
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any output is wrong.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "nn/simd.h"
#include "staged.h"

namespace {

using namespace wirebench;
using namespace deepcsi;

constexpr int kSetups = 21;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_build/wirebench";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wirebench: %s\nusage: wirebench --workload "
               "paper_steady|paper_open|fleet_churn --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0 && a.seconds <= 600.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      a.trace = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown --workload");
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!have_seconds) usage("--seconds must be in (0, 600]");
  if (!have_trace) usage("--trace must be 0 or 1");
  return a;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// One pipeline run: kSetups timed cold starts (the last one serves),
// then the measured phases; the staged replay follows a traced run.
struct PipelineRun {
  std::unique_ptr<Run> run;
  std::vector<double> setup_s;
  StagedResult staged;
};

std::size_t mean_batch(const PhaseResult& p) {
  if (p.batches == 0) return 1;
  const double mean = static_cast<double>(p.items) / static_cast<double>(p.batches);
  return std::clamp<std::size_t>(static_cast<std::size_t>(mean + 0.5), 1,
                                 core::Authenticator::kContextBatch);
}

PipelineRun run_pipeline(const Workload& w, const StreamPlan& plan,
                         const Artifact& artifact, double seconds,
                         SpanLog* spans) {
  PipelineRun out;
  out.run = std::make_unique<Run>(w, plan, artifact, spans != nullptr, spans);
  const serving::ServiceConfig cfg = service_config(w);
  std::unique_ptr<Server> server;
  for (int k = 0; k < kSetups; ++k) {
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<Server>(artifact, cfg, *out.run);
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  // Plan the serving context before the clock starts, as a warm server
  // would have; the reports are templates, so no session is touched.
  std::vector<feedback::CompressedFeedbackReport> warm;
  for (std::size_t t = 0;
       t < std::min(plan.num_templates(), core::Authenticator::kContextBatch); ++t)
    warm.push_back(plan.template_report(t).report);
  (void)server->auth().classify_batch(warm);

  out.run->execute(*server, seconds);
  if (spans != nullptr)
    out.staged = run_staged(
        w, plan, artifact, server->auth(),
        mean_batch(out.run->phase("light")), mean_batch(out.run->phase("busy")),
        *spans);
  return out;
}

// Checks shared by every pipeline run; returns the failed-operation count.
std::uint64_t failed_ops(const PipelineRun& p, bool* correct) {
  const Run& run = *p.run;
  std::uint64_t failed = run.failures().total() + p.staged.wrong_predictions;
  // An "int8" run that silently ran the fp32 kernels measured the wrong
  // thing: every report it classified counts as failed.
  if (run.int8_dispatches() == 0) failed += run.classified();
  if (failed != 0) {
    *correct = false;
    std::fprintf(stderr,
                 "wirebench: FAILED operations: %s staged_wrong=%llu "
                 "int8_dispatches=%llu\n",
                 run.failures().describe().c_str(),
                 static_cast<unsigned long long>(p.staged.wrong_predictions),
                 static_cast<unsigned long long>(run.int8_dispatches()));
  }
  return failed;
}

double per_report_ms(double seconds, std::uint64_t reports) {
  return reports ? 1e3 * seconds / static_cast<double>(reports) : 0.0;
}

void end_to_end(const Run& run, const std::vector<double>& setups,
                Metrics& m) {
  const PhaseResult& light = run.phase("light");
  const PhaseResult& busy = run.phase("busy");
  // The achieved rate of the highest open-loop rung that met the limit.
  double max_rate = 0.0;
  for (const PhaseResult& p : run.phases())
    if (p.passed) max_rate = std::max(max_rate, p.rate_rps);
  m.add("setup_s", median(setups), "s");
  m.add("throughput_rps", busy.throughput_rps, "1/s");
  m.add("cpu_ms_per_report", busy.cpu_ms_per_report, "ms");
  m.add("latency_p50_ms.light", light.latency_p50_ms, "ms");
  m.add("latency_p50_ms.busy", busy.latency_p50_ms, "ms");
  m.add("max_rate_rps", max_rate, "1/s");
  m.add("rss_mb", run.rss_mb(), "MiB");
}

void per_layer(const PipelineRun& untraced, PipelineRun& traced, Metrics& m) {
  Run& run = *traced.run;
  LiveSamples& live = run.live();
  const StagedResult& st = traced.staged;
  const PhaseResult& light = run.phase("light");
  const PhaseResult& busy = run.phase("busy");

  m.add("net.ingest_ms_p50", percentile(live.ingest_ms, 50.0), "ms");
  m.add("net.decode_us", st.b64.decode_us, "us");
  m.add("net.codec_self_us", st.b64.decode_us - st.b64.unpack_us, "us");
  m.add("net.publish_us", percentile(live.publish_us, 50.0), "us");
  m.add("net.publish_frames",
        static_cast<double>(run.publisher_stats().frames_published), "count");
  m.add("net.publish_dropped",
        static_cast<double>(run.publisher_stats().frames_dropped), "count");
  m.add("net.pauses", static_cast<double>(run.ingest_stats().pauses), "count");
  m.add("feedback.unpack_us", st.b64.unpack_us, "us");
  m.add("dataset.features_us", st.b64.features_us, "us");
  m.add("nn.forward_us.b64", st.b64.forward_us, "us");
  m.add("nn.forward_us.small", st.small.forward_us, "us");
  m.add("nn.small_batch", static_cast<double>(st.small.batch), "count");
  m.add("nn.int8_dispatches_per_report",
        static_cast<double>(run.int8_dispatches()) /
            static_cast<double>(run.classified()),
        "count");
  const double layer_total =
      st.b64.decode_us + st.b64.classify_us + st.b64.record_us;
  m.add("nn.share_pct", 100.0 * st.b64.forward_us / layer_total, "%");
  m.add("core.classify_us", st.live.classify_us, "us");
  m.add("core.self_us",
        st.live.classify_us - st.live.features_us - st.live.forward_us, "us");
  m.add("core.live_batch", static_cast<double>(st.live.batch), "count");
  // The p99 latencies are not end-to-end metrics: on a shared host the
  // tail swings with the other tenants (paper_open's p99 spread over ten
  // runs reached 0.5 of its median at 400/s and 0.6 at 600/s), beyond any
  // bound worth gating on. Reported here, from the traced run.
  m.add("latency_p99_ms.light", light.latency_p99_ms, "ms");
  m.add("latency_p99_ms.busy", busy.latency_p99_ms, "ms");
  m.add("serving.submit_us", percentile(live.submit_us, 50.0), "us");
  m.add("serving.enqueue_to_verdict_ms_p50",
        percentile(live.enqueue_to_verdict_ms, 50.0), "ms");
  m.add("serving.enqueue_to_verdict_ms_p99",
        percentile(live.enqueue_to_verdict_ms, 99.0), "ms");
  m.add("serving.batch_size_mean",
        static_cast<double>(busy.items) / static_cast<double>(busy.batches),
        "count");
  m.add("serving.batch_size_mean.light",
        static_cast<double>(light.items) / static_cast<double>(light.batches),
        "count");
  m.add("serving.flush_deadline_share",
        static_cast<double>(busy.flush_deadline) /
            static_cast<double>(busy.batches),
        "ratio");
  m.add("serving.would_block",
        static_cast<double>(run.service_stats().queue.would_block), "count");
  m.add("serving.record_us", st.b64.record_us, "us");
  m.add("serving.evicted_lru",
        static_cast<double>(run.service_stats().sessions.evicted_lru), "count");
  m.add("serving.session_mb",
        static_cast<double>(run.service_stats().sessions.approx_bytes) /
            (1 << 20),
        "MiB");
  std::vector<float> late = light.late_ms;
  late.insert(late.end(), busy.late_ms.begin(), busy.late_ms.end());
  m.add("gen.late_ms_p99", percentile(late, 99.0), "ms");
  m.add("gen.cpu_ms_per_report", per_report_ms(busy.client_cpu_s, busy.sent),
        "ms");
  const PhaseResult& plain = untraced.run->phase("busy");
  m.add("trace.overhead_pct",
        100.0 * (busy.cpu_ms_per_report / plain.cpu_ms_per_report - 1.0),
        "%");
}

// Per-layer self time of the staged replay, per report at batch 64:
// decode less the unpack it contains is net's own time, classify less the
// features and forward it contains is core's.
std::vector<LayerRow> staged_layers(const StagedCosts& c) {
  const double n = static_cast<double>(c.reports);
  return {{"net", c.reports, (c.decode_us - c.unpack_us) * n / 1e3},
          {"feedback", c.reports, c.unpack_us * n / 1e3},
          {"dataset", c.reports, c.features_us * n / 1e3},
          {"nn", c.reports, c.forward_us * n / 1e3},
          {"core", c.reports,
           (c.classify_us - c.features_us - c.forward_us) * n / 1e3},
          {"serving", c.reports, c.record_us * n / 1e3}};
}

void write_trace(const std::string& dir, const Workload& w, const SpanLog& log,
                 const PipelineRun& traced) {
  const std::vector<Span> spans = log.collect();
  std::vector<Span> live;
  for (const Span& s : spans)
    if (s.id < (std::uint64_t{1} << 62)) live.push_back(s);
  const std::string table =
      render_layer_table("live spans (traced pipeline run), self time by layer",
                         self_time_by_layer(live), traced.run->classified()) +
      render_layer_table("staged replay at batch 64, self time by layer",
                         staged_layers(traced.staged.b64),
                         traced.staged.b64.reports);
  std::fprintf(stderr, "%s", table.c_str());
  const std::string base = dir + "/trace-" + w.name;
  write_spans_csv(base + ".csv", spans);
  std::FILE* f = std::fopen((base + ".txt").c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + base + ".txt");
  std::fputs(table.c_str(), f);
  std::fclose(f);
}

// Removes the per-process model directory on every exit path.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

int run_benchmark(const Args& args) {
  const Workload& w = *find_workload(args.workload);
  // The configuration is fixed here, never inherited from the environment.
  if (!simd::set_active(simd::Backend::kAvx2Int8)) {
    std::fprintf(stderr,
                 "wirebench: this host cannot run the avx2_int8 backend "
                 "(needs AVX2+FMA); refusing to measure another one\n");
    return 2;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  __builtin_cpu_init();
  std::printf("# wirebench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "backend=%s avx2=%d fma=%d avx_vnni=%d avx512_vnni=%d "
              "pool_threads=1 lanes=1\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, hw, simd::name(simd::active()),
              __builtin_cpu_supports("avx2") ? 1 : 0,
              __builtin_cpu_supports("fma") ? 1 : 0,
              __builtin_cpu_supports("avxvnni") ? 1 : 0,
              __builtin_cpu_supports("avx512vnni") ? 1 : 0);
  std::fflush(stdout);

  // Prep (not timed): template pool, per-report template table, model
  // trio and reference predictions.
  common::set_num_threads(static_cast<int>(std::min(4u, hw)));
  serving::FleetConfig fleet = w.fleet;
  fleet.seed = args.seed;
  const StreamPlan plan(fleet);
  std::filesystem::create_directories(args.out_dir);
  const TempDir model_dir(std::filesystem::path(args.out_dir) /
                          ("model-" + std::to_string(::getpid())));
  const Artifact artifact = prepare_artifact(w, plan, model_dir.path.string());
  common::set_num_threads(1);
  std::fprintf(stderr, "wirebench: %s, %zu templates, %llu stations\n", w.name,
               plan.num_templates(),
               static_cast<unsigned long long>(plan.stations()));

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  Metrics m;
  PipelineRun untraced = run_pipeline(w, plan, artifact, args.seconds, nullptr);
  attempted += untraced.run->attempted();
  failed += failed_ops(untraced, &correct);
  if (!args.trace) {
    end_to_end(*untraced.run, untraced.setup_s, m);
  } else {
    SpanLog log;
    PipelineRun traced = run_pipeline(w, plan, artifact, args.seconds, &log);
    attempted += traced.run->attempted();
    failed += failed_ops(traced, &correct);
    per_layer(untraced, traced, m);
    write_trace(args.out_dir, w, log, traced);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Backend, pool size and failpoints are part of what is measured; an
  // inherited setting must not change them.
  for (const char* var :
       {"DEEPCSI_SIMD", "DEEPCSI_THREADS", "DEEPCSI_FAILPOINTS", "DEEPCSI_SCALE"})
    ::unsetenv(var);
  const Args args = parse(argc, argv);
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: error: %s\n", e.what());
    return 1;
  }
}

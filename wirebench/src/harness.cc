#include "harness.h"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/hash.h"
#include "common/rss.h"
#include "core/model.h"
#include "dataset/features.h"
#include "net/client.h"
#include "nn/gemm.h"
#include "nn/serialize.h"
#include "phy/impairments.h"
#include "serving/replay.h"
#include "tensor/tensor.h"

namespace wirebench {

using namespace deepcsi;

namespace {

serving::FleetConfig fleet(std::uint64_t stations, std::size_t rounds,
                           int snapshots, double mobile, double confusion) {
  serving::FleetConfig cfg;
  cfg.stations = stations;
  cfg.reports_per_station = rounds;
  cfg.snapshots_per_template = snapshots;
  cfg.mobile_fraction = mobile;
  cfg.confusion_fraction = confusion;
  return cfg;
}

// Why these workloads:
//  - paper_steady: the paper model's forward pass is ~95% of per-report
//    time and the session table only updates 64 resident stations. The
//    headline reports/s per core; kernel work in nn shows here.
//  - paper_open: the same traffic on a fixed schedule. At low rates the
//    scheduler flushes small batches on its 2 ms deadline, so small-batch
//    forward, queue wait and batching policy set the latency. The ladder
//    brackets capacity (about 1.1k-2.0k reports/s on a shared 4-vCPU host,
//    as the host's load varies) so the seed passes 400 and 600 reports/s
//    and fails 2400 and 4800, each with margin. (At 800/s the
//    deadline-flushed small batches sit close enough to saturation that a
//    slow spell of the host pushed p99 past the limit in one of five runs.)
//  - fleet_churn: quick model, so the forward pass is minor; 5e4 distinct
//    stations over a 16384-entry session ceiling make nearly every report
//    an insert plus an LRU eviction plus a published verdict, and frame
//    decoding on the ingest thread is a leading cost. nn gains should
//    show as no change here.
// Every workload has a "light" level, an open loop well below capacity
// where batches stay small and the 2 ms flush deadline sets latency, and
// a "busy" level: the saturating closed loop (two reports in flight per
// resident station on paper_steady) or, on paper_open, the 800/s rung.
// Alternates the light and busy levels in `rounds` slices each, so both
// sample the host's varying load over the whole run, then appends `tail`.
std::vector<Slice> alternate(double light, double busy, int rounds,
                             std::vector<Slice> tail = {}) {
  std::vector<Slice> out;
  for (int i = 0; i < rounds; ++i) {
    out.push_back({0, light / rounds});
    out.push_back({1, busy / rounds});
  }
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_steady", true, 1, fleet(64, 8, 4, 0.1, 0.0), 0, 256,
       {{"light", 400.0, 0}, {"busy", 0.0, 128}},
       alternate(0.3, 0.7, 5)},
      {"paper_open", true, 1, fleet(64, 8, 4, 0.1, 0.0), 0, 256,
       {{"light", 400.0, 0},
        {"busy", 600.0, 0},
        {"r2400", 2400.0, 0},
        {"r4800", 4800.0, 0}},
       alternate(0.3, 0.4, 5, {{2, 0.15}, {3, 0.15}})},
      {"fleet_churn", false, 2, fleet(50000, 2, 1, 0.3, 0.2), 16384, 256,
       {{"light", 1000.0, 0}, {"busy", 0.0, 128}},
       alternate(0.3, 0.7, 5)},
  };
  return all;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s(std::thread& t) {
  clockid_t id{};
  if (pthread_getcpuclockid(t.native_handle(), &id) != 0) return 0.0;
  return clock_s(id);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

net::VerdictMsg to_msg(const serving::StationVerdict& v) {
  net::VerdictMsg m;
  m.station = v.station;
  m.module_id = v.module_id;
  m.votes = static_cast<std::uint32_t>(v.votes);
  m.window_size = static_cast<std::uint32_t>(v.window_size);
  m.total_reports = v.total_reports;
  m.mean_confidence = v.mean_confidence;
  m.last_timestamp_s = v.last_timestamp_s;
  return m;
}

constexpr auto kStallTimeout = std::chrono::seconds(30);
constexpr int kStallChecks = 30;
// Open-loop give-up point: a rung whose backlog or generator lateness
// passes half a second of traffic has failed; stop feeding it.
constexpr double kAbortBacklogS = 0.5;
constexpr std::int64_t kAbortLateNs = 500'000'000;
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::int64_t kRampNs = 250'000'000;

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

serving::ServiceConfig service_config(const Workload& w) {
  serving::ServiceConfig cfg;
  cfg.queue_capacity = w.queue_capacity;
  cfg.policy = common::OverflowPolicy::kBlock;
  cfg.scheduler.max_batch = 64;
  cfg.scheduler.max_latency = std::chrono::milliseconds(2);
  cfg.sessions.window = 31;
  cfg.sessions.num_shards = 8;
  cfg.sessions.max_stations = w.max_stations;
  cfg.consumers = 1;
  return cfg;
}

Artifact prepare_artifact(const Workload& w, const StreamPlan& plan,
                          const std::string& dir) {
  Artifact a;
  a.spec.subcarrier_stride = w.paper_model ? 1 : 2;
  a.fallback =
      w.paper_model ? core::paper_model_config() : core::quick_model_config();
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(a.spec));
  const std::size_t width = dataset::num_input_columns(a.spec);
  core::Authenticator auth(
      core::build_deepcsi_model(static_cast<int>(c), static_cast<int>(width),
                                phy::kNumModules, a.fallback),
      a.spec);

  const std::size_t t = plan.num_templates();
  std::vector<feedback::CompressedFeedbackReport> reports;
  tensor::Tensor x({t, c, 1, width});
  for (std::size_t i = 0; i < t; ++i) {
    reports.push_back(plan.template_report(i).report);
    dataset::fill_features(reports.back(), a.spec, x.data() + i * c * width);
  }
  const std::vector<nn::CalibrationEntry> entries = auth.calibrate_int8(x);

  a.path = dir + "/model.bin";
  auth.save(a.path);
  core::save_model_meta(a.path, {{"filters", a.fallback.filters},
                                 {"stride", a.spec.subcarrier_stride},
                                 {"classes", phy::kNumModules}});
  nn::save_calibration(a.path, entries);
  a.reference = auth.classify_batch(reports);
  return a;
}

// ------------------------------------------------------------- Server

Server::Server(const Artifact& artifact, const serving::ServiceConfig& cfg,
               Run& run) {
  core::LoadedModel lm;
  std::string err;
  if (core::load_model_artifact(artifact.path, artifact.spec,
                                artifact.fallback, &lm,
                                &err) != core::ModelLoadStatus::kOk)
    throw std::runtime_error(err);
  if (!lm.calibration)
    throw std::runtime_error("model " + artifact.path + " has no .calib");
  auth_ = std::make_unique<core::Authenticator>(std::move(*lm.model), lm.spec);
  auth_->apply_int8_calibration(*lm.calibration);

  pub_ = std::make_unique<net::VerdictPublisher>(net::PublisherConfig{});
  pub_->start();
  service_ = std::make_unique<serving::AuthService>(*auth_, cfg);
  service_->set_verdict_callback(
      [this, &run](const serving::StationVerdict& v) {
        run.on_verdict(v, *pub_);
      });
  service_->set_shadow_callback(
      [&run](const serving::PendingReport& r,
             const core::Authenticator::Prediction& p) {
        run.on_complete(r, p);
      });
  service_->start();
  ingest_ = std::make_unique<net::TcpIngestServer>(
      net::IngestConfig{}, [this, &run](capture::ObservedFeedback& obs) {
        return run.on_submit(obs, *service_);
      });
  ingest_->start();  // listening: the port accepts from here on
}

Server::~Server() {
  ingest_->stop();
  service_->drain();
  pub_->stop();
}

// ---------------------------------------------------------------- Run

std::string Failures::describe() const {
  char buf[400];
  std::snprintf(
      buf, sizeof buf,
      "unknown_completion=%llu wrong_prediction=%llu never_classified=%llu "
      "send_failed=%llu dropped=%llu malformed=%llu verdicts_lost=%llu "
      "replay_mismatch=%llu",
      static_cast<unsigned long long>(unknown_completion),
      static_cast<unsigned long long>(wrong_prediction),
      static_cast<unsigned long long>(never_classified),
      static_cast<unsigned long long>(send_failed),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(malformed),
      static_cast<unsigned long long>(verdicts_lost),
      static_cast<unsigned long long>(replay_mismatch));
  return buf;
}

Run::Run(const Workload& w, const StreamPlan& plan, const Artifact& artifact,
         bool traced, SpanLog* spans)
    : w_(w),
      plan_(plan),
      artifact_(artifact),
      traced_(traced),
      spans_(spans),
      ring_(std::make_unique<Slot[]>(kRing)),
      latency_ms_(w.phases.size()),
      results_(w.phases.size()) {
  for (std::size_t i = 0; i < w.phases.size(); ++i) {
    const Phase& ph = w.phases[i];
    results_[i].name = ph.name;
    results_[i].open_loop = ph.rate_rps > 0.0;
    if (std::string(ph.name) == "busy") busy_index_ = i;
    const double in_flight =
        ph.rate_rps > 0.0 ? ph.rate_rps * kAbortBacklogS + 64.0 * w.connections
                          : static_cast<double>(ph.window * w.connections);
    if (in_flight >= static_cast<double>(kRing) / 2)
      throw std::logic_error("phase in-flight bound exceeds the report ring");
  }
  for (std::vector<float>& v : latency_ms_) v.reserve(1 << 16);
  for (int c = 0; c < w.connections; ++c)
    conns_.push_back(std::make_unique<Conn>());
  // Stations are sharded across connections by the service's own lane
  // hash, so each station's reports stay in order on one connection.
  for (std::uint64_t s = 0; s < plan.stations(); ++s) {
    const std::uint64_t h = common::mix64(
        capture::MacAddress::for_fleet_station(s).to_u64());
    conns_[h % conns_.size()]->stations.push_back(static_cast<std::uint32_t>(s));
  }
  if (w.connections == 1) sent_log_.reserve(1 << 16);
  if (traced_) {
    ingest_spans_ = &spans_->dedicated_buffer();
    lane_spans_ = &spans_->dedicated_buffer();
    ingest_spans_->reserve(1 << 18);
    lane_spans_->reserve(1 << 18);
    live_.ingest_ms.reserve(1 << 17);
    live_.submit_us.reserve(1 << 17);
    live_.publish_us.reserve(1 << 17);
    live_.enqueue_to_verdict_ms.reserve(1 << 17);
  }
}

// The Server (declared after the Run) is gone by now, and with it the
// publisher whose close ends the subscriber's stream.
Run::~Run() {
  if (subscriber_thread_.joinable()) subscriber_thread_.join();
}

const PhaseResult& Run::phase(const char* name) const {
  for (const PhaseResult& r : results_)
    if (r.name == name) return r;
  throw std::logic_error(std::string("no phase ") + name);
}

void Run::execute(Server& server, double seconds) {
  for (auto& conn : conns_)
    conn->client = net::NetClient::connect("127.0.0.1", server.ingest().port());
  subscriber_ =
      net::VerdictSubscriber::connect("127.0.0.1", server.publisher().port());
  // The publisher registers the subscriber on its own loop thread; a
  // verdict published before that would never reach it.
  const auto deadline = Clock::now() + kStallTimeout;
  while (server.publisher().subscriber_count() == 0) {
    if (Clock::now() > deadline)
      throw std::runtime_error("verdict subscriber was never accepted");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  subscriber_thread_ = std::thread([this] {
    while (const auto frame = subscriber_.next_frame()) {
      if (frame->type != static_cast<std::uint8_t>(net::FrameType::kVerdictUpdate))
        continue;
      if (net::decode_verdict(frame->payload))
        verdicts_received_.fetch_add(1, std::memory_order_relaxed);
      else
        verdicts_bad_.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const std::uint64_t dispatches0 = nn::int8_kernel_dispatches();
  for (const Slice& slice : w_.schedule) run_slice(slice, seconds, server);
  for (std::size_t i = 0; i < w_.phases.size(); ++i) finish_phase(i);
  rss_mb_ = static_cast<double>(common::process_rss_bytes()) / (1 << 20);
  int8_dispatches_ = nn::int8_kernel_dispatches() - dispatches0;
  finish(server);
}

void Run::run_slice(const Slice& slice, double seconds, Server& server) {
  const std::size_t index = slice.phase;
  const Phase& ph = w_.phases[index];
  const bool open_loop = ph.rate_rps > 0.0;
  const serving::StatsSnapshot before = server.service().stats();
  std::vector<std::uint64_t> sent_before;
  for (auto& conn : conns_) sent_before.push_back(conn->sent);

  std::vector<std::thread> threads;
  const auto done_total = [&] {
    std::uint64_t n = 0;
    for (auto& conn : conns_) n += conn->done.load();
    return n;
  };
  // Client CPU: the generator threads and the verdict subscriber. Read
  // only while the generators still run (a thread's clock ends with it).
  const auto client_cpu = [&] {
    double s = thread_cpu_s(subscriber_thread_);
    for (std::thread& t : threads) s += thread_cpu_s(t);
    return s;
  };
  const double cpu0 = process_cpu_s();
  const double sub0 = thread_cpu_s(subscriber_thread_);
  const std::int64_t start_ns = now_ns() + 1'000'000;
  const std::int64_t end_ns =
      start_ns + static_cast<std::int64_t>(slice.share * seconds * 1e9);
  const std::size_t samples_before = latency_ms_[index].size();
  std::vector<GenResult> gens(conns_.size());
  for (std::size_t c = 0; c < conns_.size(); ++c)
    threads.emplace_back([this, c, index, start_ns, end_ns, &gens] {
      generate(c, index, start_ns, end_ns, gens[c]);
    });

  PhaseResult& r = results_[index];
  // Closed loops are also measured in one-second windows while the
  // generators run (summarised in finish_phase). A window's rate runs
  // from one completion to a later one, so whole batches are counted; its
  // CPU per report is CPU utilisation over that rate, so neither is
  // quantised by the batch size.
  const std::uint64_t done_at_start = done_total();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> window_done;
  if (!open_loop) {
    // The first windows start once the loop is full.
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(start_ns + kRampNs - now_ns()));
    std::int64_t t = now_ns(), last = last_done_ns_.load();
    std::uint64_t d = done_total();
    double cpu = process_cpu_s(), client = client_cpu();
    for (std::int64_t next = t + kWindowNs; next <= end_ns;
         next += kWindowNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now_ns()));
      const std::int64_t last1 = last_done_ns_.load();
      const std::uint64_t d1 = done_total();
      const std::int64_t t1 = now_ns();
      const double cpu1 = process_cpu_s(), client1 = client_cpu();
      if (d1 > d && last1 > last && t1 > t) {
        const double rps =
            static_cast<double>(d1 - d) * 1e9 / static_cast<double>(last1 - last);
        const double busy = ((cpu1 - cpu) - (client1 - client)) * 1e9 /
                            static_cast<double>(t1 - t);
        r.window_rps.push_back(rps);
        r.window_cpu_ms.push_back(1e3 * busy / rps);
        window_done.emplace_back(d, d1);
      }
      t = t1;
      last = last1;
      d = d1;
      cpu = cpu1;
      client = client1;
    }
  }
  for (std::thread& t : threads) t.join();
  const double cpu1 = process_cpu_s();
  const double sub1 = thread_cpu_s(subscriber_thread_);
  const serving::StatsSnapshot after = server.service().stats();

  std::int64_t first_ns = 0;
  bool stalled = false;
  std::uint64_t sent = 0;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    GenResult& g = gens[c];
    sent += conns_[c]->sent - sent_before[c];
    if (g.first_send_ns != 0 && (first_ns == 0 || g.first_send_ns < first_ns))
      first_ns = g.first_send_ns;
    r.client_cpu_s += g.cpu_s;
    r.backlog_at_end = std::max(r.backlog_at_end, g.backlog_at_end);
    r.aborted = r.aborted || g.aborted;
    stalled = stalled || g.stalled;
    r.late_ms.insert(r.late_ms.end(), g.late_ms.begin(), g.late_ms.end());
    if (traced_) spans_->absorb(std::move(g.spans));
  }
  if (sent == 0 || stalled) {
    const net::IngestStats in = server.ingest().stats();
    std::string why = std::string("phase ") + ph.name +
                      (stalled ? " stalled: reports never completed"
                               : " sent nothing");
    for (auto& conn : conns_)
      why += " [conn sent " + std::to_string(conn->sent) + " done " +
             std::to_string(conn->done.load()) + "]";
    why += " ingest frames " + std::to_string(in.frames) + " submitted " +
           std::to_string(in.reports_submitted) + " pauses " +
           std::to_string(in.pauses) + "; classified " +
           std::to_string(after.reports_classified) + " queued " +
           std::to_string(after.queue.depth) + "; unknown completions " +
           std::to_string(unknown_.load());
    throw std::runtime_error(why);
  }
  // Every completion of the slice is in by now (the generators waited).
  // Samples are appended in completion order, so the completions of a
  // window are one contiguous range of them.
  const std::vector<float>& lat = latency_ms_[index];
  const auto sample_at = [&](std::uint64_t done) {
    return lat.begin() + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
                             samples_before + (done - done_at_start), lat.size()));
  };
  if (open_loop) {
    std::vector<float> slice_lat(lat.begin() + samples_before, lat.end());
    r.slice_p50_ms.push_back(percentile(slice_lat, 50.0));
    r.slice_p99_ms.push_back(percentile(slice_lat, 99.0));
  }
  for (const auto& [from, to] : window_done) {
    std::vector<float> window_lat(sample_at(from), sample_at(to));
    r.window_p50_ms.push_back(percentile(window_lat, 50.0));
    r.window_p99_ms.push_back(percentile(window_lat, 99.0));
  }
  r.sent += sent;
  r.client_cpu_s += sub1 - sub0;
  r.server_cpu_s += (cpu1 - cpu0) - (sub1 - sub0);
  for (const GenResult& g : gens) r.server_cpu_s -= g.cpu_s;
  r.wall_s += static_cast<double>(last_done_ns_.load() - first_ns) / 1e9;
  r.batches += after.scheduler.batches - before.scheduler.batches;
  r.items += after.scheduler.items - before.scheduler.items;
  r.flush_deadline +=
      after.scheduler.flush_deadline - before.scheduler.flush_deadline;
}

void Run::finish_phase(std::size_t index) {
  const Phase& ph = w_.phases[index];
  PhaseResult& r = results_[index];
  if (r.sent == 0) throw std::runtime_error(std::string("phase ") + ph.name + " never ran");
  r.rate_rps = static_cast<double>(r.sent) / r.wall_s;
  if (r.open_loop) {
    r.throughput_rps = r.rate_rps;
    r.cpu_ms_per_report = 1e3 * r.server_cpu_s / static_cast<double>(r.sent);
    r.latency_p50_ms = percentile_of(r.slice_p50_ms, 25.0);
    r.latency_p99_ms = percentile_of(r.slice_p99_ms, 25.0);
  } else {
    if (r.window_rps.size() < 3)
      throw std::runtime_error(std::string("phase ") + ph.name +
                               " is too short for one-second windows");
    r.throughput_rps = percentile_of(r.window_rps, 90.0);
    r.cpu_ms_per_report = percentile_of(r.window_cpu_ms, 10.0);
    r.latency_p50_ms = percentile_of(r.window_p50_ms, 10.0);
    r.latency_p99_ms = percentile_of(r.window_p99_ms, 10.0);
  }
  std::vector<float> late = r.late_ms;
  r.late_p99_ms = percentile(late, 99.0);
  // A rung passes when its p99 meets the limit and its backlog did not
  // grow: at most ~100 ms of traffic plus one batch per connection was
  // still in flight when sending stopped.
  r.passed = r.open_loop && !r.aborted &&
             r.latency_p99_ms <= kLatencyLimitMs &&
             static_cast<double>(r.backlog_at_end) <=
                 ph.rate_rps * kLatencyLimitMs / 1e3 + 64.0 * conns_.size();
  std::fprintf(stderr,
               "wirebench: phase %-6s sent %7llu  rate %8.1f/s  p50 %8.3f ms  "
               "p99 %8.3f ms  late p99 %7.3f ms  batch %5.1f  cpu %.3f ms/rep  "
               "%s\n",
               ph.name, static_cast<unsigned long long>(r.sent), r.throughput_rps,
               r.latency_p50_ms, r.latency_p99_ms, r.late_p99_ms,
               r.batches ? static_cast<double>(r.items) / r.batches : 0.0,
               r.cpu_ms_per_report,
               !r.open_loop ? "closed loop"
                            : (r.passed ? "pass"
                                        : (r.aborted ? "FAIL (aborted)" : "FAIL")));
  if (r.open_loop) {
    std::fprintf(stderr, "wirebench:   slices (p50/p99 ms):");
    for (std::size_t i = 0; i < r.slice_p99_ms.size(); ++i)
      std::fprintf(stderr, " %.2f/%.2f", r.slice_p50_ms[i], r.slice_p99_ms[i]);
  } else {
    std::fprintf(stderr,
                 "wirebench:   1 s windows (reports/s, server ms/report, "
                 "p50/p99 ms):");
    for (std::size_t i = 0; i < r.window_rps.size(); ++i)
      std::fprintf(stderr, " %.0f,%.3f,%.1f/%.1f", r.window_rps[i],
                   r.window_cpu_ms[i], r.window_p50_ms[i], r.window_p99_ms[i]);
  }
  std::fprintf(stderr, "\n");
}

// Waits until fewer than `limit` of the connection's reports are in
// flight. Gives up only after kStallChecks consecutive one-second waits
// without a single completion, so a pause of the whole host (which makes
// the clock jump) is not mistaken for a stalled pipeline.
bool Run::wait_for_room(Conn& conn, std::uint64_t limit) {
  const auto room = [&] { return in_flight(conn) < limit; };
  if (room()) return true;
  std::unique_lock<std::mutex> lock(conn.mu);
  conn.waiting.store(true);
  int idle = 0;
  std::uint64_t seen = conn.done.load();
  while (!conn.cv.wait_for(lock, std::chrono::seconds(1), room)) {
    const std::uint64_t now_done = conn.done.load();
    idle = now_done == seen ? idle + 1 : 0;
    seen = now_done;
    if (idle >= kStallChecks) break;
  }
  conn.waiting.store(false);
  return room();
}

void Run::generate(std::size_t conn_index, std::size_t phase,
                   std::int64_t start_ns, std::int64_t end_ns, GenResult& out) {
  const double cpu0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  Conn& conn = *conns_[conn_index];
  const Phase& ph = w_.phases[phase];
  const auto ci = static_cast<std::uint8_t>(conn_index);
  const auto pi = static_cast<std::uint8_t>(phase);
  std::vector<std::uint8_t> frame;
  frame.reserve(4096);
  out.late_ms.reserve(1 << 16);
  if (const std::int64_t wait = start_ns - now_ns(); wait > 0)
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait));

  if (ph.rate_rps > 0.0) {
    // Connection c sends every conns-th slot of the phase's schedule.
    const double conns = static_cast<double>(conns_.size());
    const double period_ns = 1e9 / ph.rate_rps;
    const double max_backlog = ph.rate_rps / conns * kAbortBacklogS + 64.0;
    for (std::uint64_t i = conn_index;; i += conns_.size()) {
      const std::int64_t due =
          start_ns + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      if (due >= end_ns) break;
      if (const std::int64_t wait = due - now_ns(); wait > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      if (static_cast<double>(in_flight(conn)) > max_backlog ||
          now_ns() - due > kAbortLateNs) {
        out.aborted = true;
        break;
      }
      if (!send_one(conn, ci, pi, due, frame, out)) break;
    }
  } else {
    std::int64_t due = now_ns();
    while (now_ns() < end_ns) {
      if (in_flight(conn) >= ph.window) {
        if (!wait_for_room(conn, ph.window)) {
          out.stalled = true;
          break;
        }
        due = conn.last_done_ns.load();  // the completion that made room
      }
      if (!send_one(conn, ci, pi, due, frame, out)) break;
      due = now_ns();
    }
  }
  out.backlog_at_end = in_flight(conn);
  // The phase ends at its last completion.
  if (!wait_for_room(conn, 1)) out.stalled = true;
  out.cpu_s = clock_s(CLOCK_THREAD_CPUTIME_ID) - cpu0;
}

bool Run::send_one(Conn& conn, std::uint8_t conn_index, std::uint8_t phase,
                   std::int64_t due_ns, std::vector<std::uint8_t>& frame,
                   GenResult& out) {
  const std::uint64_t pos = conn.cursor++;
  const std::uint64_t station = conn.stations[pos % conn.stations.size()];
  const std::uint16_t tid =
      plan_.template_of(station, pos / conn.stations.size());
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  plan_.write_frame(tid, station, seq, frame);

  Slot& s = ring_[seq % kRing];
  s.due_ns = due_ns;
  s.mac = capture::MacAddress::for_fleet_station(station).to_u64();
  s.station = static_cast<std::uint32_t>(station);
  s.tid = tid;
  s.phase = phase;
  s.conn = conn_index;
  s.ingest_ns = 0;
  const std::int64_t t0 = now_ns();
  s.send_ns = t0;
  s.seq.store(seq, std::memory_order_release);
  if (conns_.size() == 1) sent_log_.push_back({s.station, tid});
  ++conn.sent;
  const bool ok = conn.client.send_bytes(frame);
  const std::int64_t t1 = now_ns();
  if (out.first_send_ns == 0) out.first_send_ns = t0;
  out.late_ms.push_back(static_cast<float>(static_cast<double>(t0 - due_ns) / 1e6));
  if (traced_)
    out.spans.push_back({live_span_id(seq, SpanName::kSend),
                         live_span_id(seq, SpanName::kReport), seq, t0, t1,
                         SpanName::kSend});
  if (!ok) {
    --conn.sent;  // never reached the server; do not wait for it
    ++send_failed_;
  }
  return ok;
}

common::PushStatus Run::on_submit(capture::ObservedFeedback& obs,
                                  serving::AuthService& service) {
  if (!traced_) return service.try_submit(obs);
  const std::int64_t t0 = now_ns();
  const std::uint64_t seq = seq_of(obs.timestamp_s);
  Slot& s = ring_[seq % kRing];
  const bool known = s.seq.load(std::memory_order_acquire) == seq;
  if (known && s.ingest_ns == 0) {
    s.ingest_ns = t0;
    ingest_spans_->push_back({live_span_id(seq, SpanName::kIngest),
                              live_span_id(seq, SpanName::kReport), seq,
                              s.send_ns, t0, SpanName::kIngest});
  }
  const common::PushStatus status = service.try_submit(obs);
  const std::int64_t t1 = now_ns();
  if (known) {
    ingest_spans_->push_back({live_span_id(seq, SpanName::kSubmit),
                              live_span_id(seq, SpanName::kReport), seq, t0, t1,
                              SpanName::kSubmit});
    if (s.phase == busy_index_)
      live_.submit_us.push_back(static_cast<float>(static_cast<double>(t1 - t0) / 1e3));
  }
  return status;
}

void Run::on_verdict(const serving::StationVerdict& v,
                     net::VerdictPublisher& pub) {
  const net::VerdictMsg msg = to_msg(v);
  if (!traced_) {
    pub.publish(msg);
    return;
  }
  const std::int64_t t0 = now_ns();
  pub.publish(msg);
  const std::int64_t t1 = now_ns();
  const std::uint64_t seq = seq_of(v.last_timestamp_s);
  lane_spans_->push_back({live_span_id(seq, SpanName::kPublish),
                          live_span_id(seq, SpanName::kEnqueueToVerdict), seq,
                          t0, t1, SpanName::kPublish});
  const Slot& s = ring_[seq % kRing];
  if (s.seq.load(std::memory_order_acquire) == seq && s.phase == busy_index_)
    live_.publish_us.push_back(static_cast<float>(static_cast<double>(t1 - t0) / 1e3));
}

void Run::on_complete(const serving::PendingReport& r,
                      const core::Authenticator::Prediction& p) {
  const std::int64_t now = now_ns();
  const std::uint64_t seq = seq_of(r.timestamp_s);
  const Slot& s = ring_[seq % kRing];
  if (s.seq.load(std::memory_order_acquire) != seq ||
      s.mac != r.station.to_u64()) {
    // Not a report this run sent as `seq`. Count it, and release a slot
    // of the connection that owns the station so the loop keeps going.
    unknown_.fetch_add(1, std::memory_order_relaxed);
    release(*conns_[common::mix64(r.station.to_u64()) % conns_.size()], now);
    return;
  }
  const core::Authenticator::Prediction& ref = artifact_.reference[s.tid];
  if (p.module_id != ref.module_id || !same_bits(p.confidence, ref.confidence))
    wrong_.fetch_add(1, std::memory_order_relaxed);
  latency_ms_[s.phase].push_back(
      static_cast<float>(static_cast<double>(now - s.due_ns) / 1e6));
  if (traced_) {
    const std::int64_t enq = to_ns(r.enqueued_at);
    lane_spans_->push_back({live_span_id(seq, SpanName::kReport), kNoParent,
                            seq, s.send_ns, now, SpanName::kReport});
    lane_spans_->push_back({live_span_id(seq, SpanName::kEnqueueToVerdict),
                            live_span_id(seq, SpanName::kReport), seq, enq, now,
                            SpanName::kEnqueueToVerdict});
    if (s.phase == busy_index_) {
      live_.enqueue_to_verdict_ms.push_back(
          static_cast<float>(static_cast<double>(now - enq) / 1e6));
      live_.ingest_ms.push_back(
          static_cast<float>(static_cast<double>(s.ingest_ns - s.send_ns) / 1e6));
    }
  }
  release(*conns_[s.conn], now);
}

void Run::release(Conn& conn, std::int64_t now) {
  conn.last_done_ns.store(now);
  last_done_ns_.store(now);
  conn.done.fetch_add(1);
  if (conn.waiting.load()) {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.cv.notify_all();
  }
}

void Run::finish(Server& server) {
  for (auto& conn : conns_) conn->client.close();
  server.ingest().stop();
  server.service().drain();
  ingest_stats_ = server.ingest().stats();
  service_stats_ = server.service().stats();
  server.publisher().stop();
  subscriber_thread_.join();
  pub_stats_ = server.publisher().stats();

  std::uint64_t done = 0;
  for (auto& conn : conns_) {
    attempted_ += conn->sent;
    done += conn->done.load();
  }
  attempted_ += send_failed_;
  classified_ = service_stats_.reports_classified;
  failures_.unknown_completion = unknown_.load();
  failures_.wrong_prediction = wrong_.load();
  failures_.send_failed = send_failed_;
  failures_.never_classified = attempted_ - send_failed_ - std::min(done, attempted_ - send_failed_);
  failures_.dropped = ingest_stats_.reports_dropped +
                      service_stats_.queue.dropped_oldest +
                      service_stats_.queue.rejected;
  failures_.malformed =
      ingest_stats_.malformed_payloads + ingest_stats_.protocol_errors;
  const std::uint64_t received = verdicts_received_.load();
  failures_.verdicts_lost =
      (pub_stats_.frames_published > received
           ? pub_stats_.frames_published - received
           : 0) +
      verdicts_bad_.load() + pub_stats_.frames_dropped;
  if (conns_.size() == 1) check_replay(server);
}

// Offline replay of the same stream through serving::replay_observed. A
// station's verdict depends only on its own reports (the paper workloads
// never evict), so the stream is replayed in station groups to bound the
// memory of the materialized reports.
void Run::check_replay(Server& server) {
  std::map<std::uint64_t, serving::StationVerdict> online;
  for (const serving::StationVerdict& v : server.service().sessions().snapshot())
    online.emplace(v.station.to_u64(), v);

  const std::uint64_t stations = plan_.stations();
  constexpr std::size_t kReportsPerGroup = 2048;
  const std::uint64_t groups = std::max<std::uint64_t>(
      1, (sent_log_.size() + kReportsPerGroup - 1) / kReportsPerGroup);
  const std::uint64_t per_group = (stations + groups - 1) / groups;
  std::uint64_t replayed = 0;
  for (std::uint64_t lo = 0; lo < stations; lo += per_group) {
    const std::uint64_t hi = std::min(stations, lo + per_group);
    std::vector<capture::ObservedFeedback> stream;
    for (std::size_t seq = 0; seq < sent_log_.size(); ++seq) {
      const SentReport& sr = sent_log_[seq];
      if (sr.station < lo || sr.station >= hi) continue;
      capture::ObservedFeedback obs = plan_.template_report(sr.tid);
      obs.beamformee = capture::MacAddress::for_fleet_station(sr.station);
      obs.timestamp_s = timestamp_of(seq);
      stream.push_back(std::move(obs));
    }
    // Verdicts do not depend on the lane count, so the replay may use
    // every core.
    serving::ServiceConfig cfg = service_config(w_);
    cfg.consumers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    serving::AuthService offline_service(server.auth(), cfg);
    serving::replay_observed(offline_service, stream, serving::ReplayConfig{});
    for (const serving::StationVerdict& v :
         offline_service.sessions().snapshot()) {
      ++replayed;
      const auto it = online.find(v.station.to_u64());
      const bool same =
          it != online.end() && it->second.module_id == v.module_id &&
          it->second.votes == v.votes &&
          it->second.window_size == v.window_size &&
          it->second.total_reports == v.total_reports &&
          same_bits(it->second.mean_confidence, v.mean_confidence) &&
          same_bits(it->second.last_timestamp_s, v.last_timestamp_s);
      if (!same) ++failures_.replay_mismatch;
    }
  }
  if (replayed != online.size())
    failures_.replay_mismatch +=
        replayed > online.size() ? replayed - online.size()
                                 : online.size() - replayed;
}

}  // namespace wirebench

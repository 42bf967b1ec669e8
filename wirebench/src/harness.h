// The wire-to-verdict pipeline under test and the load that drives it.
//
// Server composes the `serve --listen --publish` path from the library's
// public classes: net::TcpIngestServer -> serving::AuthService ->
// net::VerdictPublisher, around an Authenticator loaded from a
// weights/.meta/.calib trio. Its constructor is the timed cold start.
//
// Run drives a Server over loopback TCP with the benchmark's own
// net::NetClient threads (one per connection) and one
// net::VerdictSubscriber, phase by phase. A report is done when
// AuthService's per-report hook (set_shadow_callback) fires, which is
// after its vote is in the SessionTable; every completion is checked
// against the reference prediction of its template.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "net/client.h"
#include "net/ingest_server.h"
#include "net/publisher.h"
#include "serving/service.h"
#include "stream.h"
#include "trace.h"

namespace wirebench {

// One load level. rate_rps > 0: an open loop at that aggregate rate,
// split evenly over the connections; otherwise a closed loop with
// `window` reports in flight per connection.
struct Phase {
  const char* name;
  double rate_rps;
  std::size_t window;
};

// A stretch of the run spent at one load level.
struct Slice {
  std::size_t phase;
  double share;  // of --seconds
};

struct Workload {
  const char* name;
  bool paper_model;  // paper model at 234 sub-carriers, else quick at 117
  int connections;
  deepcsi::serving::FleetConfig fleet;  // seed comes from --seed
  std::size_t max_stations;             // session ceiling, 0 = unbounded
  std::size_t queue_capacity;
  std::vector<Phase> phases;  // must include "light" and "busy"
  std::vector<Slice> schedule;
};

const Workload* find_workload(const std::string& name);
deepcsi::serving::ServiceConfig service_config(const Workload& w);

inline constexpr double kLatencyLimitMs = 100.0;

// The model trio written in prep, plus the reference prediction of every
// template (Authenticator::classify_batch on the in-memory model, same
// backend).
struct Artifact {
  std::string path;
  deepcsi::dataset::InputSpec spec;
  deepcsi::core::ModelConfig fallback;
  std::vector<deepcsi::core::Authenticator::Prediction> reference;
};
Artifact prepare_artifact(const Workload& w, const StreamPlan& plan,
                          const std::string& dir);

class Run;

class Server {
 public:
  Server(const Artifact& artifact, const deepcsi::serving::ServiceConfig& cfg,
         Run& run);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const deepcsi::core::Authenticator& auth() const { return *auth_; }
  deepcsi::serving::AuthService& service() { return *service_; }
  deepcsi::net::TcpIngestServer& ingest() { return *ingest_; }
  deepcsi::net::VerdictPublisher& publisher() { return *pub_; }

 private:
  std::unique_ptr<deepcsi::core::Authenticator> auth_;
  std::unique_ptr<deepcsi::net::VerdictPublisher> pub_;
  std::unique_ptr<deepcsi::serving::AuthService> service_;
  std::unique_ptr<deepcsi::net::TcpIngestServer> ingest_;
};

// One load level's results, summed over its slices.
//
// Each level is measured repeatedly and reports a low-interference
// quantile of the repeats: open-loop levels take each slice's latency
// percentiles and report the 25th percentile over slices; closed-loop
// levels are cut into one-second windows and report the fastest decile
// (90th percentile of throughput, 10th of CPU per report and latency).
// Other tenants of a shared host come and go and only ever slow the
// pipeline; on a 4-vCPU host they moved a single run's median window by
// up to 25% and a slice's p99 by 2-6x, while these quantiles repeated
// within about 10% across runs.
struct PhaseResult {
  std::string name;
  bool open_loop = false;
  std::uint64_t sent = 0;
  double wall_s = 0.0;  // per slice: first send -> last completion, summed
  double server_cpu_s = 0.0;  // process CPU minus the client threads
  double client_cpu_s = 0.0;
  std::uint64_t backlog_at_end = 0;  // in flight when sending stopped (max)
  bool aborted = false;              // backlog or lateness ran away
  std::size_t batches = 0;
  std::size_t items = 0;
  std::size_t flush_deadline = 0;
  std::vector<float> late_ms;  // generator lateness, all slices
  std::vector<double> slice_p50_ms, slice_p99_ms;    // open loops
  std::vector<double> window_rps, window_cpu_ms;      // closed loops
  std::vector<double> window_p50_ms, window_p99_ms;   // closed loops

  // Filled by Run::finish_phase.
  double rate_rps = 0.0;  // achieved: sent / wall_s
  double throughput_rps = 0.0;
  double cpu_ms_per_report = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double late_p99_ms = 0.0;
  bool passed = false;  // open loop: p99 within the limit, backlog held
};

// Samples of the live per-layer timings, busy phase only (traced runs).
struct LiveSamples {
  std::vector<float> ingest_ms;
  std::vector<float> submit_us;
  std::vector<float> publish_us;
  std::vector<float> enqueue_to_verdict_ms;
};

// Reasons an operation failed; any non-zero entry fails the run.
struct Failures {
  std::uint64_t unknown_completion = 0;  // completion of no sent report
  std::uint64_t wrong_prediction = 0;    // differs from the reference
  std::uint64_t never_classified = 0;    // sent, no completion
  std::uint64_t send_failed = 0;
  std::uint64_t dropped = 0;  // ingest drops, queue drops/rejects
  std::uint64_t malformed = 0;  // malformed payloads, protocol errors
  std::uint64_t verdicts_lost = 0;  // published but not received
  std::uint64_t replay_mismatch = 0;  // stations differing from replay
  std::uint64_t total() const {
    return unknown_completion + wrong_prediction + never_classified +
           send_failed + dropped + malformed + verdicts_lost + replay_mismatch;
  }
  std::string describe() const;
};

class Run {
 public:
  Run(const Workload& w, const StreamPlan& plan, const Artifact& artifact,
      bool traced, SpanLog* spans);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  // Drives the workload's schedule through `server` for `seconds` in
  // total, then shuts the front ends down and checks the outputs.
  void execute(Server& server, double seconds);

  // Server hooks (ingest loop thread / lane thread).
  deepcsi::common::PushStatus on_submit(deepcsi::capture::ObservedFeedback& obs,
                                        deepcsi::serving::AuthService& service);
  void on_verdict(const deepcsi::serving::StationVerdict& v,
                  deepcsi::net::VerdictPublisher& pub);
  void on_complete(const deepcsi::serving::PendingReport& r,
                   const deepcsi::core::Authenticator::Prediction& p);

  const std::vector<PhaseResult>& phases() const { return results_; }
  const PhaseResult& phase(const char* name) const;
  const Failures& failures() const { return failures_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t classified() const { return classified_; }
  double rss_mb() const { return rss_mb_; }
  std::uint64_t int8_dispatches() const { return int8_dispatches_; }
  LiveSamples& live() { return live_; }
  const deepcsi::net::IngestStats& ingest_stats() const { return ingest_stats_; }
  const deepcsi::net::PublisherStats& publisher_stats() const {
    return pub_stats_;
  }
  const deepcsi::serving::StatsSnapshot& service_stats() const {
    return service_stats_;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{~std::uint64_t{0}};
    std::int64_t due_ns = 0;
    std::int64_t send_ns = 0;
    std::int64_t ingest_ns = 0;  // traced: first entry into on_submit
    std::uint64_t mac = 0;
    std::uint32_t station = 0;
    std::uint16_t tid = 0;
    std::uint8_t phase = 0;
    std::uint8_t conn = 0;
  };
  struct Conn {
    deepcsi::net::NetClient client;
    std::vector<std::uint32_t> stations;  // this connection's shard
    std::uint64_t cursor = 0;             // next position in its stream
    std::uint64_t sent = 0;               // generator thread only
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::int64_t> last_done_ns{0};
    std::atomic<bool> waiting{false};
    std::mutex mu;
    std::condition_variable cv;
  };
  // Generator thread only (it owns `sent`).
  static std::uint64_t in_flight(const Conn& conn) {
    const std::uint64_t done = conn.done.load();
    return conn.sent > done ? conn.sent - done : 0;
  }
  struct GenResult {
    std::int64_t first_send_ns = 0;
    double cpu_s = 0.0;
    std::uint64_t backlog_at_end = 0;
    bool aborted = false;
    bool stalled = false;
    std::vector<float> late_ms;
    SpanLog::Buffer spans;
  };
  // Sent-report log of a single-connection run, for the offline replay.
  struct SentReport {
    std::uint32_t station;
    std::uint16_t tid;
  };

  void run_slice(const Slice& slice, double seconds, Server& server);
  void finish_phase(std::size_t index);
  void generate(std::size_t conn, std::size_t phase, std::int64_t start_ns,
                std::int64_t end_ns, GenResult& out);
  bool wait_for_room(Conn& conn, std::uint64_t limit);
  // A report of `conn` completed: frees its window slot.
  void release(Conn& conn, std::int64_t now);
  bool send_one(Conn& conn, std::uint8_t conn_index, std::uint8_t phase,
                std::int64_t due_ns, std::vector<std::uint8_t>& frame,
                GenResult& out);
  void finish(Server& server);
  void check_replay(Server& server);

  const Workload& w_;
  const StreamPlan& plan_;
  const Artifact& artifact_;
  const bool traced_;
  SpanLog* spans_;
  SpanLog::Buffer* ingest_spans_ = nullptr;  // ingest loop thread
  SpanLog::Buffer* lane_spans_ = nullptr;    // lane thread

  static constexpr std::size_t kRing = 8192;  // > any in-flight bound
  std::unique_ptr<Slot[]> ring_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::size_t busy_index_ = 0;

  // Written by the lane thread only; read after a phase's completions.
  std::vector<std::vector<float>> latency_ms_;  // per phase
  std::atomic<std::int64_t> last_done_ns_{0};
  std::atomic<std::uint64_t> unknown_{0};
  std::atomic<std::uint64_t> wrong_{0};
  std::uint64_t send_failed_ = 0;  // generator threads, one phase at a time
  std::vector<SentReport> sent_log_;
  LiveSamples live_;

  std::vector<PhaseResult> results_;
  Failures failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t classified_ = 0;
  std::uint64_t int8_dispatches_ = 0;
  double rss_mb_ = 0.0;
  deepcsi::net::IngestStats ingest_stats_;
  deepcsi::net::PublisherStats pub_stats_;
  deepcsi::serving::StatsSnapshot service_stats_;

  // Verdict subscriber.
  deepcsi::net::VerdictSubscriber subscriber_;
  std::thread subscriber_thread_;
  std::atomic<std::uint64_t> verdicts_received_{0};
  std::atomic<std::uint64_t> verdicts_bad_{0};
};

}  // namespace wirebench

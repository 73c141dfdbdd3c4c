// Serving-side observability: per-request latency percentiles, batch-size
// histogram, throughput, queue depth and the scheduling outcome counters
// (rejections, admission rejections, deadline sheds, late completions)
// for the InferenceServer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "runtime/clock.hpp"

namespace wino::serve {

/// \brief Immutable snapshot of a server's aggregate statistics.
///
/// Produced by InferenceServer::stats(); all counters are cumulative since
/// server construction. Latency percentiles are computed over every
/// completed request (up to an internal sample cap) at snapshot time.
///
/// Outcome taxonomy (every submitted request ends in exactly one):
///   completed          future resolved with a value (or the forward
///                      pass's own exception) — `completed_late` counts
///                      the subset that finished past their deadline;
///   rejected           refused at submit by the kReject backpressure
///                      policy (ServerOverloaded);
///   admission_rejected refused at submit because the predicted backlog
///                      exceeded admission_budget_ms (AdmissionRejected);
///   shed               admitted but failed with DeadlineMissed because
///                      the deadline passed (or the predicted completion
///                      missed it) before execution.
struct ServerStats {
  std::uint64_t submitted = 0;  ///< requests admitted past backpressure
  std::uint64_t rejected = 0;   ///< requests refused by the kReject policy
  std::uint64_t admission_rejected = 0;  ///< refused by the cost budget
  std::uint64_t completed = 0;  ///< futures fulfilled (values or errors)
  std::uint64_t completed_late = 0;  ///< completions past their deadline
  std::uint64_t shed = 0;       ///< admitted, then failed DeadlineMissed
  std::uint64_t batches = 0;    ///< batches dispatched to workers

  /// Requests sitting in the submission queue right now (excludes requests
  /// already pulled into the batcher's pending window or executing).
  std::size_t queue_depth = 0;
  /// Submitted-but-not-completed requests right now (queued + batching +
  /// executing) — the quantity the backpressure policy bounds.
  std::size_t inflight = 0;
  /// Submitters currently parked in the kBlock backpressure wait.
  std::size_t blocked_submitters = 0;
  /// Sum of the per-request charge (ExecutionPlan.predicted_total_ms /
  /// batch) over in-flight requests —
  /// the signal cost-based admission compares against admission_budget_ms.
  double backlog_predicted_ms = 0.0;

  /// histogram[s] counts dispatched batches of size s; index 0 is unused.
  std::vector<std::uint64_t> batch_size_histogram;
  double mean_batch_size = 0.0;

  // Submit-to-completion wall latency over completed requests.
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double p999_latency_us = 0.0;
  double max_latency_us = 0.0;

  /// completed / elapsed, where elapsed spans first submit to last
  /// completion (0 until the first request completes).
  double throughput_rps = 0.0;
  double elapsed_s = 0.0;
};

/// \brief Thread-safe recorder behind ServerStats.
///
/// Writers (submit path, batcher, workers) call the on_* hooks; snapshot()
/// assembles a consistent ServerStats. Latencies are kept exactly up to
/// kMaxLatencySamples and further samples are dropped from the percentile
/// set (counters keep counting) — serving benches stay well below the
/// cap, and the cap bounds how long snapshot() holds the mutex copying
/// the sample set out (the copy stalls the serving hot path's hooks).
///
/// Timestamps (first submit / last completion, for throughput) come from
/// the injected ClockSource, so a server on a ManualClock reports fully
/// deterministic elapsed/throughput numbers.
class StatsRecorder {
 public:
  /// \param max_batch sizes the batch histogram (indices 0..max_batch).
  /// \param clock time source for the elapsed/throughput window; must
  ///              outlive the recorder.
  explicit StatsRecorder(std::size_t max_batch,
                         const runtime::ClockSource* clock =
                             &runtime::steady_clock_source());

  void on_submit();
  void on_reject();
  void on_admission_reject();
  void on_shed();
  /// \param batch_size number of requests in a dispatched batch.
  void on_batch(std::size_t batch_size);
  /// \param latency_us submit-to-completion latency of one request.
  /// \param late       the request had a deadline and missed it.
  void on_complete(double latency_us, bool late = false);

  /// \param queue_depth current submission-queue occupancy.
  /// \param inflight current submitted-but-not-completed count.
  /// \param blocked_submitters submitters parked in the kBlock wait.
  /// \param backlog_predicted_ms current predicted-cost backlog.
  [[nodiscard]] ServerStats snapshot(std::size_t queue_depth,
                                     std::size_t inflight,
                                     std::size_t blocked_submitters = 0,
                                     double backlog_predicted_ms = 0.0) const;

 private:
  static constexpr std::size_t kMaxLatencySamples = 1u << 16;

  const runtime::ClockSource* clock_;
  mutable std::mutex mutex_;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t admission_rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t completed_late_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_requests_ = 0;
  std::vector<std::uint64_t> histogram_;
  std::vector<double> latencies_us_;
  runtime::ClockSource::time_point first_submit_{};
  runtime::ClockSource::time_point last_complete_{};
  bool any_submit_ = false;
  bool any_complete_ = false;
};

}  // namespace wino::serve

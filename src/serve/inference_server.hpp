// Traffic-serving front end over nn::forward: a bounded MPMC submission
// queue, a deadline-aware dynamic batcher that coalesces concurrently
// submitted single-image requests into batches, and worker threads that
// dispatch each batch to the batch-parallel forward pass — where the PR 2
// cross-call transformed-kernel cache amortises Winograd filter
// transforms across every request that shares a WeightBank.
//
// Scheduling model (PR 8): requests carry {priority, deadline}. Under the
// default kEdf policy the batcher assembles each batch
// earliest-deadline-first within priority class (deadline-less requests
// sort last in their class; a configurable starvation bound promotes any
// request that has waited too long to the front). Requests whose deadline
// has already passed — or whose predicted completion, estimated from one
// image's share of the session ExecutionPlan's predicted_total_ms, would
// miss it — are shed
// with the distinct DeadlineMissed outcome instead of wasting compute.
// Cost-based admission control (admission_budget_ms) rejects at submit
// time when the predicted-ms backlog of in-flight requests exceeds the
// budget. kFifo preserves the PR 3 arrival-order batcher (no reordering,
// no shedding) as the A/B baseline for bench/traffic_replay.
//
// All time flows through an injectable runtime::ClockSource, so every
// timeout/deadline behaviour is deterministic under a test ManualClock
// (tests/serve_test.cpp runs the flush/deadline scenarios without sleeps).
//
// The numerical contract carries over unchanged: every image is computed
// independently (batch-parallel fan-out, per-image reductions), so a
// served result is bit-identical to running nn::forward on that image
// alone, whatever batch its request happened to be coalesced into — and
// whatever position EDF assembly gave it. tests/serve_test.cpp pins this.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/forward.hpp"
#include "nn/network.hpp"
#include "nn/plan.hpp"
#include "runtime/bounded_queue.hpp"
#include "runtime/clock.hpp"
#include "serve/stats.hpp"
#include "tensor/tensor.hpp"

namespace wino::serve {

/// Opaque handle returned by InferenceServer::add_model and passed to
/// submit() to pick the model session.
using ModelId = std::size_t;

/// What submit() does when the server already holds max_inflight
/// submitted-but-not-completed requests.
enum class BackpressurePolicy {
  kBlock,   ///< wait until capacity frees up (or the server shuts down)
  kReject,  ///< throw ServerOverloaded immediately
};

/// How the batcher orders requests into batches.
enum class SchedulingPolicy {
  /// Earliest-deadline-first within priority class, deadline shedding and
  /// (when configured) cost-based admission. With no priorities/deadlines
  /// in play this degenerates to exact arrival order, so it is the
  /// default.
  kEdf,
  /// PR 3 behaviour: strict arrival order, never sheds, ignores
  /// priorities/deadlines for ordering. The A/B baseline the traffic
  /// replay bench compares EDF against.
  kFifo,
};

/// Thrown by submit() under the kReject policy when the server is at
/// capacity, and by blocked submitters woken by shutdown().
class ServerOverloaded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by submit() when cost-based admission is enabled and admitting
/// this request would push the predicted backlog past admission_budget_ms.
/// Distinct from ServerOverloaded (capacity) so callers can separate
/// "queue full" from "queue predicted too slow" — but derived from it, so
/// a generic overload handler catches both.
class AdmissionRejected : public ServerOverloaded {
 public:
  using ServerOverloaded::ServerOverloaded;
};

/// Failure delivered through a request's future when the scheduler shed it:
/// its deadline passed (or the predicted completion missed it) before
/// execution. The distinct type is the client's signal to degrade/retry
/// rather than treat the miss as a model error.
class DeadlineMissed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-request scheduling parameters for submit().
struct SubmitOptions {
  /// Higher runs first; requests only ever compete within their model's
  /// batches. Default 0.
  int priority = 0;
  /// Completion deadline relative to submit time, in microseconds; 0
  /// means best-effort (no deadline, never shed, sorts after deadline'd
  /// requests of the same priority).
  std::uint64_t deadline_us = 0;
  /// Opaque client tag echoed in BatchRequestInfo (tests/benches identify
  /// individual requests in assembled batches with it).
  std::uint64_t tag = 0;
};

/// One request's scheduling metadata as seen at batch assembly, echoed to
/// ServerConfig::batch_detail_observer in assembly order.
struct BatchRequestInfo {
  std::uint64_t tag = 0;
  int priority = 0;
  bool has_deadline = false;
  std::uint64_t seq = 0;  ///< admission order (process of one server)
};

/// \brief Tuning knobs for an InferenceServer.
struct ServerConfig {
  /// Largest batch the dynamic batcher assembles; a pending batch is
  /// dispatched as soon as it reaches this size. Per model, the effective
  /// cap is min(max_batch, the session plan's cache-derived batch_ceiling)
  /// — a model whose Winograd working set only keeps N images cache-
  /// resident is batched to N, not to the global knob (see
  /// nn::plan_batch_ceiling). EDF assembly may further trim a batch so
  /// the tightest member's deadline survives the members queued ahead of
  /// it (slack trading; see batcher_loop).
  std::size_t max_batch = 8;

  /// How long the oldest request in a pending batch may wait for
  /// companions before the partial batch is dispatched anyway. This is
  /// the knob trading latency (low values) for batching efficiency.
  std::uint64_t max_wait_us = 2000;

  /// Bound on submitted-but-not-completed requests (queued + pending in
  /// the batcher + executing). Admission control applies the backpressure
  /// policy at this bound; it also caps the submission queue itself.
  std::size_t max_inflight = 256;

  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  SchedulingPolicy scheduling = SchedulingPolicy::kEdf;

  /// Cost-based admission (kEdf only): reject a submit with
  /// AdmissionRejected when the sum of predicted cost over in-flight
  /// requests, plus this request's own predicted cost, would exceed the
  /// budget. 0 disables the check. The per-request cost is one image's
  /// share of the session plan's estimate, predicted_total_ms / batch (0
  /// for plans built without scoring, which makes those requests free).
  /// For a plan measured at batch 1 (add_model_planned's default) that is
  /// the wall time of one image with each layer across the global pool;
  /// for one planned at batch b > 1 it is the single-thread time of one
  /// image (see nn::LayerPlan::predicted_ms).
  double admission_budget_ms = 0.0;

  /// Starvation bound (kEdf only): a pending request that has waited this
  /// long is promoted ahead of every priority class at the next assembly,
  /// in arrival order among promoted peers — so best-effort (deadline 0,
  /// priority 0) traffic is never starved indefinitely by a stream of
  /// urgent requests. 0 disables promotion.
  std::uint64_t starvation_bound_us = 0;

  /// Time source for every timeout/deadline decision and latency stat.
  /// Null selects the process-wide steady clock; tests inject a
  /// runtime::ManualClock to script time. Must outlive the server.
  runtime::ClockSource* clock = nullptr;

  /// Planner-measurement persistence: when non-empty, the constructor
  /// warms nn's per-layer timing cache from this file (if it exists and
  /// matches the local CPU signature + code hash), and add_model_planned()
  /// persists the updated timings back after planning. A restarted server
  /// therefore re-times no layer it has timed before. See
  /// nn/calibration_io.hpp.
  std::string calibration_cache_path;

  /// Threads executing batches. Each worker runs nn::forward, which
  /// itself fans out on the process-global ThreadPool, so 1 is usually
  /// right; >1 overlaps batch setup/teardown with compute.
  std::size_t worker_threads = 1;

  /// Observability/test hook: called on the worker thread with
  /// (model, batch size) immediately before a batch executes. Blocking
  /// here stalls that worker — tests use this to freeze the pipeline and
  /// make backpressure deterministic.
  std::function<void(ModelId, std::size_t)> batch_observer;

  /// Observability/test hook: called on the batcher thread at batch
  /// assembly with the batch's requests in assembly (execution) order —
  /// the EDF ordering tests read priorities/tags from here.
  std::function<void(ModelId, const std::vector<BatchRequestInfo>&)>
      batch_detail_observer;

  /// Observability/test hook: called on the batcher thread after a
  /// request enters its model's pending pool, with the pool's new size.
  /// Deterministic-clock tests use it as the "requests have reached the
  /// scheduler" barrier before advancing the ManualClock.
  std::function<void(ModelId, std::size_t)> pending_observer;
};

/// \brief Multi-model inference server with deadline-aware dynamic
/// request batching.
///
/// Usage:
/// \code
///   serve::InferenceServer server(cfg);
///   auto id = server.add_model("vgg", layers, std::move(weights),
///                              nn::ConvAlgo::kWinograd2);
///   auto future = server.submit(id, image, {.priority = 1,
///                                           .deadline_us = 20'000});
///   tensor::Tensor4f out = future.get();  // throws DeadlineMissed if shed
///   server.shutdown();                    // drains, never drops futures
/// \endcode
///
/// Threading model: submit() may be called from any number of client
/// threads. One batcher thread pops requests from the bounded submission
/// queue into per-model pending pools and assembles a model's batch when
/// the pool reaches max_batch, its oldest request has waited max_wait_us,
/// or a deadline'd request reaches its launch-by point (deadline minus
/// predicted cost); worker threads execute assembled batches via
/// nn::forward and fulfil the per-request promises. Requests are only
/// ever batched with requests for the same model, so each batch hits one
/// WeightBank's cached transforms.
class InferenceServer {
 public:
  explicit InferenceServer(ServerConfig config = {});

  /// Joins all threads; equivalent to shutdown().
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Register a model session. Thread-safe; may be called while serving.
  /// The session's ExecutionPlan is built once here — the trivial uniform
  /// plan for `algo` — and reused by every batch the session ever
  /// executes.
  /// \param name    label used in errors and stats output.
  /// \param layers  layer stack executed per request.
  /// \param weights weights for the stack; the WeightBank's version keys
  ///                the process-wide transformed-kernel cache, giving this
  ///                session its own cached transforms.
  /// \param algo    convolution algorithm; must be plannable
  ///                (nn::is_plannable). Winograd variants engage the
  ///                transform cache.
  /// \return handle to pass to submit().
  ModelId add_model(std::string name, std::vector<nn::LayerSpec> layers,
                    nn::WeightBank weights,
                    nn::ConvAlgo algo = nn::ConvAlgo::kWinograd2);

  /// Register a model session under a caller-supplied execution plan —
  /// typically nn::plan_execution's cost-model-driven per-layer mix. The
  /// plan carries its own copy of the layer stack; every batch dispatched
  /// to this session runs the plan-driven forward. One image's share of
  /// the plan's predicted_total_ms (divided by the batch it was planned
  /// at) doubles as the request cost for admission control and deadline
  /// feasibility (see ServerConfig::admission_budget_ms).
  ModelId add_model(std::string name, nn::ExecutionPlan plan,
                    nn::WeightBank weights);

  /// Register a planned session: score the stack with nn::plan_execution
  /// (by default each candidate is timed at each layer's geometry, cached
  /// per process) and serve the resulting per-layer mix. With
  /// ServerConfig::calibration_cache_path set and warm, those per-layer
  /// timings come from the persisted cache and this is near-instant.
  ModelId add_model_planned(std::string name,
                            std::vector<nn::LayerSpec> layers,
                            nn::WeightBank weights,
                            const nn::PlannerOptions& options = {});

  /// Register a mixed-precision session under an accuracy budget: calibrate
  /// each conv layer's activation range on `calibration_sample` (any batch
  /// of representative inputs matching the first layer), extend the
  /// candidate set with the int8 algorithms (unless the caller's options
  /// already list them), and plan with
  /// PlanConstraints::max_rel_error = `max_rel_error` — so int8 runs
  /// exactly where nn::predict_layer_rel_error deems it safe, and fp32
  /// holds the rest. Persists measured planning state like
  /// add_model_planned.
  /// \throws std::invalid_argument when no candidate fits the budget at
  ///         some layer (from nn::plan_execution).
  ModelId add_model_quantized(std::string name,
                              std::vector<nn::LayerSpec> layers,
                              nn::WeightBank weights,
                              const tensor::Tensor4f& calibration_sample,
                              double max_rel_error,
                              nn::PlannerOptions options = {});

  /// Submit one image for inference.
  /// \param model handle from add_model().
  /// \param image single-image tensor, shape (1, c, h, w) matching the
  ///              model's first layer.
  /// \param options priority / relative deadline / client tag.
  /// \return future resolving to the model's output activation for this
  ///         image (or to an exception if the forward pass throws, or to
  ///         DeadlineMissed if the scheduler shed the request). If a
  ///         batch fails as a whole, its requests are retried one by one,
  ///         so a malformed request never fails its batch-mates.
  /// \throws ServerOverloaded under kReject at capacity, or when a
  ///         kBlock wait is interrupted by shutdown().
  /// \throws AdmissionRejected when cost-based admission is enabled and
  ///         the predicted backlog exceeds admission_budget_ms.
  /// \throws std::invalid_argument on unknown model or shape mismatch.
  /// \throws std::runtime_error if the server is already shut down.
  std::future<tensor::Tensor4f> submit(ModelId model, tensor::Tensor4f image,
                                       SubmitOptions options = {});

  /// Block until every admitted request has completed. Does not stop the
  /// server — new submits are still accepted (and can extend the wait).
  void drain();

  /// Stop accepting submissions, flush every pending batch, complete all
  /// admitted requests, and join all threads. No admitted future is ever
  /// dropped. Idempotent; blocked submitters are woken with
  /// ServerOverloaded.
  void shutdown();

  /// Consistent snapshot of the aggregate serving statistics.
  [[nodiscard]] ServerStats stats() const;

  /// The registered model's weights (e.g. for cross-checking served
  /// outputs against direct nn::forward in tests).
  [[nodiscard]] const nn::WeightBank& model_weights(ModelId model) const;

  /// The registered model's layer stack.
  [[nodiscard]] const std::vector<nn::LayerSpec>& model_layers(
      ModelId model) const;

  /// The execution plan the session runs every batch with.
  [[nodiscard]] const nn::ExecutionPlan& model_plan(ModelId model) const;

 private:
  using Clock = runtime::ClockSource;

  struct Model {
    std::string name;
    /// Built at registration, reused by every batch: the layer stack
    /// lives inside the plan (plan.layers).
    nn::ExecutionPlan plan;
    nn::WeightBank weights;
  };

  struct Request {
    ModelId model = 0;
    tensor::Tensor4f image;
    std::promise<tensor::Tensor4f> promise;
    Clock::time_point enqueue{};
    /// Absolute deadline; time_point::max() when best-effort.
    Clock::time_point deadline = Clock::time_point::max();
    bool has_deadline = false;
    int priority = 0;
    /// Session predicted_total_ms / batch at admission — the
    /// admission/shedding cost signal, released when the request finishes.
    double predicted_ms = 0.0;
    /// Effective batch cap for this request's model: the session plan's
    /// cache-derived batch_ceiling clamped by config max_batch (just
    /// max_batch when the plan has no ceiling). Carried per request so
    /// the batcher needs no model lookup.
    std::size_t batch_cap = 0;
    std::uint64_t seq = 0;
    std::uint64_t tag = 0;
  };

  struct Batch {
    ModelId model = 0;
    std::vector<Request> requests;
  };

  /// One model's pending requests inside the batcher (unsorted; EDF order
  /// is imposed at assembly).
  struct Pool {
    std::vector<Request> requests;
    /// Model batch cap (Request::batch_cap of its members).
    std::size_t cap = 0;
  };

  [[nodiscard]] std::shared_ptr<const Model> find_model(ModelId model) const;
  void batcher_loop();
  void worker_loop();
  void execute(Batch batch, bool is_retry = false);
  /// Fail one admitted request with DeadlineMissed and release its slot.
  void shed_request(Request& request);
  void finish_requests(std::size_t count, double predicted_ms);

  [[nodiscard]] bool starved(const Request& r, Clock::time_point now) const;
  /// Assembly order: starvation-promoted first (arrival order), then
  /// priority desc, deadline asc (none last), admission seq.
  [[nodiscard]] bool schedule_before(const Request& a, const Request& b,
                                     Clock::time_point now) const;

  ServerConfig config_;
  runtime::ClockSource* clock_;  ///< never null after construction
  std::size_t wake_hook_token_ = 0;

  mutable std::mutex models_mutex_;
  std::vector<std::shared_ptr<const Model>> models_;

  runtime::BoundedQueue<Request> queue_;
  runtime::BoundedQueue<Batch> batch_queue_;

  // Admission control + drain bookkeeping.
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_ = 0;
  double backlog_predicted_ms_ = 0.0;   ///< admission signal
  std::size_t blocked_submitters_ = 0;  ///< parked in submit()'s cv wait
  std::uint64_t next_seq_ = 0;
  bool accepting_ = true;

  StatsRecorder stats_;

  std::mutex shutdown_mutex_;  ///< serialises concurrent shutdown() calls
  std::thread batcher_;
  std::vector<std::thread> workers_;
};

}  // namespace wino::serve

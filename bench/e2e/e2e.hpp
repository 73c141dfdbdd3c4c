// Shared pieces of the end-to-end benchmark program (bench/e2e/main.cpp):
// statistics helpers, the in-memory span recorder, the open-loop load
// generator that drives serve::InferenceServer, and the per-step replay of
// an nn::ExecutionPlan. Everything times calls into the library's public
// functions and observer hooks from the outside; nothing here changes how
// a request is served. README.md describes the workloads and metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "serve/inference_server.hpp"
#include "tensor/tensor.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;
using wino::tensor::Tensor4f;

[[nodiscard]] double ms_between(Clock::time_point from, Clock::time_point to);
/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);
/// Same shape and the same bytes (the served == direct contract).
[[nodiscard]] bool same_bytes(const Tensor4f& a, const Tensor4f& b);
/// Images [first, first + count) of an NCHW batch as their own tensor.
[[nodiscard]] Tensor4f slice_images(const Tensor4f& batch, std::size_t first,
                                    std::size_t count);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One timed interval. `layer` is the module the time belongs to (serve,
/// nn, winograd, conv, quant, runtime) or the benchmark's own (gen, bench).
struct Span {
  std::string name;
  std::string layer;
  Clock::time_point start{};
  Clock::time_point end{};
  int parent = -1;            ///< index of the enclosing span, -1 for roots
  std::uint64_t request = 0;  ///< request id, 0 when not tied to a request
  int thread = 0;
};

/// Spans kept in memory for the whole run and written out when it ends.
/// Disabled instances record nothing, so untraced runs pay one branch.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span; returns its index for children (-1 when off).
  int add(std::string name, std::string layer, Clock::time_point start,
          Clock::time_point end, int parent = -1, std::uint64_t request = 0);
  /// Open a span now; close() stamps its end.
  int open(std::string name, std::string layer, int parent = -1);
  void close(int id);

  /// Per layer: the sum over its spans of duration minus the time covered
  /// by their child spans, in ms, largest first.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_layer()
      const;
  /// Chrome trace-event JSON (complete "X" events); false if unwritable.
  bool write_chrome(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Open-loop load generation
// ---------------------------------------------------------------------------

/// One model session the generator sends traffic to.
struct Session {
  wino::serve::ModelId id = 0;
  double share = 1.0;             ///< fraction of all requests
  std::vector<Tensor4f> images;   ///< seeded request inputs, (1, c, h, w)
};

/// Per-request phase stamps taken by the server's observer hooks while
/// armed. With one worker thread, batches reach batch_observer in the order
/// batch_detail_observer saw them assembled, so a FIFO of tag lists maps
/// each dispatch to its requests.
class PhaseProbe {
 public:
  struct Stamp {
    Clock::time_point assembled{};
    Clock::time_point dispatched{};
    Clock::time_point ready{};
    std::size_t batch = 0;
  };

  /// Point the config's observer hooks at this probe (which must outlive
  /// the server).
  void install(wino::serve::ServerConfig& config);
  /// Record tags [1, tags] from now on. Call only while the server is idle.
  void arm(std::size_t tags);
  void disarm();

  /// Indexed by request tag; valid for a tag once its future is ready.
  std::vector<Stamp> stamps;
  /// Dispatch time per batch id.
  std::vector<Clock::time_point> batch_dispatched;

 private:
  void on_assembled(const std::vector<wino::serve::BatchRequestInfo>& info);
  void on_dispatch();

  std::atomic<bool> armed_{false};
  std::mutex mutex_;  ///< guards fifo_ and batch_dispatched
  std::deque<std::vector<std::uint64_t>> fifo_;
};

/// Outcome of one fixed-rate window of Poisson arrivals.
struct Window {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;     ///< ServerOverloaded at submit
  std::uint64_t shed = 0;        ///< DeadlineMissed through the future
  std::uint64_t thrown = 0;      ///< any other exception
  std::uint64_t checked = 0;     ///< outputs compared with a direct forward
  std::uint64_t mismatched = 0;  ///< of those, not byte-identical
  std::vector<double> latency_ms;  ///< scheduled send -> future ready
  std::vector<double> late_ms;     ///< scheduled send -> submit() entry
  std::vector<double> submit_us;   ///< submit() call duration
  double drain_s = 0;       ///< window end -> last future ready
  double achieved_rps = 0;  ///< completed / max(window, last ready)
  double mean_batch = 0;    ///< from the stats() batch histogram
  // Traced windows only.
  std::vector<double> queue_wait_ms;     ///< submit() return -> assembly
  std::vector<double> dispatch_wait_ms;  ///< assembly -> worker dispatch
  std::vector<double> request_exec_ms;   ///< dispatch -> this future ready
  std::vector<double> exec_ms;  ///< per batch: dispatch -> first future ready
  double busy_frac = 0;         ///< sum of exec_ms / window wall time

  [[nodiscard]] std::uint64_t failed() const {
    return refused + shed + thrown + mismatched;
  }
};

/// Drives an InferenceServer from one submitter (the calling thread) and
/// one harvester thread per session. Every 64th request's output is
/// compared byte for byte with a direct forward of the same image.
class LoadGenerator {
 public:
  LoadGenerator(wino::serve::InferenceServer& server,
                std::vector<Session> sessions, std::uint64_t seed,
                PhaseProbe* probe, Trace& trace);

  /// Offer `rate` req/s for `seconds`; `traced` arms the probe and records
  /// a span tree per request.
  Window run(double rate, double seconds, bool traced);

 private:
  const Tensor4f& direct_output(std::size_t session, std::size_t image);

  wino::serve::InferenceServer& server_;
  std::vector<Session> sessions_;
  std::uint64_t seed_;
  std::uint64_t windows_ = 0;
  std::uint64_t next_request_ = 1;
  PhaseProbe* probe_;
  Trace& trace_;
  std::map<std::pair<std::size_t, std::size_t>, Tensor4f> direct_;
};

// ---------------------------------------------------------------------------
// Per-step plan replay
// ---------------------------------------------------------------------------

struct StepTime {
  std::string name;   ///< conv1_1 ... conv5_3, pool1 ..., fc
  std::string algo;   ///< conv algorithm, or "maxpool" / "fc"
  std::string layer;  ///< module whose kernel ran it
  bool conv = false;
  double ms = 0;            ///< median replayed time at the replay batch
  double predicted_ms = 0;  ///< LayerPlan::predicted_ms at the replay batch
  double ops = 0;           ///< spatial-convolution ops at the replay batch
};

struct Replay {
  std::vector<StepTime> steps;
  double forward_ms = 0;   ///< median forward(plan) at the replay batch
  bool identical = true;   ///< every step's output == reference composition
};

/// Time every step of `plan` on `input` (any batch) through the public
/// kernel the plan executor calls for it, with the step's own input and
/// output layouts, precomputed filter banks, the executor's image-parallel
/// split and its sub-batch walk. Each replayed output is checked byte for
/// byte against the layer-by-layer reference composition, and the
/// composition against nn::forward_reference. `plan_batch` is the
/// PlannerOptions::batch the plan was scored at.
Replay replay_plan(const wino::nn::ExecutionPlan& plan,
                   std::size_t plan_batch, const wino::nn::WeightBank& weights,
                   const Tensor4f& input, int reps, Trace& trace, int parent);

/// runtime::sgemm GFLOP/s at the im2col GEMM shape of every conv layer of
/// `layers`, `images` GEMMs per layer split image-parallel as the executor
/// does.
double sgemm_gflops(const std::vector<wino::nn::LayerSpec>& layers,
                    std::size_t images, int reps, Trace& trace, int parent);

/// runtime::igemm_nt GOP/s at the im2col shape of conv layer `conv_name`.
double igemm_gops(const std::vector<wino::nn::LayerSpec>& layers,
                  const std::string& conv_name, std::size_t images, int reps,
                  Trace& trace, int parent);

}  // namespace e2e

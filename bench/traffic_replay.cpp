// SLO traffic replay: the same seeded open-loop arrival trace is played
// against a kFifo server and a kEdf server (deadline shedding, cost-based
// admission, starvation bound), and the deadline outcomes are compared.
// Two trace shapes — Poisson at moderate utilisation and on/off bursts at
// high utilisation — over a mix of two model sizes and three traffic
// classes:
//
//   premium    priority 2, deadline 10x the model's measured per-image ms
//   standard   priority 1, deadline 25x
//   besteffort priority 0, no deadline (the slack EDF pushes delay into)
//
// The replay is open-loop (submission times come from the trace, not from
// completions), so an overloaded server cannot slow its own arrival
// process down — exactly the regime where FIFO completes everything late
// while EDF front-loads deadline'd traffic, sheds the doomed and rejects
// past the admission budget. A harvester thread polls the outstanding
// futures and timestamps completions client-side, giving per-class
// p50/p99/p999 latency plus deadline-miss and shed rates.
//
// Arrival rates are set against the served capacity, measured first by a
// closed-loop saturation probe through the same server configuration: the
// server batches requests and forward(plan) spreads a batch over the
// pool, so a rate derived from the single-image forward time would leave
// the "overloaded" trace far below what the host can serve.
//
// Emits BENCH_slo.json next to the binary (or at --out), with the measured
// capacity and the offered rates; CI gates the bursty-trace verdict (EDF
// beats FIFO on deadline-miss rate) and miss ceilings via
// check_bench_regression.py.
//
// Usage: traffic_replay [--quick] [--out <path>]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_io.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "serve/inference_server.hpp"
#include "tensor/tensor.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using wino::tensor::Tensor4f;

constexpr int kNumClasses = 3;
const char* const kClassNames[kNumClasses] = {"premium", "standard",
                                              "besteffort"};
constexpr int kClassPriority[kNumClasses] = {2, 1, 0};
/// Deadline as a multiple of the request's own model's measured per-image
/// cost (0 = best-effort). 20x leaves premium room for one batching window
/// plus a short queue; 50x survives moderate queueing but not a burst
/// tail behind FIFO.
constexpr double kClassDeadlineX[kNumClasses] = {20.0, 50.0, 0.0};

/// Traffic mix: 20% premium / 40% standard / 40% best-effort; 25% of
/// requests go to the large model.
constexpr int kPremiumPct = 20;
constexpr int kStandardPct = 40;
constexpr int kLargePct = 25;

struct TraceEvent {
  std::uint64_t t_us = 0;  ///< arrival offset from replay start
  int model = 0;           ///< 0 = small, 1 = large
  int klass = 0;
};

struct ClassStats {
  // Written by the submitter thread.
  std::uint64_t attempts = 0;
  std::uint64_t admission_rejected = 0;
  std::uint64_t capacity_rejected = 0;
  // Written by the harvester thread (after submitter/harvester join, safe
  // to read together with the above).
  std::uint64_t completed = 0;
  std::uint64_t late = 0;
  std::uint64_t shed = 0;
  std::uint64_t other_failures = 0;
  std::vector<double> latencies_us;  ///< completed requests only

  void accumulate(const ClassStats& o) {
    attempts += o.attempts;
    admission_rejected += o.admission_rejected;
    capacity_rejected += o.capacity_rejected;
    completed += o.completed;
    late += o.late;
    shed += o.shed;
    other_failures += o.other_failures;
    latencies_us.insert(latencies_us.end(), o.latencies_us.begin(),
                        o.latencies_us.end());
  }

  /// A deadline miss is any outcome other than completing on time.
  [[nodiscard]] std::uint64_t misses() const {
    return late + shed + admission_rejected + capacity_rejected;
  }
};

struct RunResult {
  std::string name;  ///< "<trace>-<policy>", the JSON selector key
  std::string trace;
  std::string policy;
  ClassStats classes[kNumClasses];
  std::uint64_t batches = 0;
  double mean_batch = 0.0;
  double wall_s = 0.0;

  /// Miss rate over the deadline-carrying classes (premium + standard).
  [[nodiscard]] double deadline_miss_rate() const {
    std::uint64_t miss = 0;
    std::uint64_t attempts = 0;
    for (int k = 0; k < kNumClasses; ++k) {
      if (kClassDeadlineX[k] <= 0) continue;
      miss += classes[k].misses();
      attempts += classes[k].attempts;
    }
    return attempts == 0 ? 0.0
                         : static_cast<double>(miss) /
                               static_cast<double>(attempts);
  }

  [[nodiscard]] double shed_rate() const {
    std::uint64_t shed = 0;
    std::uint64_t attempts = 0;
    for (const ClassStats& c : classes) {
      shed += c.shed;
      attempts += c.attempts;
    }
    return attempts == 0 ? 0.0
                         : static_cast<double>(shed) /
                               static_cast<double>(attempts);
  }
};

double median(std::vector<double> samples) {
  const auto mid =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

/// Median per-image forward time for one plan, in ms — the cost signal
/// written into the plan's predicted_total_ms and the unit deadlines are
/// expressed in.
double measure_image_ms(const wino::nn::ExecutionPlan& plan,
                        const wino::nn::WeightBank& weights,
                        const Tensor4f& image) {
  (void)wino::nn::forward(plan, weights, image);  // warm transforms
  std::vector<double> secs;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    (void)wino::nn::forward(plan, weights, image);
    secs.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(secs) * 1e3;
}

void draw_model_and_class(std::mt19937_64& engine, TraceEvent& ev) {
  std::uniform_int_distribution<int> pct(0, 99);
  ev.model = pct(engine) < kLargePct ? 1 : 0;
  const int c = pct(engine);
  ev.klass = c < kPremiumPct ? 0 : (c < kPremiumPct + kStandardPct ? 1 : 2);
}

/// Poisson arrivals at `utilization` of the measured served capacity,
/// given as `service_ms`, its mean time per request.
std::vector<TraceEvent> poisson_trace(std::size_t n, double service_ms,
                                      double utilization,
                                      std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  std::exponential_distribution<double> gap_us(
      utilization / (service_ms * 1e3));
  std::vector<TraceEvent> trace(n);
  double t = 0.0;
  for (TraceEvent& ev : trace) {
    t += gap_us(engine);
    ev.t_us = static_cast<std::uint64_t>(t);
    draw_model_and_class(engine, ev);
  }
  return trace;
}

/// On/off bursts: inside a burst arrivals run at `kBurstIntensity` times
/// service capacity; the off-gap after each burst restores `utilization`
/// on average. The burst tails are what separates EDF from FIFO.
std::vector<TraceEvent> bursty_trace(std::size_t n, double service_ms,
                                     double utilization,
                                     std::uint64_t seed) {
  constexpr double kBurstIntensity = 5.0;
  std::mt19937_64 engine(seed);
  std::exponential_distribution<double> intra_us(
      kBurstIntensity / (service_ms * 1e3));
  std::uniform_int_distribution<int> burst_len(32, 64);
  std::uniform_real_distribution<double> gap_jitter(0.8, 1.2);
  std::vector<TraceEvent> trace;
  trace.reserve(n);
  double t = 0.0;
  while (trace.size() < n) {
    const int len = burst_len(engine);
    for (int i = 0; i < len && trace.size() < n; ++i) {
      t += intra_us(engine);
      TraceEvent ev;
      ev.t_us = static_cast<std::uint64_t>(t);
      draw_model_and_class(engine, ev);
      trace.push_back(ev);
    }
    // Off period sized so the burst's work amortises to `utilization`.
    t += static_cast<double>(len) * service_ms * 1e3 *
         (1.0 / utilization - 1.0 / kBurstIntensity) * gap_jitter(engine);
  }
  return trace;
}

struct ModelSet {
  wino::nn::ExecutionPlan plan[2];
  wino::nn::WeightBank weights[2];
  Tensor4f image[2];  ///< one representative input per model
  double cost_ms[2] = {0.0, 0.0};
};

/// The batching and capacity settings every server here shares: the
/// capacity probe and both policies' replays.
wino::serve::ServerConfig base_config() {
  wino::serve::ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 2000;
  cfg.max_inflight = 512;
  cfg.backpressure = wino::serve::BackpressurePolicy::kReject;
  cfg.scheduling = wino::serve::SchedulingPolicy::kFifo;
  return cfg;
}

/// Served capacity in requests/s: a closed loop keeps 4 * max_batch
/// requests of the trace's model mix in flight through a FIFO server
/// built from base_config(), submitting the next as the oldest resolves,
/// so every batch can fill. Completions over the wall time from the first
/// submission to the last completion.
double measure_capacity_rps(const ModelSet& models, std::size_t requests,
                            std::uint64_t seed) {
  const wino::serve::ServerConfig cfg = base_config();
  wino::serve::InferenceServer server(cfg);
  const wino::serve::ModelId ids[2] = {
      server.add_model("small", models.plan[0], models.weights[0]),
      server.add_model("large", models.plan[1], models.weights[1])};
  std::mt19937_64 engine(seed);
  std::deque<std::future<Tensor4f>> in_flight;
  std::size_t submitted = 0;
  const auto t0 = Clock::now();
  while (submitted < requests || !in_flight.empty()) {
    if (submitted < requests && in_flight.size() < 4 * cfg.max_batch) {
      TraceEvent ev;
      draw_model_and_class(engine, ev);
      in_flight.push_back(
          server.submit(ids[ev.model], models.image[ev.model], {}));
      ++submitted;
    } else {
      (void)in_flight.front().get();
      in_flight.pop_front();
    }
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  server.shutdown();
  return static_cast<double>(requests) / wall_s;
}

/// Replay one trace against one policy: open-loop submission on this
/// thread, completion harvesting (poll + client-side timestamps) on a
/// helper thread.
RunResult replay(const std::string& trace_name,
                 wino::serve::SchedulingPolicy policy,
                 const std::vector<TraceEvent>& trace, const ModelSet& models,
                 double mean_cost_ms) {
  RunResult result;
  result.trace = trace_name;
  result.policy =
      policy == wino::serve::SchedulingPolicy::kEdf ? "edf" : "fifo";
  result.name = trace_name + "-" + result.policy;

  wino::serve::ServerConfig cfg = base_config();
  cfg.scheduling = policy;
  if (policy == wino::serve::SchedulingPolicy::kEdf) {
    // Budget ~60 mean requests of predicted backlog: far above steady
    // Poisson occupancy, clipping only the deepest burst tails (where
    // even the standard deadline is already hopeless). The starvation
    // bound keeps best-effort moving even then.
    cfg.admission_budget_ms = 60.0 * mean_cost_ms;
    cfg.starvation_bound_us =
        static_cast<std::uint64_t>(100.0 * mean_cost_ms * 1e3);
  }
  wino::serve::InferenceServer server(cfg);
  wino::serve::ModelId ids[2];
  ids[0] = server.add_model("small", models.plan[0], models.weights[0]);
  ids[1] = server.add_model("large", models.plan[1], models.weights[1]);

  struct Outstanding {
    std::future<Tensor4f> future;
    Clock::time_point submit{};
    Clock::time_point deadline{};
    bool has_deadline = false;
    int klass = 0;
  };
  std::mutex live_mutex;
  std::vector<Outstanding> live;
  std::atomic<bool> submitting_done{false};

  std::thread harvester([&] {
    std::vector<Outstanding> ready;
    for (;;) {
      ready.clear();
      {
        std::lock_guard<std::mutex> lock(live_mutex);
        for (auto it = live.begin(); it != live.end();) {
          if (it->future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            ready.push_back(std::move(*it));
            it = live.erase(it);
          } else {
            ++it;
          }
        }
        if (ready.empty() && live.empty() && submitting_done.load()) return;
      }
      const auto now = Clock::now();
      for (Outstanding& o : ready) {
        ClassStats& c = result.classes[o.klass];
        try {
          (void)o.future.get();
          ++c.completed;
          c.latencies_us.push_back(
              std::chrono::duration<double, std::micro>(now - o.submit)
                  .count());
          if (o.has_deadline && now > o.deadline) ++c.late;
        } catch (const wino::serve::DeadlineMissed&) {
          ++c.shed;
        } catch (...) {
          ++c.other_failures;
        }
      }
      if (ready.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
  });

  const auto t0 = Clock::now();
  for (const TraceEvent& ev : trace) {
    std::this_thread::sleep_until(t0 + std::chrono::microseconds(ev.t_us));
    ClassStats& c = result.classes[ev.klass];
    ++c.attempts;
    wino::serve::SubmitOptions opt;
    opt.priority = kClassPriority[ev.klass];
    opt.deadline_us = static_cast<std::uint64_t>(
        kClassDeadlineX[ev.klass] * models.cost_ms[ev.model] * 1e3);
    Outstanding o;
    o.submit = Clock::now();
    o.has_deadline = opt.deadline_us != 0;
    o.deadline = o.submit + std::chrono::microseconds(opt.deadline_us);
    o.klass = ev.klass;
    try {
      o.future = server.submit(ids[ev.model], models.image[ev.model], opt);
    } catch (const wino::serve::AdmissionRejected&) {
      ++c.admission_rejected;
      continue;
    } catch (const wino::serve::ServerOverloaded&) {
      ++c.capacity_rejected;
      continue;
    }
    std::lock_guard<std::mutex> lock(live_mutex);
    live.push_back(std::move(o));
  }
  server.drain();  // every admitted future resolves before we stop polling
  submitting_done.store(true);
  harvester.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const auto stats = server.stats();
  result.batches = stats.batches;
  result.mean_batch = stats.mean_batch_size;
  server.shutdown();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (!wino::common::validate_bench_args(
          argc, argv, {"--quick"},
          "traffic_replay [--quick] [--out <path>]")) {
    return 2;
  }
  const bool quick = wino::common::has_flag(argc, argv, "--quick");
  const std::size_t kRequests = quick ? 240 : 480;
  const int kReps = quick ? 2 : 3;
  // Utilisations are fractions of the measured served capacity (requests/s
  // at saturation, full batches). The Poisson trace at 0.55 stays in the
  // stable-queue regime (the "both policies do fine" control); the bursty
  // trace at 1.15 offers more than the server completed at saturation, so
  // it is overloaded by construction — deadline triage is then a
  // necessity, not a tiebreak, which keeps the EDF-vs-FIFO verdict
  // independent of how fast the host happens to be during the run.
  constexpr double kPoissonUtil = 0.55;
  constexpr double kBurstyUtil = 1.15;

  // Two model sizes; each plan carries its measured per-image cost so the
  // server's admission/shedding predictions line up with reality.
  ModelSet models;
  {
    const auto small_layers = wino::nn::vgg16_d_scaled(28, 8);  // 8x8 input
    const auto large_layers = wino::nn::vgg16_d_scaled(14, 8);  // 16x16
    models.weights[0] = wino::nn::random_weights(small_layers, 7);
    models.weights[1] = wino::nn::random_weights(large_layers, 13);
    models.plan[0] = wino::nn::uniform_plan(small_layers,
                                            wino::nn::ConvAlgo::kWinograd2);
    models.plan[1] = wino::nn::uniform_plan(large_layers,
                                            wino::nn::ConvAlgo::kWinograd2);
    wino::common::Rng rng(11);
    models.image[0] = Tensor4f(1, 3, 8, 8);
    models.image[1] = Tensor4f(1, 3, 16, 16);
    rng.fill_uniform(models.image[0].flat(), -1.0F, 1.0F);
    rng.fill_uniform(models.image[1].flat(), -1.0F, 1.0F);
    for (int m = 0; m < 2; ++m) {
      models.cost_ms[m] =
          measure_image_ms(models.plan[m], models.weights[m], models.image[m]);
      models.plan[m].predicted_total_ms = models.cost_ms[m];
    }
  }
  const double mean_cost_ms =
      (1.0 - kLargePct / 100.0) * models.cost_ms[0] +
      (kLargePct / 100.0) * models.cost_ms[1];

  const double capacity_rps = measure_capacity_rps(models, 2 * kRequests, 99);
  const double service_ms = 1e3 / capacity_rps;

  std::printf("traffic_replay — %zu requests/run, %d rep(s); "
              "small %.3f ms/img, large %.3f ms/img, mix mean %.3f ms; "
              "served capacity %.0f req/s, offered %.0f (poisson) and %.0f "
              "(bursty) req/s\n\n",
              kRequests, kReps, models.cost_ms[0], models.cost_ms[1],
              mean_cost_ms, capacity_rps, kPoissonUtil * capacity_rps,
              kBurstyUtil * capacity_rps);

  // Each rep generates one Poisson and one bursty trace, then replays the
  // IDENTICAL trace under both policies — the comparison is paired, so
  // trace-shape luck cancels out of the verdict. Counts aggregate across
  // reps; latencies pool.
  std::vector<RunResult> runs;
  for (const char* trace_name : {"poisson", "bursty"}) {
    for (const char* policy_name : {"fifo", "edf"}) {
      RunResult agg;
      agg.trace = trace_name;
      agg.policy = policy_name;
      agg.name = std::string(trace_name) + "-" + policy_name;
      runs.push_back(agg);
    }
  }
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(rep);
    const auto poisson =
        poisson_trace(kRequests, service_ms, kPoissonUtil, seed);
    const auto bursty =
        bursty_trace(kRequests, service_ms, kBurstyUtil, seed);
    const struct {
      const char* name;
      const std::vector<TraceEvent>* trace;
    } traces[] = {{"poisson", &poisson}, {"bursty", &bursty}};
    for (const auto& t : traces) {
      for (const auto policy : {wino::serve::SchedulingPolicy::kFifo,
                                wino::serve::SchedulingPolicy::kEdf}) {
        RunResult one =
            replay(t.name, policy, *t.trace, models, mean_cost_ms);
        for (RunResult& agg : runs) {
          if (agg.name == one.name) {
            for (int k = 0; k < kNumClasses; ++k) {
              agg.classes[k].accumulate(one.classes[k]);
            }
            agg.batches += one.batches;
            agg.wall_s += one.wall_s;
            agg.mean_batch += one.mean_batch / kReps;
          }
        }
      }
    }
  }

  wino::common::TextTable table;
  table.header({"run", "class", "attempts", "on-time", "late", "shed",
                "adm-rej", "p50 ms", "p99 ms", "p999 ms"});
  for (const RunResult& r : runs) {
    for (int k = 0; k < kNumClasses; ++k) {
      const ClassStats& c = r.classes[k];
      table.row(
          {r.name, kClassNames[k], std::to_string(c.attempts),
           std::to_string(c.completed - c.late), std::to_string(c.late),
           std::to_string(c.shed), std::to_string(c.admission_rejected),
           wino::common::TextTable::num(
               percentile(c.latencies_us, 0.5) / 1e3),
           wino::common::TextTable::num(
               percentile(c.latencies_us, 0.99) / 1e3),
           wino::common::TextTable::num(
               percentile(c.latencies_us, 0.999) / 1e3)});
    }
  }
  table.print();

  const auto find_run = [&](const std::string& name) -> const RunResult& {
    for (const RunResult& r : runs) {
      if (r.name == name) return r;
    }
    std::abort();  // unreachable: runs is built from the same name grid
  };
  const double fifo_poisson = find_run("poisson-fifo").deadline_miss_rate();
  const double edf_poisson = find_run("poisson-edf").deadline_miss_rate();
  const double fifo_bursty = find_run("bursty-fifo").deadline_miss_rate();
  const double edf_bursty = find_run("bursty-edf").deadline_miss_rate();
  const bool edf_beats_fifo_bursty = edf_bursty < fifo_bursty;
  // Both policies missing nothing is no regression: the bursty trace just
  // never overloaded the cores this run got.
  const char* verdict = edf_beats_fifo_bursty ? "EDF wins"
                        : edf_bursty == 0 && fifo_bursty == 0
                            ? "tie: trace did not overload this host"
                            : "FIFO WINS — regression";

  std::printf("\ndeadline-miss rate (premium+standard): poisson fifo %.3f / "
              "edf %.3f; bursty fifo %.3f / edf %.3f (%s)\n",
              fifo_poisson, edf_poisson, fifo_bursty, edf_bursty, verdict);

  // --- BENCH_slo.json ------------------------------------------------------
  const std::string json_path =
      wino::common::bench_output_path(argc, argv, "BENCH_slo.json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::printf("warning: could not open %s for writing\n",
                json_path.c_str());
    return 0;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"traffic_replay\",\n"
               "  \"quick\": %s,\n  \"requests_per_run\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"model_cost_ms\": {\"small\": %.4f, \"large\": %.4f},\n"
               "  \"capacity_rps\": %.1f,\n"
               "  \"offered_rps\": {\"poisson\": %.1f, \"bursty\": %.1f},\n"
               "  \"runs\": [\n",
               quick ? "true" : "false", kRequests, kReps,
               models.cost_ms[0], models.cost_ms[1], capacity_rps,
               kPoissonUtil * capacity_rps, kBurstyUtil * capacity_rps);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"trace\": \"%s\", "
                 "\"policy\": \"%s\",\n"
                 "     \"deadline_miss_rate\": %.4f, \"shed_rate\": %.4f,\n"
                 "     \"batches\": %llu, \"mean_batch\": %.3f, "
                 "\"wall_s\": %.3f,\n     \"classes\": [\n",
                 r.name.c_str(), r.trace.c_str(), r.policy.c_str(),
                 r.deadline_miss_rate(), r.shed_rate(),
                 static_cast<unsigned long long>(r.batches), r.mean_batch,
                 r.wall_s);
    for (int k = 0; k < kNumClasses; ++k) {
      const ClassStats& c = r.classes[k];
      const double miss_rate =
          c.attempts == 0 ? 0.0
                          : static_cast<double>(c.misses()) /
                                static_cast<double>(c.attempts);
      std::fprintf(
          json,
          "      {\"name\": \"%s\", \"priority\": %d, "
          "\"attempts\": %llu, \"completed\": %llu, \"late\": %llu, "
          "\"shed\": %llu, \"admission_rejected\": %llu, "
          "\"capacity_rejected\": %llu, \"other_failures\": %llu,\n"
          "       \"miss_rate\": %.4f, \"p50_us\": %.1f, "
          "\"p99_us\": %.1f, \"p999_us\": %.1f}%s\n",
          kClassNames[k], kClassPriority[k],
          static_cast<unsigned long long>(c.attempts),
          static_cast<unsigned long long>(c.completed),
          static_cast<unsigned long long>(c.late),
          static_cast<unsigned long long>(c.shed),
          static_cast<unsigned long long>(c.admission_rejected),
          static_cast<unsigned long long>(c.capacity_rejected),
          static_cast<unsigned long long>(c.other_failures), miss_rate,
          percentile(c.latencies_us, 0.5), percentile(c.latencies_us, 0.99),
          percentile(c.latencies_us, 0.999),
          k + 1 < kNumClasses ? "," : "");
    }
    std::fprintf(json, "     ]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"miss_rate\": {\"fifo_poisson\": %.4f, "
               "\"edf_poisson\": %.4f, \"fifo_bursty\": %.4f, "
               "\"edf_bursty\": %.4f},\n"
               "  \"edf_beats_fifo_bursty\": %s\n}\n",
               fifo_poisson, edf_poisson, fifo_bursty, edf_bursty,
               edf_beats_fifo_bursty ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

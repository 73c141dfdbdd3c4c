#include "serve/inference_server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <unordered_map>
#include <utility>

#include "nn/calibration_io.hpp"

namespace wino::serve {

using tensor::Tensor4f;

namespace {

ServerConfig sanitized(ServerConfig config) {
  config.max_batch = std::max<std::size_t>(1, config.max_batch);
  config.max_inflight = std::max<std::size_t>(1, config.max_inflight);
  config.worker_threads = std::max<std::size_t>(1, config.worker_threads);
  return config;
}

double microseconds_between(runtime::ClockSource::time_point from,
                            runtime::ClockSource::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

InferenceServer::InferenceServer(ServerConfig config)
    : config_(sanitized(std::move(config))),
      clock_(config_.clock ? config_.clock : &runtime::steady_clock_source()),
      queue_(config_.max_inflight),
      batch_queue_(config_.max_inflight),
      stats_(config_.max_batch, clock_) {
  if (!config_.calibration_cache_path.empty()) {
    // Warm nn's per-layer timing cache before any planning happens; a
    // stale/corrupt/foreign file simply loads nothing and the first
    // add_model_planned() times its layers as usual.
    nn::load_measured_state(config_.calibration_cache_path);
  }
  // The batcher's deadline waits (pop_until) are driven by this hook when
  // the clock is a ManualClock: every test advance() re-evaluates the
  // wait predicates. Against the steady source the hook never fires.
  wake_hook_token_ = clock_->add_wake_hook([this] { queue_.kick(); });
  batcher_ = std::thread(&InferenceServer::batcher_loop, this);
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back(&InferenceServer::worker_loop, this);
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

ModelId InferenceServer::add_model(std::string name,
                                   std::vector<nn::LayerSpec> layers,
                                   nn::WeightBank weights, nn::ConvAlgo algo) {
  return add_model(std::move(name), nn::uniform_plan(layers, algo),
                   std::move(weights));
}

ModelId InferenceServer::add_model(std::string name, nn::ExecutionPlan plan,
                                   nn::WeightBank weights) {
  if (plan.layers.empty()) {
    throw std::invalid_argument("add_model: empty layer stack");
  }
  if (plan.steps.size() != plan.layers.size()) {
    throw std::invalid_argument(
        "add_model: plan steps do not match its layer stack");
  }
  // Size execution state at registration, not first request: filter
  // transforms into the cross-call cache, and one workspace slab per pool
  // participant from MemoryPlan.peak_bytes — per-request memory becomes a
  // planned constant under the model's effective batch cap (the plan's
  // cache-derived ceiling clamped by the configured max_batch).
  const std::size_t warm_batch =
      plan.batch_ceiling > 0 ? std::min(plan.batch_ceiling, config_.max_batch)
                             : config_.max_batch;
  nn::prewarm_workspaces(plan, weights, warm_batch);
  auto model = std::make_shared<const Model>(
      Model{std::move(name), std::move(plan), std::move(weights)});
  std::lock_guard lock(models_mutex_);
  models_.push_back(std::move(model));
  return models_.size() - 1;
}

ModelId InferenceServer::add_model_planned(std::string name,
                                           std::vector<nn::LayerSpec> layers,
                                           nn::WeightBank weights,
                                           const nn::PlannerOptions& options) {
  const ModelId id = add_model(std::move(name),
                               nn::plan_execution(layers, options),
                               std::move(weights));
  if (!config_.calibration_cache_path.empty()) {
    // Persist the per-layer timings planning just measured, so the next
    // server process re-times none of them and registers this
    // architecture near-instantly.
    nn::save_measured_state(config_.calibration_cache_path);
  }
  return id;
}

ModelId InferenceServer::add_model_quantized(
    std::string name, std::vector<nn::LayerSpec> layers,
    nn::WeightBank weights, const Tensor4f& calibration_sample,
    double max_rel_error, nn::PlannerOptions options) {
  options.quant = nn::calibrate_activations(layers, weights,
                                            calibration_sample);
  options.constraints.max_rel_error = max_rel_error;
  for (const nn::ConvAlgo algo : nn::quantized_candidates()) {
    if (std::find(options.candidates.begin(), options.candidates.end(),
                  algo) == options.candidates.end()) {
      options.candidates.push_back(algo);
    }
  }
  return add_model_planned(std::move(name), std::move(layers),
                           std::move(weights), options);
}

std::shared_ptr<const InferenceServer::Model> InferenceServer::find_model(
    ModelId model) const {
  std::lock_guard lock(models_mutex_);
  if (model >= models_.size()) {
    throw std::invalid_argument("InferenceServer: unknown model id");
  }
  return models_[model];
}

std::future<Tensor4f> InferenceServer::submit(ModelId model, Tensor4f image,
                                              SubmitOptions options) {
  const auto session = find_model(model);
  const auto& shape = image.shape();
  if (shape.n != 1) {
    throw std::invalid_argument(
        "InferenceServer::submit: expected a single image (n == 1); batching "
        "is the server's job");
  }
  // Validate the shape as far as the first layer determines it, so one
  // malformed request cannot poison the whole batch it gets coalesced
  // into (stack_images would throw on the worker, failing every future).
  const auto& layers = session->plan.layers;
  if (layers.front().kind == nn::LayerKind::kConv) {
    const auto& conv = layers.front().conv;
    if (shape.c != conv.c || shape.h != conv.h || shape.w != conv.w) {
      throw std::invalid_argument(
          "InferenceServer::submit: image shape does not match model '" +
          session->name + "' input");
    }
  } else if (layers.front().kind == nn::LayerKind::kFullyConnected) {
    if (shape.c * shape.h * shape.w != layers.front().fc_in) {
      throw std::invalid_argument(
          "InferenceServer::submit: image volume does not match model '" +
          session->name + "' fc input");
    }
  }

  // One image's share of the plan's cost at the batch it was scored at.
  const double predicted_ms =
      session->plan.predicted_total_ms /
      static_cast<double>(std::max<std::size_t>(1, session->plan.batch));
  std::uint64_t seq = 0;

  // Admission control: bound submitted-but-not-completed requests, and —
  // when a cost budget is configured — bound the *predicted* backlog too.
  {
    std::unique_lock lock(inflight_mutex_);
    if (!accepting_) {
      throw std::runtime_error(
          "InferenceServer::submit: server is shut down");
    }
    if (inflight_ >= config_.max_inflight) {
      if (config_.backpressure == BackpressurePolicy::kReject) {
        stats_.on_reject();
        throw ServerOverloaded("InferenceServer::submit: " +
                               std::to_string(inflight_) +
                               " requests in flight (max_inflight reached)");
      }
      // Counted so shutdown() can wait until every parked submitter has
      // left this wait before the destructor tears the cv/mutex down.
      ++blocked_submitters_;
      inflight_cv_.wait(lock, [&] {
        return !accepting_ || inflight_ < config_.max_inflight;
      });
      --blocked_submitters_;
      if (!accepting_) {
        lock.unlock();
        inflight_cv_.notify_all();  // let shutdown() observe the decrement
        // Not counted as rejected: that counter is the kReject policy's
        // alone. This request simply never made it in before shutdown.
        throw ServerOverloaded(
            "InferenceServer::submit: server shut down while blocked on "
            "backpressure");
      }
    }
    // Cost-based admission, checked after a capacity slot is secured so a
    // kBlock submitter re-evaluates against the backlog it actually joins.
    if (config_.scheduling == SchedulingPolicy::kEdf &&
        config_.admission_budget_ms > 0.0 &&
        backlog_predicted_ms_ + predicted_ms > config_.admission_budget_ms) {
      stats_.on_admission_reject();
      throw AdmissionRejected(
          "InferenceServer::submit: predicted backlog " +
          std::to_string(backlog_predicted_ms_ + predicted_ms) +
          " ms exceeds admission budget for model '" + session->name + "'");
    }
    ++inflight_;
    backlog_predicted_ms_ += predicted_ms;
    seq = next_seq_++;
  }

  Request request;
  request.model = model;
  request.image = std::move(image);
  request.enqueue = clock_->now();
  if (options.deadline_us > 0) {
    request.deadline =
        request.enqueue + std::chrono::microseconds(options.deadline_us);
    request.has_deadline = true;
  }
  request.priority = options.priority;
  request.predicted_ms = predicted_ms;
  request.batch_cap = session->plan.batch_ceiling > 0
                          ? std::min(session->plan.batch_ceiling,
                                     config_.max_batch)
                          : config_.max_batch;
  request.seq = seq;
  request.tag = options.tag;
  std::future<Tensor4f> result = request.promise.get_future();
  if (!queue_.push(std::move(request))) {
    // shutdown() closed the queue between admission and the push; the
    // request never reached the batcher, so undo its in-flight slot.
    // (on_submit deliberately hasn't fired yet: the counters must keep
    // submitted == completed + shed + inflight reconcilable.)
    finish_requests(1, predicted_ms);
    throw ServerOverloaded(
        "InferenceServer::submit: server shut down during submit");
  }
  stats_.on_submit();
  return result;
}

bool InferenceServer::starved(const Request& r, Clock::time_point now) const {
  return config_.starvation_bound_us > 0 &&
         now - r.enqueue >=
             std::chrono::microseconds(config_.starvation_bound_us);
}

bool InferenceServer::schedule_before(const Request& a, const Request& b,
                                      Clock::time_point now) const {
  if (config_.scheduling == SchedulingPolicy::kFifo) return a.seq < b.seq;
  // Starvation promotion outranks every class: among promoted requests,
  // arrival order (they are all equally overdue by policy).
  const bool sa = starved(a, now);
  const bool sb = starved(b, now);
  if (sa != sb) return sa;
  if (sa) return a.seq < b.seq;
  if (a.priority != b.priority) return a.priority > b.priority;
  // EDF within the class; deadline-less requests sort last (time_point::max
  // from construction), ties broken by admission order for determinism.
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.seq < b.seq;
}

void InferenceServer::batcher_loop() {
  const bool edf = config_.scheduling == SchedulingPolicy::kEdf;
  const auto max_wait = std::chrono::microseconds(config_.max_wait_us);
  std::unordered_map<ModelId, Pool> pools;

  const auto absorb = [&](Request&& r) {
    Pool& pool = pools[r.model];
    const ModelId model = r.model;
    pool.cap = r.batch_cap;  // per-model constant (plan is frozen)
    pool.requests.push_back(std::move(r));
    if (config_.pending_observer) {
      config_.pending_observer(model, pool.requests.size());
    }
  };

  // Fail every pool request that can no longer make its deadline:
  // predicted to finish past it — strict inequality throughout, so a
  // request that would finish exactly on time still runs (and a zero-cost
  // request dispatched exactly at its deadline counts as on time). The
  // pure "deadline already passed" hard shed is the predicted_ms == 0
  // special case. kEdf only; kFifo never sheds.
  const auto shed_sweep = [&](Clock::time_point now) {
    for (auto& [model, pool] : pools) {
      auto& rs = pool.requests;
      for (auto it = rs.begin(); it != rs.end();) {
        const bool infeasible =
            it->has_deadline &&
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          it->predicted_ms)) >
                it->deadline;
        if (infeasible) {
          shed_request(*it);
          it = rs.erase(it);
        } else {
          ++it;
        }
      }
    }
  };

  // Dispatch up to the pool's cap (the model's plan-derived batch
  // ceiling clamped by max_batch) in schedule order, then trade batch
  // size against the tightest member's slack: grow the batch in schedule
  // order accumulating predicted cost, and stop before the member whose
  // admission would push the batch's predicted completion past the
  // tightest deadline taken so far — strict comparison, matching the shed
  // sweep, so finishing exactly on time still ships. The head request
  // always dispatches (shedding is the sweep's job, not assembly's).
  const auto assemble = [&](ModelId model, Pool& pool, Clock::time_point now) {
    auto& rs = pool.requests;
    std::stable_sort(rs.begin(), rs.end(),
                     [&](const Request& a, const Request& b) {
                       return schedule_before(a, b, now);
                     });
    const std::size_t cap =
        pool.cap > 0 ? std::min(pool.cap, rs.size()) : rs.size();
    std::size_t take = 0;
    if (edf) {
      double cost_ms = 0.0;
      auto tightest = Clock::time_point::max();
      while (take < cap) {
        const Request& r = rs[take];
        const auto cand_tightest =
            r.has_deadline ? std::min(tightest, r.deadline) : tightest;
        const double cand_cost = cost_ms + r.predicted_ms;
        if (take > 0 && cand_tightest != Clock::time_point::max() &&
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(cand_cost)) >
                cand_tightest) {
          break;
        }
        tightest = cand_tightest;
        cost_ms = cand_cost;
        ++take;
      }
      take = std::max<std::size_t>(take, 1);
    } else {
      take = cap;
    }
    Batch batch;
    batch.model = model;
    batch.requests.reserve(take);
    std::move(rs.begin(), rs.begin() + static_cast<std::ptrdiff_t>(take),
              std::back_inserter(batch.requests));
    rs.erase(rs.begin(), rs.begin() + static_cast<std::ptrdiff_t>(take));
    stats_.on_batch(batch.requests.size());
    if (config_.batch_detail_observer) {
      std::vector<BatchRequestInfo> info;
      info.reserve(batch.requests.size());
      for (const Request& r : batch.requests) {
        info.push_back({r.tag, r.priority, r.has_deadline, r.seq});
      }
      config_.batch_detail_observer(model, info);
    }
    batch_queue_.push(std::move(batch));  // only this thread closes it
  };

  // A pool is due when it holds a full batch, its oldest request has
  // waited max_wait, or (kEdf) some request has reached its launch-by
  // point — deadline minus predicted cost — so waiting any longer would
  // turn a meetable deadline into a (predictive) shed.
  const auto launch_by = [&](const Request& r) {
    return r.deadline - std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                r.predicted_ms));
  };
  const auto pool_due_at = [&](const Pool& pool) {
    auto due = Clock::time_point::max();
    for (const Request& r : pool.requests) {
      due = std::min(due, r.enqueue + max_wait);
      if (edf && r.has_deadline) due = std::min(due, launch_by(r));
    }
    return due;
  };
  const auto dispatch_ready = [&](Clock::time_point now) {
    for (auto it = pools.begin(); it != pools.end();) {
      Pool& pool = it->second;
      const std::size_t full =
          pool.cap > 0 ? pool.cap : config_.max_batch;
      while (pool.requests.size() >= full) {
        assemble(it->first, pool, now);
      }
      if (!pool.requests.empty() && pool_due_at(pool) <= now) {
        assemble(it->first, pool, now);
      }
      it = pool.requests.empty() ? pools.erase(it) : ++it;
    }
  };

  for (;;) {
    // Eager drain: coalesce everything already queued before looking at
    // the clock, so a burst of concurrent submits forms full batches.
    while (auto r = queue_.try_pop()) absorb(std::move(*r));

    const auto now = clock_->now();
    if (edf) shed_sweep(now);
    dispatch_ready(now);

    std::optional<Request> request;
    if (pools.empty()) {
      request = queue_.pop();
    } else {
      auto wake = Clock::time_point::max();
      for (const auto& [model, pool] : pools) {
        wake = std::min(wake, pool_due_at(pool));
      }
      if (wake <= now) continue;  // a sweep just changed what is due
      request = queue_.pop_until(*clock_, wake);
    }

    if (request) {
      absorb(std::move(*request));
    } else if (queue_.closed()) {
      // Drained after shutdown: dispatch whatever is still pending so no
      // admitted future is dropped (expired requests still shed — their
      // futures resolve with DeadlineMissed), then stop the workers.
      while (auto r = queue_.try_pop()) absorb(std::move(*r));
      const auto end = clock_->now();
      if (edf) shed_sweep(end);
      for (auto& [model, pool] : pools) {
        while (!pool.requests.empty()) assemble(model, pool, end);
      }
      pools.clear();
      break;
    }
    // else: a timed wait elapsed (or a kick fired); loop re-evaluates.
  }
  batch_queue_.close();
}

void InferenceServer::worker_loop() {
  while (auto batch = batch_queue_.pop()) {
    execute(std::move(*batch));
  }
}

void InferenceServer::shed_request(Request& request) {
  stats_.on_shed();
  request.promise.set_exception(std::make_exception_ptr(DeadlineMissed(
      "InferenceServer: request shed — deadline unmeetable before "
      "execution")));
  finish_requests(1, request.predicted_ms);
}

void InferenceServer::execute(Batch batch, bool is_retry) {
  // Hard shed at the execution edge: time kept moving while the batch sat
  // in the dispatch queue, so requests whose deadline passed since
  // assembly are failed here instead of burning compute. (Assembly-time
  // feasibility used the predictive check; here only certainty sheds.)
  if (config_.scheduling == SchedulingPolicy::kEdf && !is_retry) {
    const auto now = clock_->now();
    auto& rs = batch.requests;
    for (auto it = rs.begin(); it != rs.end();) {
      if (it->has_deadline && now > it->deadline) {
        shed_request(*it);
        it = rs.erase(it);
      } else {
        ++it;
      }
    }
    if (rs.empty()) return;  // whole batch expired in the dispatch queue
  }
  const std::size_t count = batch.requests.size();
  double batch_predicted_ms = 0.0;
  for (const Request& r : batch.requests) batch_predicted_ms += r.predicted_ms;
  try {
    // Inside the try: a throwing observer fails this batch's futures
    // instead of escaping the worker thread (std::terminate) — and the
    // in-flight slots are still released below. Retries are internal
    // salvage dispatches, not new batches: the observer (like
    // stats().batches) sees each flushed batch exactly once.
    if (config_.batch_observer && !is_retry) {
      config_.batch_observer(batch.model, batch.requests.size());
    }
    const auto model = find_model(batch.model);
    std::vector<const Tensor4f*> images;
    images.reserve(count);
    for (const Request& r : batch.requests) images.push_back(&r.image);
    const Tensor4f input = nn::stack_images(images);
    const Tensor4f output = nn::forward(model->plan, model->weights, input);
    std::vector<Tensor4f> outputs = nn::unstack_images(output);

    const auto now = clock_->now();
    for (std::size_t i = 0; i < count; ++i) {
      Request& r = batch.requests[i];
      // Stats before set_value: the moment the future resolves, a client
      // may read stats() and must find its own request counted (pinned by
      // serve_test under the TSan CI job, whose scheduling jitter caught
      // the reversed order).
      stats_.on_complete(microseconds_between(r.enqueue, now),
                         r.has_deadline && now > r.deadline);
      r.promise.set_value(std::move(outputs[i]));
    }
  } catch (...) {
    if (count > 1) {
      // One request must not poison its batch-mates (e.g. a malformed
      // image submit() could not fully validate failing stack_images for
      // everyone): retry each request alone so only the culprit fails.
      for (Request& r : batch.requests) {
        Batch single;
        single.model = batch.model;
        single.requests.push_back(std::move(r));
        execute(std::move(single), /*is_retry=*/true);
      }
      return;  // the per-request retries released the in-flight slots
    }
    const auto error = std::current_exception();
    const auto now = clock_->now();
    for (Request& r : batch.requests) {
      stats_.on_complete(microseconds_between(r.enqueue, now),
                         r.has_deadline && now > r.deadline);
      r.promise.set_exception(error);
    }
  }
  finish_requests(count, batch_predicted_ms);
}

void InferenceServer::finish_requests(std::size_t count, double predicted_ms) {
  {
    std::lock_guard lock(inflight_mutex_);
    inflight_ -= std::min(count, inflight_);
    backlog_predicted_ms_ =
        std::max(0.0, backlog_predicted_ms_ - predicted_ms);
    if (inflight_ == 0) backlog_predicted_ms_ = 0.0;  // kill fp drift
  }
  inflight_cv_.notify_all();
}

void InferenceServer::drain() {
  std::unique_lock lock(inflight_mutex_);
  inflight_cv_.wait(lock, [&] { return inflight_ == 0; });
}

void InferenceServer::shutdown() {
  std::lock_guard shutdown_lock(shutdown_mutex_);
  {
    std::unique_lock lock(inflight_mutex_);
    accepting_ = false;
    inflight_cv_.notify_all();  // wake submitters blocked on backpressure
    // Wait for every parked submitter to leave its cv wait: returning
    // earlier would let the destructor destroy the cv/mutex under them.
    inflight_cv_.wait(lock, [&] { return blocked_submitters_ == 0; });
  }
  queue_.close();  // batcher drains, flushes pending, stops workers
  if (batcher_.joinable()) batcher_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (wake_hook_token_ != 0) {
    // After this returns the hook can never run again (fire_wake_hooks
    // holds the registry lock), so destroying queue_ is safe even while a
    // test thread keeps advancing the ManualClock.
    clock_->remove_wake_hook(wake_hook_token_);
    wake_hook_token_ = 0;
  }
}

ServerStats InferenceServer::stats() const {
  std::size_t inflight = 0;
  std::size_t blocked = 0;
  double backlog_ms = 0.0;
  {
    std::lock_guard lock(inflight_mutex_);
    inflight = inflight_;
    blocked = blocked_submitters_;
    backlog_ms = backlog_predicted_ms_;
  }
  return stats_.snapshot(queue_.size(), inflight, blocked, backlog_ms);
}

const nn::WeightBank& InferenceServer::model_weights(ModelId model) const {
  // The shared_ptr keeps the Model alive for the server's lifetime;
  // handing out a reference is safe because models are never removed.
  return find_model(model)->weights;
}

const std::vector<nn::LayerSpec>& InferenceServer::model_layers(
    ModelId model) const {
  return find_model(model)->plan.layers;
}

const nn::ExecutionPlan& InferenceServer::model_plan(ModelId model) const {
  return find_model(model)->plan;
}

}  // namespace wino::serve

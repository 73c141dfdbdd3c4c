// Open-loop Poisson load against serve::InferenceServer.
//
// Arrival times, session choice and image choice are drawn up front from
// the run seed, so the same seed offers the same traffic. The calling
// thread submits on schedule; one harvester per session waits on that
// session's futures in submission order (a session's batches complete in
// that order with one server worker) and stamps completions. Latency runs
// from the scheduled send time, so a stalled submitter charges its delay
// to every request queued behind it.
#include <condition_variable>
#include <random>
#include <thread>

#include "e2e.hpp"

namespace e2e {

using wino::serve::BatchRequestInfo;
using wino::serve::DeadlineMissed;
using wino::serve::ServerOverloaded;

void PhaseProbe::install(wino::serve::ServerConfig& config) {
  config.batch_detail_observer =
      [this](wino::serve::ModelId, const std::vector<BatchRequestInfo>& info) {
        on_assembled(info);
      };
  config.batch_observer = [this](wino::serve::ModelId, std::size_t) {
    on_dispatch();
  };
}

void PhaseProbe::arm(std::size_t tags) {
  stamps.assign(tags + 1, Stamp{});
  {
    std::lock_guard lock(mutex_);
    fifo_.clear();
    batch_dispatched.clear();
  }
  armed_.store(true);
}

void PhaseProbe::disarm() { armed_.store(false); }

void PhaseProbe::on_assembled(const std::vector<BatchRequestInfo>& info) {
  if (!armed_.load()) return;
  const auto now = Clock::now();
  std::vector<std::uint64_t> tags;
  tags.reserve(info.size());
  for (const BatchRequestInfo& r : info) {
    if (r.tag < stamps.size()) stamps[r.tag].assembled = now;
    tags.push_back(r.tag);
  }
  std::lock_guard lock(mutex_);
  fifo_.push_back(std::move(tags));
}

void PhaseProbe::on_dispatch() {
  if (!armed_.load()) return;
  const auto now = Clock::now();
  std::lock_guard lock(mutex_);
  if (fifo_.empty()) return;
  const std::size_t batch = batch_dispatched.size();
  batch_dispatched.push_back(now);
  for (const std::uint64_t tag : fifo_.front()) {
    if (tag < stamps.size()) {
      stamps[tag].dispatched = now;
      stamps[tag].batch = batch;
    }
  }
  fifo_.pop_front();
}

LoadGenerator::LoadGenerator(wino::serve::InferenceServer& server,
                             std::vector<Session> sessions,
                             std::uint64_t seed, PhaseProbe* probe,
                             Trace& trace)
    : server_(server),
      sessions_(std::move(sessions)),
      seed_(seed),
      probe_(probe),
      trace_(trace) {}

const Tensor4f& LoadGenerator::direct_output(std::size_t session,
                                             std::size_t image) {
  const auto key = std::make_pair(session, image);
  auto it = direct_.find(key);
  if (it == direct_.end()) {
    const auto id = sessions_[session].id;
    it = direct_
             .emplace(key, wino::nn::forward(server_.model_plan(id),
                                             server_.model_weights(id),
                                             sessions_[session].images[image]))
             .first;
  }
  return it->second;
}

namespace {

struct Arrival {
  double t_s = 0;
  std::size_t session = 0;
  std::size_t image = 0;
};

struct Pending {
  std::future<Tensor4f> future;
  std::uint64_t tag = 0;
  std::size_t image = 0;
  Clock::time_point due{};
  Clock::time_point entered{};    ///< submit() called
  Clock::time_point submitted{};  ///< submit() returned
};

/// One session's harvester: a queue fed by the submitter and the
/// completions it stamps.
struct Harvest {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;
  // Written by the harvester thread only; read after join.
  std::uint64_t completed = 0, shed = 0, thrown = 0;
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms, dispatch_wait_ms, exec_ms;  ///< traced
  std::vector<std::pair<std::size_t, Tensor4f>> samples;  ///< image, output
  Clock::time_point last_ready{};
};

/// One window's harvester threads. finish() — also run by the destructor,
/// so an exception in the submit loop cannot leave a thread unjoined —
/// tells every harvester that no more requests come, then joins it.
class Harvesters {
 public:
  explicit Harvesters(std::vector<Harvest>& harvests) : harvests_(harvests) {}
  ~Harvesters() { finish(); }
  Harvesters(const Harvesters&) = delete;
  Harvesters& operator=(const Harvesters&) = delete;

  template <typename F>
  void start(F body) {
    threads_.emplace_back(std::move(body));
  }

  void finish() {
    for (Harvest& h : harvests_) {
      {
        std::lock_guard lock(h.mutex);
        h.done = true;
      }
      h.cv.notify_one();
    }
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::vector<Harvest>& harvests_;
  std::vector<std::thread> threads_;
};

constexpr std::uint64_t kCheckEvery = 64;

}  // namespace

Window LoadGenerator::run(double rate, double seconds, bool traced) {
  // Arrivals for this window, from (seed, window index).
  std::mt19937_64 rng(seed_ * 0x9E3779B97F4A7C15ull + ++windows_);
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Arrival> arrivals;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    Arrival a;
    a.t_s = t;
    double pick = unit(rng);
    while (a.session + 1 < sessions_.size() &&
           pick >= sessions_[a.session].share) {
      pick -= sessions_[a.session].share;
      ++a.session;
    }
    a.image = std::uniform_int_distribution<std::size_t>(
        0, sessions_[a.session].images.size() - 1)(rng);
    arrivals.push_back(a);
  }

  traced = traced && probe_ != nullptr && trace_.enabled();
  if (traced) probe_->arm(arrivals.size());
  const std::uint64_t request_base = next_request_;
  next_request_ += arrivals.size() + 1;
  const auto before = server_.stats();

  Window w;
  std::vector<Harvest> harvests(sessions_.size());
  Harvesters harvesters(harvests);
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    harvesters.start([&, s] {
      Harvest& h = harvests[s];
      for (;;) {
        Pending p;
        {
          std::unique_lock lock(h.mutex);
          h.cv.wait(lock, [&] { return !h.queue.empty() || h.done; });
          if (h.queue.empty()) return;
          p = std::move(h.queue.front());
          h.queue.pop_front();
        }
        p.future.wait();
        const auto ready = Clock::now();
        h.last_ready = ready;
        bool ok = false;
        try {
          Tensor4f out = p.future.get();
          ok = true;
          ++h.completed;
          h.latency_ms.push_back(ms_between(p.due, ready));
          if (p.tag % kCheckEvery == 0) {
            h.samples.emplace_back(p.image, std::move(out));
          }
        } catch (const DeadlineMissed&) {
          ++h.shed;
        } catch (...) {
          ++h.thrown;
        }
        if (!traced || !ok) continue;
        PhaseProbe::Stamp& st = probe_->stamps[p.tag];
        st.ready = ready;
        h.queue_wait_ms.push_back(ms_between(p.submitted, st.assembled));
        h.dispatch_wait_ms.push_back(ms_between(st.assembled, st.dispatched));
        h.exec_ms.push_back(ms_between(st.dispatched, ready));
        const std::uint64_t req = request_base + p.tag;
        const int root = trace_.add("request", "gen", p.due, ready, -1, req);
        trace_.add("serve.submit", "serve", p.entered, p.submitted, root, req);
        trace_.add("serve.queue_wait", "serve", p.submitted, st.assembled,
                   root, req);
        trace_.add("serve.dispatch_wait", "serve", st.assembled,
                   st.dispatched, root, req);
        trace_.add("serve.exec", "nn", st.dispatched, ready, root, req);
      }
    });
  }

  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    Pending p;
    p.tag = i + 1;
    p.image = a.image;
    p.due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(a.t_s));
    // Copy the input before the send time: the client owns its tensor.
    Tensor4f image = sessions_[a.session].images[a.image];
    std::this_thread::sleep_until(p.due);
    const auto enter = Clock::now();
    ++w.attempted;
    try {
      wino::serve::SubmitOptions opt;
      opt.tag = p.tag;
      p.future = server_.submit(sessions_[a.session].id, std::move(image), opt);
    } catch (const ServerOverloaded&) {
      ++w.refused;
      continue;
    } catch (...) {
      ++w.thrown;
      continue;
    }
    p.entered = enter;
    p.submitted = Clock::now();
    w.late_ms.push_back(ms_between(p.due, enter));
    w.submit_us.push_back(ms_between(enter, p.submitted) * 1e3);
    Harvest& h = harvests[a.session];
    {
      std::lock_guard lock(h.mutex);
      h.queue.push_back(std::move(p));
    }
    h.cv.notify_one();
  }
  harvesters.finish();
  if (traced) probe_->disarm();

  const auto window_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto last_ready = t0;
  for (std::size_t s = 0; s < harvests.size(); ++s) {
    Harvest& h = harvests[s];
    w.completed += h.completed;
    w.shed += h.shed;
    w.thrown += h.thrown;
    w.latency_ms.insert(w.latency_ms.end(), h.latency_ms.begin(),
                        h.latency_ms.end());
    w.queue_wait_ms.insert(w.queue_wait_ms.end(), h.queue_wait_ms.begin(),
                           h.queue_wait_ms.end());
    w.dispatch_wait_ms.insert(w.dispatch_wait_ms.end(),
                              h.dispatch_wait_ms.begin(),
                              h.dispatch_wait_ms.end());
    w.request_exec_ms.insert(w.request_exec_ms.end(), h.exec_ms.begin(),
                             h.exec_ms.end());
    last_ready = std::max(last_ready, h.last_ready);
    for (const auto& [image, out] : h.samples) {
      ++w.checked;
      if (!same_bytes(out, direct_output(s, image))) ++w.mismatched;
    }
  }
  w.drain_s = std::max(0.0, ms_between(window_end, last_ready) / 1e3);
  w.achieved_rps = static_cast<double>(w.completed) /
                   std::max(seconds, ms_between(t0, last_ready) / 1e3);

  const auto after = server_.stats();
  double batches = 0;
  double images = 0;
  for (std::size_t b = 1; b < after.batch_size_histogram.size(); ++b) {
    const double n = static_cast<double>(after.batch_size_histogram[b] -
                                         before.batch_size_histogram[b]);
    batches += n;
    images += n * static_cast<double>(b);
  }
  w.mean_batch = batches > 0 ? images / batches : 0.0;

  if (traced) {
    // Per batch: dispatch -> the first of its futures to be stamped ready.
    std::vector<Clock::time_point> first_ready(
        probe_->batch_dispatched.size(), Clock::time_point::max());
    for (std::size_t tag = 1; tag < probe_->stamps.size(); ++tag) {
      const PhaseProbe::Stamp& st = probe_->stamps[tag];
      if (st.ready == Clock::time_point{} ||
          st.dispatched == Clock::time_point{}) {
        continue;
      }
      first_ready[st.batch] = std::min(first_ready[st.batch], st.ready);
    }
    double busy_ms = 0;
    for (std::size_t b = 0; b < first_ready.size(); ++b) {
      if (first_ready[b] == Clock::time_point::max()) continue;
      const double ms = ms_between(probe_->batch_dispatched[b], first_ready[b]);
      w.exec_ms.push_back(ms);
      busy_ms += ms;
    }
    w.busy_frac = busy_ms / (seconds * 1e3);
  }
  return w;
}

}  // namespace e2e

// Span recorder and the statistics helpers shared by the benchmark.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "e2e.hpp"

namespace e2e {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size()));
  return samples[std::min(samples.size() - 1, rank)];
}

double median(std::vector<double> samples) { return percentile(samples, 0.5); }

bool same_bytes(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

Tensor4f slice_images(const Tensor4f& batch, std::size_t first,
                      std::size_t count) {
  const auto& s = batch.shape();
  Tensor4f out(count, s.c, s.h, s.w);
  const std::size_t vol = s.c * s.h * s.w;
  std::copy_n(batch.flat().begin() + static_cast<std::ptrdiff_t>(first * vol),
              count * vol, out.flat().begin());
  return out;
}

namespace {

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int id = next++;
  return id;
}

}  // namespace

int Trace::add(std::string name, std::string layer, Clock::time_point start,
               Clock::time_point end, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard lock(mutex_);
  spans_.push_back({std::move(name), std::move(layer), start, end, parent,
                    request, thread_number()});
  return static_cast<int>(spans_.size()) - 1;
}

int Trace::open(std::string name, std::string layer, int parent) {
  const auto now = Clock::now();
  return add(std::move(name), std::move(layer), now, now, parent);
}

void Trace::close(int id) {
  if (id < 0) return;
  const auto now = Clock::now();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::size_t Trace::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::vector<std::pair<std::string, double>> Trace::self_ms_by_layer() const {
  std::lock_guard lock(mutex_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_layer[s.layer] += std::max(0.0, ms_between(s.start, s.end) - child_ms[i]);
  }
  std::vector<std::pair<std::string, double>> out(by_layer.begin(),
                                                  by_layer.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

bool Trace::write_chrome(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mutex_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start -
                                                                origin_)
                          .count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"request\": "
                 "%llu}}%s\n",
                 s.name.c_str(), s.layer.c_str(), ts, dur, s.thread, i,
                 s.parent, static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e

// Serving a scaled VGG16-D with the dynamic-batching InferenceServer.
//
// Four client threads fire single-image requests at one server; the
// batcher coalesces them into batches of up to 8, the batch-parallel
// forward pass executes them on the global ThreadPool, and the cross-call
// transformed-kernel cache means the Winograd filter transforms are paid
// once for the whole traffic stream. The example finishes by cross-checking
// one served output against direct nn::forward — bit-identical by the
// library's determinism contract.
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/table.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "serve/inference_server.hpp"
#include "tensor/tensor.hpp"

using wino::tensor::Tensor4f;

// Usage: ./examples/serve_vgg16 [algo]
//   algo  convolution algorithm for the served session, parsed by
//         nn::parse_conv_algo (e.g. "w4", "im2col"; spatial and FFT are
//         not plannable, so not servable); the special name
//         "planned" registers the session through the cost-model planner
//         (per-layer mixed algorithms). Default: winograd2.
int main(int argc, char** argv) {
  const auto layers = wino::nn::vgg16_d_scaled(7, 8);  // 32x32 input
  auto weights = wino::nn::random_weights(layers, 42);

  const std::string algo_name = argc > 1 ? argv[1] : "w2";

  wino::serve::ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 2000;
  cfg.max_inflight = 128;
  cfg.backpressure = wino::serve::BackpressurePolicy::kBlock;

  wino::serve::InferenceServer server(cfg);
  wino::serve::ModelId vgg = 0;
  try {
    vgg = server.add_model(
        "vgg16-d/7",
        algo_name == "planned"
            ? wino::nn::plan_execution(layers)
            : wino::nn::uniform_plan(layers,
                                     wino::nn::parse_conv_algo(algo_name)),
        weights);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
  std::printf("session plan (%s):\n%s\n",
              server.model_plan(vgg).uniform() ? "uniform" : "mixed",
              server.model_plan(vgg).to_string().c_str());

  // Four clients, 16 requests each, submitted concurrently.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 16;
  std::vector<Tensor4f> inputs;
  std::vector<std::future<Tensor4f>> futures(kClients * kPerClient);
  wino::common::Rng rng(7);
  for (std::size_t i = 0; i < kClients * kPerClient; ++i) {
    Tensor4f img(1, 3, 32, 32);
    rng.fill_uniform(img.flat(), -1.0F, 1.0F);
    inputs.push_back(std::move(img));
  }

  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = 0; i < kPerClient; ++i) {
          const std::size_t idx = c * kPerClient + i;
          futures[idx] = server.submit(vgg, inputs[idx]);
        }
      });
    }
  }

  std::vector<Tensor4f> outputs;
  for (auto& f : futures) outputs.push_back(f.get());
  server.drain();

  const auto stats = server.stats();
  wino::common::TextTable table;
  table.header({"metric", "value"});
  table.row({"requests completed", std::to_string(stats.completed)});
  table.row({"batches dispatched", std::to_string(stats.batches)});
  table.row({"mean batch size",
             wino::common::TextTable::num(stats.mean_batch_size)});
  table.row({"p50 latency (us)",
             wino::common::TextTable::num(stats.p50_latency_us)});
  table.row({"p99 latency (us)",
             wino::common::TextTable::num(stats.p99_latency_us)});
  table.row({"throughput (req/s)",
             wino::common::TextTable::num(stats.throughput_rps)});
  table.print();

  std::printf("\nbatch-size histogram:");
  for (std::size_t s = 1; s < stats.batch_size_histogram.size(); ++s) {
    if (stats.batch_size_histogram[s] != 0) {
      std::printf("  size %zu x%llu", s,
                  static_cast<unsigned long long>(
                      stats.batch_size_histogram[s]));
    }
  }
  const auto cache = wino::nn::transform_cache_stats();
  std::printf("\ntransform cache: %llu hits, %llu misses, %llu entries\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.entries));

  // Served output == direct forward of the same plan, bit for bit.
  const Tensor4f direct =
      wino::nn::forward(server.model_plan(vgg), weights, inputs[0]);
  const bool identical =
      direct.shape() == outputs[0].shape() &&
      std::memcmp(direct.flat().data(), outputs[0].flat().data(),
                  direct.size() * sizeof(float)) == 0;
  std::printf("served output vs direct forward: %s\n",
              identical ? "bit-identical" : "MISMATCH");

  server.shutdown();
  return identical ? 0 : 1;
}

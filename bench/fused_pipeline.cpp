// Cache-resident fused Winograd tile pipeline vs the per-tile walk, layer
// by layer over the scaled VGG16-D conv chain at uniform F(4x4, 3x3).
//
// Both modes run winograd::conv2d_winograd_layout_into on identical
// inputs with fused ReLU; the only difference is the scratch handed in —
// the legacy per-tile bank (one gather -> transform -> K elementwise
// reductions -> inverse per tile column) versus the blocked bank sized by
// winograd::fused_block_columns (gather B columns, run the per-position
// coordinate GEMMs across the block, inverse-transform while the block is
// hot in cache). The per-element accumulation chains are identical, so
// the outputs must memcmp equal — asserted per layer and carried in the
// bit_identical gate field.
//
// Emits BENCH_fused.json next to the binary (or at --out); the CI gate
// (bench/baselines/BENCH_fused_baseline.json) checks the chain speedup,
// bit-identity and the planned uniform-W4 slab peak, which the fused
// scratch must never raise.
//
// Usage: fused_pipeline [--quick] [--out <path>]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_io.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor.hpp"
#include "winograd/kernels.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using wino::tensor::Layout;
using wino::tensor::Tensor4f;
using wino::winograd::WinogradScratch;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> samples) {
  const auto mid =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// Heap-backed WinogradScratch in either executor mode (block == 0: the
/// per-tile bank; block >= 2: the fused blocked bank) — the same extents
/// nn::carve_winograd_scratch hands out of the planned slab.
struct OwnedScratch {
  std::vector<float> f;
  std::vector<std::size_t> idx;
  WinogradScratch s;
};

OwnedScratch make_scratch(std::size_t channels, std::size_t n,
                          std::size_t mm, std::size_t block) {
  const std::size_t nsq = n * n;
  const std::size_t bank =
      block >= 2 ? channels * nsq * block + nsq * block : channels * nsq;
  OwnedScratch o;
  o.f.resize(nsq + bank + nsq + mm * mm);
  o.idx.resize(3 * n);
  float* f = o.f.data();
  o.s.d = {f, nsq};
  f += nsq;
  if (block >= 2) {
    o.s.u_blk = {f, channels * nsq * block};
    f += channels * nsq * block;
    o.s.acc_blk = {f, nsq * block};
    f += nsq * block;
  } else {
    o.s.u_all = {f, channels * nsq};
    f += channels * nsq;
  }
  o.s.acc_m = {f, nsq};
  f += nsq;
  o.s.acc_y = {f, mm * mm};
  o.s.row_tile = {o.idx.data(), n};
  o.s.row_in = {o.idx.data() + n, n};
  o.s.col_off = {o.idx.data() + 2 * n, n};
  return o;
}

struct LayerResult {
  std::string name;
  std::size_t channels = 0;
  std::size_t kernels = 0;
  std::size_t block = 0;  // fused block columns (cache budget, clamped)
  double unfused_ms = 0;
  double fused_ms = 0;
  double speedup = 0;  // median of paired per-rep ratios
  bool bit_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  if (!wino::common::validate_bench_args(
          argc, argv, {"--quick"},
          "fused_pipeline [--quick] [--out <path>]")) {
    return 2;
  }
  const bool quick = wino::common::has_flag(argc, argv, "--quick");

  const std::size_t scale = quick ? 14 : 7;
  const auto layers = wino::nn::vgg16_d_scaled(scale, 8);
  // Deep layers collapse to one tile per image at these resolutions, so
  // the batch is the only column supply there: 16 images give every layer
  // at least two full register tiles of block columns.
  const std::size_t batch = 16;
  const int reps = quick ? 9 : 11;  // plus one discarded cold pair
  constexpr int kM = 4;

  const wino::winograd::TileTransformer xf(
      wino::winograd::transforms(kM, 3));
  const auto n = static_cast<std::size_t>(xf.tile());
  const auto mm = static_cast<std::size_t>(kM);

  std::printf("fused_pipeline — blocked tile pipeline vs per-tile walk, "
              "F(4x4, 3x3)\nscaled VGG16-D conv layers (%zux%zu input, "
              "batch %zu), %d interleaved reps, cache budget %zu KiB\n\n",
              224 / scale, 224 / scale, batch, reps,
              wino::winograd::kFusedCacheBudgetBytes / 1024);

  wino::common::Rng rng(23);
  std::vector<LayerResult> results;
  std::vector<double> all_ratios;
  bool all_identical = true;

  for (const auto& spec : layers) {
    if (spec.kind != wino::nn::LayerKind::kConv) continue;
    const auto& c = spec.conv;
    Tensor4f input(batch, c.c, c.h, c.w);
    Tensor4f kernels(c.k, c.c, 3, 3);
    rng.fill_uniform(input.flat(), -1.0F, 1.0F);
    rng.fill_uniform(kernels.flat(), -0.5F, 0.5F);
    const wino::winograd::TransformedKernels tk(xf, kernels);
    wino::winograd::WinogradConvOptions opt;
    opt.pad = c.pad;
    const Layout il = Layout::nchw(input.shape());
    const Layout ol = Layout::nchw({batch, c.k, c.out_h(), c.out_w()});

    LayerResult r;
    r.name = c.name;
    r.channels = c.c;
    r.kernels = c.k;
    const std::size_t columns = batch * ((c.out_h() + mm - 1) / mm) *
                                ((c.out_w() + mm - 1) / mm);
    r.block = std::min(wino::winograd::fused_block_columns(
                           c.c, n, wino::winograd::kFusedCacheBudgetBytes),
                       columns);
    if (r.block < 2) continue;  // geometry too small to fuse: skip

    OwnedScratch unfused = make_scratch(c.c, n, mm, 0);
    OwnedScratch fused = make_scratch(c.c, n, mm, r.block);
    std::vector<float> out_unfused(ol.volume());
    std::vector<float> out_fused(ol.volume());

    // Warm both paths (page in scratch, settle the branch predictors).
    wino::winograd::conv2d_winograd_layout_into(
        il, input.flat(), tk, xf, opt, ol, out_unfused, true, unfused.s);
    wino::winograd::conv2d_winograd_layout_into(
        il, input.flat(), tk, xf, opt, ol, out_fused, true, fused.s);

    // Interleave the two modes and alternate which runs first each rep so
    // drift and cache-residency ordering effects cancel in the median;
    // the first (cold) pair is measured but discarded.
    std::vector<double> unfused_secs;
    std::vector<double> fused_secs;
    for (int rep = 0; rep <= reps; ++rep) {
      double u_s = 0;
      double f_s = 0;
      if (rep % 2 == 0) {
        auto t0 = Clock::now();
        wino::winograd::conv2d_winograd_layout_into(
            il, input.flat(), tk, xf, opt, ol, out_unfused, true, unfused.s);
        u_s = seconds_since(t0);
        t0 = Clock::now();
        wino::winograd::conv2d_winograd_layout_into(
            il, input.flat(), tk, xf, opt, ol, out_fused, true, fused.s);
        f_s = seconds_since(t0);
      } else {
        auto t0 = Clock::now();
        wino::winograd::conv2d_winograd_layout_into(
            il, input.flat(), tk, xf, opt, ol, out_fused, true, fused.s);
        f_s = seconds_since(t0);
        t0 = Clock::now();
        wino::winograd::conv2d_winograd_layout_into(
            il, input.flat(), tk, xf, opt, ol, out_unfused, true, unfused.s);
        u_s = seconds_since(t0);
      }
      if (rep == 0) continue;
      unfused_secs.push_back(u_s);
      fused_secs.push_back(f_s);
    }

    r.bit_identical =
        std::memcmp(out_fused.data(), out_unfused.data(),
                    out_unfused.size() * sizeof(float)) == 0;
    all_identical = all_identical && r.bit_identical;
    r.unfused_ms = median(unfused_secs) * 1e3;
    r.fused_ms = median(fused_secs) * 1e3;
    std::vector<double> ratios;
    for (std::size_t rep = 0; rep < fused_secs.size(); ++rep) {
      ratios.push_back(unfused_secs[rep] / fused_secs[rep]);
      all_ratios.push_back(ratios.back());
    }
    r.speedup = median(ratios);
    results.push_back(r);
  }

  double total_unfused_ms = 0;
  double total_fused_ms = 0;
  wino::common::TextTable table;
  table.header({"layer", "c", "k", "block", "unfused ms", "fused ms",
                "speedup", "bit-identical"});
  for (const LayerResult& r : results) {
    total_unfused_ms += r.unfused_ms;
    total_fused_ms += r.fused_ms;
    table.row({r.name, std::to_string(r.channels), std::to_string(r.kernels),
               std::to_string(r.block),
               wino::common::TextTable::num(r.unfused_ms, 3),
               wino::common::TextTable::num(r.fused_ms, 3),
               wino::common::TextTable::num(r.speedup),
               r.bit_identical ? "yes" : "NO"});
  }
  table.print();

  // Chain-level numbers: total of per-layer medians (the whole conv
  // chain's wall time under each executor) and the paired-rep median.
  const double chain_speedup =
      total_fused_ms > 0 ? total_unfused_ms / total_fused_ms : 0.0;
  const double paired_speedup = median(all_ratios);
  // The fused scratch must never raise the planned slab peak: the planner
  // carves blocks only where the unfused high-water mark already has room.
  const std::size_t w4_peak =
      wino::nn::uniform_plan(layers, wino::nn::ConvAlgo::kWinograd4)
          .memory.peak_bytes(1);

  std::printf("\nconv chain: unfused %.3f ms, fused %.3f ms -> %.3fx "
              "(paired-rep median %.3fx)\nuniform-W4 planned slab peak: "
              "%zu bytes/image\nbit-identity: %s\n",
              total_unfused_ms, total_fused_ms, chain_speedup,
              paired_speedup, w4_peak,
              all_identical ? "all layers memcmp-equal"
                            : "VIOLATION — fused != unfused");
  if (!all_identical) return 1;

  // --- BENCH_fused.json ----------------------------------------------------
  const std::string json_path =
      wino::common::bench_output_path(argc, argv, "BENCH_fused.json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::printf("warning: could not open %s for writing\n",
                json_path.c_str());
    return 0;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"fused_pipeline\",\n  \"quick\": %s,\n"
               "  \"model\": \"vgg16-d-scaled-%zu\",\n  \"m\": %d,\n"
               "  \"batch\": %zu,\n  \"reps\": %d,\n"
               "  \"cache_budget_bytes\": %zu,\n  \"layers\": [\n",
               quick ? "true" : "false", scale, kM, batch, reps,
               static_cast<std::size_t>(
                   wino::winograd::kFusedCacheBudgetBytes));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LayerResult& r = results[i];
    std::fprintf(json,
                 "    {\"layer\": \"%s\", \"c\": %zu, \"k\": %zu, "
                 "\"block_columns\": %zu,\n     \"unfused_ms\": %.4f, "
                 "\"fused_ms\": %.4f, \"speedup\": %.4f, "
                 "\"bit_identical\": %s}%s\n",
                 r.name.c_str(), r.channels, r.kernels, r.block,
                 r.unfused_ms, r.fused_ms, r.speedup,
                 r.bit_identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"chain_unfused_ms\": %.4f,\n"
               "  \"chain_fused_ms\": %.4f,\n"
               "  \"speedup_fused_vs_unfused\": %.4f,\n"
               "  \"paired_rep_speedup\": %.4f,\n"
               "  \"uniform_w4_peak_bytes_per_image\": %zu,\n"
               "  \"bit_identical\": %s\n}\n",
               total_unfused_ms, total_fused_ms, chain_speedup,
               paired_speedup, w4_peak, all_identical ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

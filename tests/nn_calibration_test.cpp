// Calibration-persistence contract (nn/calibration_io.*): exact round-trip
// of the per-layer timings through the versioned on-disk format, refusal
// of files keyed to a different CPU signature / code hash / format
// version, naming a non-plannable algorithm or a Winograd walk timed in
// any thread form but the inline one, graceful fallback on
// corruption (load fails, nothing half-imported, never crashes) — and the
// acceptance-critical pin that a warm cache lets
// a server register a planned model without running a single
// microbenchmark measurement.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nn/calibration_io.hpp"
#include "nn/network.hpp"
#include "nn/plan.hpp"
#include "serve/inference_server.hpp"

namespace {

using wino::nn::ConvAlgo;
using wino::nn::MeasuredLayerTime;
using wino::nn::MeasuredState;

/// Each test works against its own file in the build directory and starts
/// from cleared in-process caches (they are process-global).
class CalibrationIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wino::nn::clear_measured_state();
    path_ = std::string("calibio_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".winocal";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    wino::nn::clear_measured_state();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
};

/// A synthetic state with awkward doubles (non-terminating binary
/// fractions, subnormal-ish magnitudes) — exactly what hexfloat
/// serialisation must round-trip bit-for-bit.
MeasuredState synthetic_state() {
  MeasuredState state;
  state.layer_times = {
      {8, 8, 3, 4, 3, 1, ConvAlgo::kIm2col, 1.0 / 7.0},
      {8, 8, 3, 4, 3, 1, ConvAlgo::kWinograd2, 2.5e-4},
      {16, 16, 32, 32, 3, 1, ConvAlgo::kWinograd4, 9.87654321e-3},
      {16, 16, 32, 32, 3, 1, ConvAlgo::kInt8Winograd2, 1.1 / 3.0 * 1e-3},
      {16, 16, 32, 32, 3, 1, ConvAlgo::kIm2col, 3.0 / 11.0 * 1e-3, 4},
      {16, 16, 32, 32, 3, 1, ConvAlgo::kIm2col, 5.0 / 11.0 * 1e-3, 1},
  };
  return state;
}

/// Replace one header line of a saved cache file (corruption harness).
void rewrite_line(const std::string& path, const std::string& prefix,
                  const std::string& replacement) {
  std::ifstream in(path);
  std::ostringstream edited;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      edited << replacement << '\n';
    } else {
      edited << line << '\n';
    }
  }
  in.close();
  std::ofstream out(path, std::ios::trunc);
  out << edited.str();
}

TEST_F(CalibrationIoTest, RoundTripIsBitExact) {
  wino::nn::import_measured_state(synthetic_state());
  ASSERT_TRUE(wino::nn::save_measured_state(path_));

  wino::nn::clear_measured_state();
  ASSERT_TRUE(wino::nn::load_measured_state(path_));

  const MeasuredState loaded = wino::nn::export_measured_state();
  const MeasuredState expect = synthetic_state();
  ASSERT_EQ(loaded.layer_times.size(), expect.layer_times.size());
  // export_measured_state sorts by key; compare as sets via sorted copies.
  auto sorted = expect.layer_times;
  std::sort(sorted.begin(), sorted.end(),
            [](const MeasuredLayerTime& a, const MeasuredLayerTime& b) {
              return std::tie(a.h, a.w, a.c, a.k, a.r, a.pad, a.algo,
                              a.threads) <
                     std::tie(b.h, b.w, b.c, b.k, b.r, b.pad, b.algo,
                              b.threads);
            });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(loaded.layer_times[i], sorted[i]);  // bit-exact doubles
  }
}

TEST_F(CalibrationIoTest, RejectsMismatchedCpuSignature) {
  wino::nn::import_measured_state(synthetic_state());
  ASSERT_TRUE(wino::nn::save_measured_state(path_));
  rewrite_line(path_, "cpu ", "cpu some other machine | cores=96 | isa=avx512");

  wino::nn::clear_measured_state();
  EXPECT_FALSE(wino::nn::load_measured_state(path_));
  EXPECT_EQ(wino::nn::plan_cache_stats().layer_entries, 0u);
}

TEST_F(CalibrationIoTest, RejectsMismatchedCodeHash) {
  wino::nn::import_measured_state(synthetic_state());
  ASSERT_TRUE(wino::nn::save_measured_state(path_));
  rewrite_line(path_, "code ", "code planner-v0 | some other compiler");

  wino::nn::clear_measured_state();
  EXPECT_FALSE(wino::nn::load_measured_state(path_));
  EXPECT_EQ(wino::nn::plan_cache_stats().layer_entries, 0u);
}

TEST_F(CalibrationIoTest, RejectsMismatchedFormatVersion) {
  wino::nn::import_measured_state(synthetic_state());
  ASSERT_TRUE(wino::nn::save_measured_state(path_));
  rewrite_line(path_, "winocal ", "winocal 1");

  wino::nn::clear_measured_state();
  EXPECT_FALSE(wino::nn::load_measured_state(path_));
  EXPECT_EQ(wino::nn::plan_cache_stats().layer_entries, 0u);
}

// Version 3 keyed a batch-1 walk timing by the pool size; a walk now has
// one timing form, threads == 1. Neither a version-3 file nor a walk
// entry of another form is imported, not even in part.
TEST_F(CalibrationIoTest, RejectsWinocal3AndPoolWideWalkEntries) {
  wino::nn::import_measured_state(synthetic_state());
  ASSERT_TRUE(wino::nn::save_measured_state(path_));
  rewrite_line(path_, "winocal ", "winocal 3");
  wino::nn::clear_measured_state();
  EXPECT_FALSE(wino::nn::load_measured_state(path_));
  EXPECT_EQ(wino::nn::plan_cache_stats().layer_entries, 0u);

  for (const ConvAlgo walk :
       {ConvAlgo::kWinograd2, ConvAlgo::kWinograd3, ConvAlgo::kWinograd4,
        ConvAlgo::kInt8Winograd2, ConvAlgo::kInt8Winograd4}) {
    MeasuredState state = synthetic_state();
    state.layer_times.push_back(
        {4, 4, 8, 8, 3, 1, walk, 0x1p-12, /*threads=*/4});
    wino::nn::clear_measured_state();
    wino::nn::import_measured_state(state);
    ASSERT_TRUE(wino::nn::save_measured_state(path_));
    wino::nn::clear_measured_state();
    EXPECT_FALSE(wino::nn::load_measured_state(path_))
        << wino::nn::to_string(walk);
    EXPECT_EQ(wino::nn::plan_cache_stats().layer_entries, 0u)
        << wino::nn::to_string(walk);
  }
}

TEST_F(CalibrationIoTest, RejectsCorruptionWithoutPartialImport) {
  wino::nn::import_measured_state(synthetic_state());
  ASSERT_TRUE(wino::nn::save_measured_state(path_));

  // Each corruption: load must fail and import nothing — even when valid
  // lines precede the damage (no half-imported state).
  const auto corrupt_and_check = [&](const std::string& mutation) {
    std::ifstream in(path_);
    std::stringstream content;
    content << in.rdbuf();
    in.close();
    std::string text = content.str();

    std::string damaged;
    if (mutation == "truncate") {
      damaged = text.substr(0, text.find("end"));  // missing sentinel
    } else if (mutation == "garbage_line") {
      const auto pos = text.find("layer ");
      damaged = text.substr(0, pos) + "gibberish 1 2 3\n" + text.substr(pos);
    } else if (mutation == "bad_algo") {
      damaged = text;
      const auto pos = damaged.find("layer ");
      const auto eol = damaged.find('\n', pos);
      damaged.replace(pos, eol - pos, "layer 8 8 3 4 3 1 99 1 0x1p-4");
    } else if (mutation == "spatial_algo" || mutation == "fft_algo") {
      // Valid algo numbers, but not plannable: no planner reads them.
      const ConvAlgo algo =
          mutation == "fft_algo" ? ConvAlgo::kFft : ConvAlgo::kSpatial;
      damaged = text;
      const auto pos = damaged.rfind("end");
      damaged.insert(pos, "layer 8 8 3 4 3 1 " +
                              std::to_string(static_cast<int>(algo)) +
                              " 1 0x1p-4\n");
    } else if (mutation == "zero_threads") {
      damaged = text;
      const auto pos = damaged.find("layer ");
      const auto eol = damaged.find('\n', pos);
      damaged.replace(pos, eol - pos, "layer 8 8 3 4 3 1 1 0 0x1p-4");
    } else {  // negative seconds
      damaged = text;
      const auto pos = damaged.find("layer ");
      const auto eol = damaged.find('\n', pos);
      damaged.replace(pos, eol - pos, "layer 8 8 3 4 3 1 1 1 -0x1p-4");
    }
    std::ofstream out(path_, std::ios::trunc);
    out << damaged;
    out.close();

    wino::nn::clear_measured_state();
    EXPECT_FALSE(wino::nn::load_measured_state(path_)) << mutation;
    EXPECT_EQ(wino::nn::plan_cache_stats().layer_entries, 0u) << mutation;

    // Restore the pristine file for the next mutation.
    std::ofstream restore(path_, std::ios::trunc);
    restore << text;
  };
  corrupt_and_check("truncate");
  corrupt_and_check("garbage_line");
  corrupt_and_check("bad_algo");
  corrupt_and_check("spatial_algo");
  corrupt_and_check("fft_algo");
  corrupt_and_check("zero_threads");
  corrupt_and_check("negative_seconds");
}

TEST_F(CalibrationIoTest, MissingFileLoadsNothing) {
  EXPECT_FALSE(wino::nn::load_measured_state("no_such_file.winocal"));
  EXPECT_EQ(wino::nn::plan_cache_stats().layer_entries, 0u);
}

/// The acceptance pin: a server restarted onto a warm calibration cache
/// registers a planned model without running a single layer measurement —
/// add_model_planned is near-instant.
TEST_F(CalibrationIoTest, WarmServerStartSkipsEveryMeasurement) {
  // One tiny conv layer; its four default candidate timings (W2, W3, W4,
  // im2col) are the entire measured surface plan_execution touches.
  wino::nn::LayerSpec l;
  l.kind = wino::nn::LayerKind::kConv;
  l.conv.name = "tiny";
  l.conv.h = 8;
  l.conv.w = 8;
  l.conv.c = 3;
  l.conv.k = 4;
  const std::vector<wino::nn::LayerSpec> layers = {l};

  // "First boot": a server with a cache path plans the model cold —
  // measuring each candidate — and persists what it learned.
  {
    wino::serve::ServerConfig cfg;
    cfg.calibration_cache_path = path_;
    wino::serve::InferenceServer server(cfg);
    (void)server.add_model_planned("tiny", layers,
                                   wino::nn::random_weights(layers));
    server.shutdown();
  }
  const auto cold = wino::nn::plan_cache_stats();
  EXPECT_GT(cold.layer_measurements, 0u);  // the cold boot really measured

  // "Restart": drop the in-process caches (a new process), boot another
  // server on the same cache file, register the same architecture.
  wino::nn::clear_measured_state();
  {
    wino::serve::ServerConfig cfg;
    cfg.calibration_cache_path = path_;
    wino::serve::InferenceServer server(cfg);
    const auto warm_before = wino::nn::plan_cache_stats();
    EXPECT_GT(warm_before.layer_entries, 0u);  // cache loaded on construct
    (void)server.add_model_planned("tiny", layers,
                                   wino::nn::random_weights(layers));
    const auto warm_after = wino::nn::plan_cache_stats();
    // The acceptance criterion: zero new measurements on the warm path.
    EXPECT_EQ(warm_after.layer_measurements, warm_before.layer_measurements);
    server.shutdown();
  }
}

TEST_F(CalibrationIoTest, SaveIsAtomicReplace) {
  wino::nn::import_measured_state(synthetic_state());
  ASSERT_TRUE(wino::nn::save_measured_state(path_));
  // Saving again over an existing file must succeed (rename replaces) and
  // leave no .tmp sibling behind.
  ASSERT_TRUE(wino::nn::save_measured_state(path_));
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.good());
  wino::nn::clear_measured_state();
  EXPECT_TRUE(wino::nn::load_measured_state(path_));
}

TEST_F(CalibrationIoTest, KeysDescribeThisMachineAndBuild) {
  const std::string cpu = wino::nn::calibration_cpu_signature();
  const std::string code = wino::nn::calibration_code_hash();
  EXPECT_NE(cpu.find("cores="), std::string::npos);
  EXPECT_NE(cpu.find("isa="), std::string::npos);
  EXPECT_NE(code.find("planner-v"), std::string::npos);
  // Stable within a process: the same process must accept its own file.
  EXPECT_EQ(cpu, wino::nn::calibration_cpu_signature());
  EXPECT_EQ(code, wino::nn::calibration_code_hash());
}

}  // namespace

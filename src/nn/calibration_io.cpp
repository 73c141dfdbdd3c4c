#include "nn/calibration_io.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace wino::nn {

namespace {

/// Compile-time ISA tag: measurements made with wider vectors enabled do
/// not transfer to a build (or machine) without them.
const char* isa_tag() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE4_2__)
  return "sse42";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

std::string cpu_model_name() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto name = line.substr(colon + 1);
        const auto first = name.find_first_not_of(" \t");
        if (first != std::string::npos) return name.substr(first);
      }
    }
  }
  return "unknown-cpu";
}

/// Exact-round-trip double formatting (C hexfloat).
std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// strtod parses hexfloat input (istream >> double does not); the token
/// must be consumed entirely.
bool parse_double(const std::string& token, double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size() && std::isfinite(out);
}

bool parse_size(const std::string& token, std::size_t& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

std::string calibration_cpu_signature() {
  std::ostringstream sig;
  sig << cpu_model_name() << " | cores=" << std::thread::hardware_concurrency()
      << " | isa=" << isa_tag();
  return sig.str();
}

std::string calibration_code_hash() {
  // "planner-v3": bump when timing methodology / cost-model semantics
  // change (v2: int8 algos entered the layer-time key space; v3: each
  // timing is taken in the thread form of the plan's batch).
  // __VERSION__ folds the compiler in — different codegen, different
  // measured rates.
  return std::string("planner-v3 | ") + __VERSION__;
}

bool save_measured_state(const std::string& path) {
  const MeasuredState state = export_measured_state();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << "winocal 4\n";
    out << "cpu " << calibration_cpu_signature() << '\n';
    out << "code " << calibration_code_hash() << '\n';
    for (const MeasuredLayerTime& t : state.layer_times) {
      out << "layer " << t.h << ' ' << t.w << ' ' << t.c << ' ' << t.k << ' '
          << t.r << ' ' << t.pad << ' ' << static_cast<int>(t.algo) << ' '
          << t.threads << ' ' << hexfloat(t.seconds) << '\n';
    }
    out << "end\n";
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool load_measured_state(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;

  std::string line;
  if (!std::getline(in, line) || line != "winocal 4") return false;
  if (!std::getline(in, line) ||
      line != "cpu " + calibration_cpu_signature()) {
    return false;
  }
  if (!std::getline(in, line) || line != "code " + calibration_code_hash()) {
    return false;
  }

  // Parse everything before importing anything: a corrupt tail must not
  // leave a half-imported state behind.
  MeasuredState state;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "layer") {
      MeasuredLayerTime t;
      std::string sh, sw, sc, sk, sr, spad, salgo, sthreads, ssecs;
      if (!(fields >> sh >> sw >> sc >> sk >> sr >> spad >> salgo >>
            sthreads >> ssecs)) {
        return false;
      }
      std::size_t pad = 0;
      std::size_t algo = 0;
      if (!parse_size(sh, t.h) || !parse_size(sw, t.w) ||
          !parse_size(sc, t.c) || !parse_size(sk, t.k) ||
          !parse_size(sr, t.r) || !parse_size(spad, pad) ||
          !parse_size(salgo, algo) || !parse_size(sthreads, t.threads) ||
          !parse_double(ssecs, t.seconds) || t.threads == 0) {
        return false;
      }
      if (algo > static_cast<std::size_t>(ConvAlgo::kInt8Winograd4)) {
        return false;
      }
      t.algo = static_cast<ConvAlgo>(algo);
      if (!is_plannable(t.algo) || !(t.seconds > 0)) return false;
      // Any other thread form of a walk is no timing the planner reads.
      if (is_walk(t.algo) && t.threads != 1) return false;
      t.pad = static_cast<int>(pad);
      state.layer_times.push_back(t);
    } else {
      return false;
    }
  }
  if (!saw_end) return false;

  import_measured_state(state);
  return true;
}

}  // namespace wino::nn

// On-disk persistence for the measured half of the cost model: the
// per-layer timing cache (nn::MeasuredState). A server that persisted its
// measurements can restart, load them back, and register planned sessions
// without running a single microbenchmark — add_model_planned() drops from
// seconds to near-instant.
//
// Timings only transfer between identical machines running identical
// code, so the file is keyed: it embeds a CPU signature (model name +
// core count + ISA tag) and a code hash (planner revision + compiler
// version), and load_measured_state() refuses a file whose key does not
// match the running process. Stale or foreign measurements silently fall
// back to fresh measurement — never to wrong plans.
//
// File format ("winocal", version 4) — line-oriented text:
//   winocal 4
//   cpu <cpu signature>
//   code <code hash>
//   layer <h> <w> <c> <k> <r> <pad> <algo> <threads> <hexfloat seconds>
//     (0..n lines)
//   end
// <algo> is the ConvAlgo's integer value and must be plannable
// (is_plannable); <threads> is MeasuredLayerTime::threads (>= 1), and
// exactly 1 for a Winograd walk (fp32 or int8), whose one thread form is
// the inline one. A file of any other version is rejected, never misread:
// version 3 keyed batch-1 walk timings by the pool size, which no planner
// reads any more. Doubles are printed as C hexfloats (%a): exact bit
// round-trip, no locale or precision surprises. The trailing "end"
// sentinel rejects truncated files. Writes go through a .tmp sibling +
// atomic rename so a crash mid-write never leaves a half-valid cache.
#pragma once

#include <string>

#include "nn/plan.hpp"

namespace wino::nn {

/// Identity of this machine for calibration keying: CPU model name (from
/// /proc/cpuinfo where available), core count and compile-time ISA tag.
[[nodiscard]] std::string calibration_cpu_signature();

/// Identity of this build's measurement semantics: bump the embedded
/// revision whenever the timing methodology or the cost model change
/// meaning; the compiler version rides along since codegen changes move
/// the measured rates.
[[nodiscard]] std::string calibration_code_hash();

/// Serialise the current nn::export_measured_state() to `path` (atomic
/// replace). \return false on any I/O failure (never throws).
bool save_measured_state(const std::string& path);

/// Load `path` and import it via nn::import_measured_state(). Missing
/// file, key mismatch (CPU signature / code hash / format version) and
/// corruption all \return false and import nothing — the caller's next
/// planning call measures fresh. Never throws.
bool load_measured_state(const std::string& path);

}  // namespace wino::nn

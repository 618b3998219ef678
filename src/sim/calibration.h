#pragma once
// Host-measured calibration records for the analytic cost model.
//
// The baked LinkCost defaults carry a hard-coded park/wake split (0.3 us
// each) chosen to reproduce the paper's headline numbers. A real host can
// do better: bench/micro_orwl_overhead measures the futex park+wake pair
// (park_wake_calibration case) and the batch-amortized announce cost
// (runtime_shared_reads batch sweep) and, with --calibration PATH, writes
// them into a small host-fingerprinted record. When the environment
// variable ORWL_CALIBRATION names such a record AND its fingerprint
// matches the current host, LinkCost::defaults_for folds the measured
// numbers in; in every other case the baked defaults stand, so recorded
// simulation results stay bit-identical unless a calibration is
// explicitly activated for the host it was measured on.
//
// The record format is deliberately trivial (one `key value` per line,
// `#` comments) so it diffs cleanly next to the BENCH_*.json recordings.

#include <optional>
#include <string>

namespace orwl::sim {

/// One host-fingerprinted measurement record.
struct CalibrationRecord {
  std::string host;  ///< host_fingerprint() of the measuring host
  /// Measured futex park+wake pair (seconds); split evenly onto
  /// LinkCost::park_latency / wake_latency.
  double park_wake_pair_seconds = 0.0;
  /// Batch-amortized per-grant announcement cost (seconds) for shared-read
  /// runs; 0 = not measured (LinkCost::grant_batch_overhead keeps its
  /// default, which equals grant_overhead — i.e. no batch discount).
  double grant_batch_overhead_seconds = 0.0;
};

/// Parse a record file. Unknown keys are ignored (forward compatibility);
/// nullopt on a missing or unparsable file. Pure: no environment access,
/// no host check — tests feed it arbitrary files.
std::optional<CalibrationRecord> load_calibration_file(
    const std::string& path);

/// Serialize a record in the file format load_calibration_file reads.
std::string format_calibration(const CalibrationRecord& rec);

/// What identifies a host for timing comparisons: CPU model, PU count,
/// NUMA node count, L3 size and kernel release, read under `sysfs_root`
/// (normally "/sys") and `proc_root` (normally "/proc"), e.g.
/// "AMD EPYC 7B13 | 4 PUs | 1 NUMA nodes | L3 32768K | kernel 6.1.0".
/// Fields that cannot be read say "unknown"; a host without an L3 says
/// "L3 none". Bench JSON contexts (harness) and calibration records store
/// it; the check_* tools compare it.
std::string host_fingerprint(const std::string& sysfs_root,
                             const std::string& proc_root);

/// This host's fingerprint (/sys, /proc), computed once and cached.
const std::string& host_fingerprint();

/// The record the environment activates for THIS host: the file named by
/// ORWL_CALIBRATION, iff it loads and its host matches host_fingerprint().
/// Resolved once per process (first call) and cached; nullptr when the
/// variable is unset, the file is bad, or the host differs.
const CalibrationRecord* active_calibration();

}  // namespace orwl::sim

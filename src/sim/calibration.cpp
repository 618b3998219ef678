#include "sim/calibration.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "mem/numa.h"
#include "support/file.h"
#include "topo/sysfs.h"

namespace orwl::sim {

std::optional<CalibrationRecord> load_calibration_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  CalibrationRecord rec;
  bool saw_host = false;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;  // blank / comment-only line
    if (key == "host") {
      // The fingerprint is the rest of the line (it contains spaces).
      std::getline(fields >> std::ws, rec.host);
      while (!rec.host.empty() && std::isspace(static_cast<unsigned char>(
                                      rec.host.back())))
        rec.host.pop_back();
      if (rec.host.empty()) return std::nullopt;
      saw_host = true;
    } else if (key == "park_wake_pair_seconds") {
      if (!(fields >> rec.park_wake_pair_seconds)) return std::nullopt;
    } else if (key == "grant_batch_overhead_seconds") {
      if (!(fields >> rec.grant_batch_overhead_seconds)) return std::nullopt;
    }
    // Unknown keys: ignored, so older binaries read newer records.
  }
  if (!saw_host) return std::nullopt;
  if (rec.park_wake_pair_seconds < 0.0 ||
      rec.grant_batch_overhead_seconds < 0.0)
    return std::nullopt;
  return rec;
}

std::string format_calibration(const CalibrationRecord& rec) {
  std::ostringstream out;
  out << "# orwl calibration record (sim/calibration.h); measured by\n"
      << "# bench/micro_orwl_overhead --calibration on the host below.\n"
      << "host " << rec.host << "\n";
  out.precision(17);
  out << "park_wake_pair_seconds " << rec.park_wake_pair_seconds << "\n"
      << "grant_batch_overhead_seconds " << rec.grant_batch_overhead_seconds
      << "\n";
  return out.str();
}

namespace {

std::string cpu_model(const std::filesystem::path& proc_root) {
  std::ifstream in(proc_root / "cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

/// Size of cpu0's level-3 cache ("32768K"), "none" when it lists none.
std::string l3_size(const std::filesystem::path& sysfs_root) {
  namespace fs = std::filesystem;
  const fs::path cache = sysfs_root / "devices/system/cpu/cpu0/cache";
  std::error_code ec;
  if (!fs::is_directory(cache, ec)) return "unknown";
  std::vector<fs::path> indices;
  for (const auto& entry : fs::directory_iterator(cache, ec))
    if (entry.path().filename().string().rfind("index", 0) == 0)
      indices.push_back(entry.path());
  std::sort(indices.begin(), indices.end());
  for (const fs::path& index : indices)
    if (read_file_trimmed(index / "level") == "3")
      return read_file_trimmed(index / "size").value_or("unknown");
  return "none";
}

}  // namespace

std::string host_fingerprint(const std::string& sysfs_root,
                             const std::string& proc_root) {
  const auto topo = topo::detect_from_sysfs(sysfs_root);
  // A host that lists no NUMA node directories is one node.
  const int nodes = std::max(1, mem::NumaInfo::detect(sysfs_root).num_nodes());
  std::ostringstream out;
  out << cpu_model(proc_root) << " | "
      << (topo ? std::to_string(topo->num_pus()) : std::string("unknown"))
      << " PUs | " << nodes << " NUMA nodes | L3 " << l3_size(sysfs_root)
      << " | kernel "
      << read_file_trimmed(std::filesystem::path(proc_root) /
                           "sys/kernel/osrelease")
             .value_or("unknown");
  return out.str();
}

const std::string& host_fingerprint() {
  static const std::string fingerprint = host_fingerprint("/sys", "/proc");
  return fingerprint;
}

const CalibrationRecord* active_calibration() {
  // Resolved once: the env var and the file are read on the first call and
  // the decision is frozen for the process — simulations within one run
  // must all see the same model.
  static const std::optional<CalibrationRecord> active =
      []() -> std::optional<CalibrationRecord> {
    const char* path = std::getenv("ORWL_CALIBRATION");
    if (path == nullptr || *path == '\0') return std::nullopt;
    std::optional<CalibrationRecord> rec = load_calibration_file(path);
    if (!rec) return std::nullopt;
    if (rec->host != host_fingerprint()) return std::nullopt;
    return rec;
  }();
  return active ? &*active : nullptr;
}

}  // namespace orwl::sim

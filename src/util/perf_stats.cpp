#include "util/perf_stats.hpp"

#include <cstdio>

namespace spnl {

namespace {

constexpr PerfStage kAllStages[kPerfStageCount] = {
    PerfStage::kQueueWait, PerfStage::kWindowAdvance, PerfStage::kScore,
    PerfStage::kCommit, PerfStage::kGammaIncrement};

}  // namespace

const char* perf_stage_name(PerfStage stage) {
  switch (stage) {
    case PerfStage::kQueueWait:
      return "queue_wait";
    case PerfStage::kWindowAdvance:
      return "window_advance";
    case PerfStage::kScore:
      return "score";
    case PerfStage::kCommit:
      return "commit";
    case PerfStage::kGammaIncrement:
      return "gamma_increment";
  }
  return "unknown";
}

std::uint64_t PerfStats::total_nanos() const {
  std::uint64_t total = 0;
  for (const auto& cell : cells_) total += cell.nanos;
  return total;
}

void PerfStats::merge(const PerfStats& other) {
  for (std::size_t i = 0; i < kPerfStageCount; ++i) {
    cells_[i].nanos += other.cells_[i].nanos;
    cells_[i].calls += other.cells_[i].calls;
  }
}

void PerfStats::reset() {
  cells_ = {};
}

std::string PerfStats::report() const {
  const double total = static_cast<double>(total_nanos());
  std::string out =
      "perf: stage            time(ms)      calls   ns/call   share\n";
  char line[128];
  for (const PerfStage stage : kAllStages) {
    const std::uint64_t ns = nanos(stage);
    const std::uint64_t n = calls(stage);
    std::snprintf(line, sizeof(line),
                  "perf: %-15s %9.3f %10llu %9.1f  %5.1f%%\n",
                  perf_stage_name(stage), static_cast<double>(ns) / 1e6,
                  static_cast<unsigned long long>(n),
                  n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n),
                  total == 0.0 ? 0.0 : 100.0 * static_cast<double>(ns) / total);
    out += line;
  }
  std::snprintf(line, sizeof(line), "perf: total instrumented %.3f ms\n",
                total / 1e6);
  out += line;
  return out;
}

std::string PerfStats::to_json() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"total_nanos\":%llu,\"stages\":[",
                static_cast<unsigned long long>(total_nanos()));
  std::string out = buf;
  bool first = true;
  for (const PerfStage stage : kAllStages) {
    const std::uint64_t ns = nanos(stage);
    const std::uint64_t n = calls(stage);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"stage\":\"%s\",\"calls\":%llu,\"nanos\":%llu,"
                  "\"mean_nanos\":%.1f}",
                  first ? "" : ",", perf_stage_name(stage),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(ns),
                  n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace spnl

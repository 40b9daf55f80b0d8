#include "util/resource_governor.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/memory.hpp"

namespace spnl {

const char* degradation_stage_name(DegradationStage stage) {
  switch (stage) {
    case DegradationStage::kNone:
      return "none";
    case DegradationStage::kShrinkWindow:
      return "shrink-window";
    case DegradationStage::kCoarseSlide:
      return "coarse-slide";
    case DegradationStage::kHashFallback:
      return "hash-fallback";
  }
  return "unknown";
}

std::string degradation_events_json(const std::vector<DegradationEvent>& events) {
  std::string out = "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const DegradationEvent& e = events[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"stage\":\"%s\",\"reason\":\"%s\",\"at_placement\":%llu,"
                  "\"partitioner_bytes\":%zu,\"post_bytes\":%zu,\"rss_bytes\":%zu,"
                  "\"budget_bytes\":%zu,\"elapsed_seconds\":%.3f}",
                  i == 0 ? "" : ",", degradation_stage_name(e.stage),
                  e.reason.c_str(),
                  static_cast<unsigned long long>(e.at_placement),
                  e.partitioner_bytes, e.post_bytes, e.rss_bytes, e.budget_bytes,
                  e.elapsed_seconds);
    out += buf;
  }
  out += "]";
  return out;
}

std::size_t parse_byte_size(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("parse_byte_size: empty string");
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_byte_size: not a number: " + text);
  }
  if (value < 0.0) throw std::invalid_argument("parse_byte_size: negative: " + text);
  double scale = 1.0;
  if (pos < text.size()) {
    std::string suffix = text.substr(pos);
    if (!suffix.empty() && (suffix.back() == 'b' || suffix.back() == 'B')) {
      suffix.pop_back();
    }
    if (suffix.size() != 1) {
      throw std::invalid_argument("parse_byte_size: bad suffix in " + text);
    }
    switch (std::toupper(static_cast<unsigned char>(suffix[0]))) {
      case 'K': scale = 1024.0; break;
      case 'M': scale = 1024.0 * 1024.0; break;
      case 'G': scale = 1024.0 * 1024.0 * 1024.0; break;
      default:
        throw std::invalid_argument("parse_byte_size: bad suffix in " + text);
    }
  }
  return static_cast<std::size_t>(std::llround(value * scale));
}

ResourceGovernor::ResourceGovernor(const Options& options) : options_(options) {
  if (options_.sample_interval == 0) options_.sample_interval = 1;
}

std::optional<ResourceGovernor::Breach> ResourceGovernor::sample(
    std::size_t partitioner_bytes) {
  Breach breach;
  breach.partitioner_bytes = partitioner_bytes;
  breach.elapsed_seconds = timer_.seconds();
  breach.over_memory = over_memory_budget(partitioner_bytes);
  breach.over_deadline = options_.deadline_seconds > 0.0 &&
                         breach.elapsed_seconds > options_.deadline_seconds;
  {
    std::lock_guard lock(mutex_);
    ++samples_;
    if (partitioner_bytes > peak_partitioner_bytes_) {
      peak_partitioner_bytes_ = partitioner_bytes;
    }
  }
  if (!breach.over_memory && !breach.over_deadline) return std::nullopt;
  // RSS only read on a breach — it walks /proc (or falls back to getrusage)
  // and is reporting context, not the enforced budget.
  breach.rss_bytes = current_rss_bytes();
  if (options_.policy == DegradePolicy::kAbort) {
    throw BudgetExceededError(
        std::string("resource budget exceeded (") +
        (breach.over_memory ? "memory" : "deadline") +
        "): partitioner=" + format_bytes(partitioner_bytes) +
        " budget=" + format_bytes(options_.memory_budget_bytes) +
        " elapsed=" + std::to_string(breach.elapsed_seconds) + "s");
  }
  return breach;
}

DegradationStage ResourceGovernor::next_stage(DegradationStage after) {
  switch (after) {
    case DegradationStage::kNone:
      return DegradationStage::kShrinkWindow;
    case DegradationStage::kShrinkWindow:
      return DegradationStage::kCoarseSlide;
    case DegradationStage::kCoarseSlide:
      return DegradationStage::kHashFallback;
    case DegradationStage::kHashFallback:
      return DegradationStage::kNone;  // ladder exhausted
  }
  return DegradationStage::kNone;
}

void ResourceGovernor::respond(
    const Breach& breach, std::uint64_t at_placement,
    const std::function<bool(DegradationStage)>& apply_rung,
    const std::function<std::size_t()>& bytes) {
  Breach current = breach;
  if (breach.over_memory) {
    while (over_memory_budget(current.partitioner_bytes) &&
           step_ladder(current, at_placement, "memory", /*repeat_current=*/true,
                       apply_rung, bytes)) {
    }
  } else if (breach.over_deadline) {
    step_ladder(current, at_placement, "deadline", /*repeat_current=*/false,
                apply_rung, bytes);
  }
}

bool ResourceGovernor::step_ladder(
    Breach& breach, std::uint64_t at_placement, const char* reason,
    bool repeat_current, const std::function<bool(DegradationStage)>& apply_rung,
    const std::function<std::size_t()>& bytes) {
  DegradationStage stage = this->stage();
  if (stage == DegradationStage::kNone || !repeat_current) stage = next_stage(stage);
  while (stage != DegradationStage::kNone && !apply_rung(stage)) {
    stage = next_stage(stage);
  }
  if (stage == DegradationStage::kNone) {
    mark_exhausted();
    return false;
  }
  DegradationEvent event;
  event.stage = stage;
  event.at_placement = at_placement;
  event.partitioner_bytes = breach.partitioner_bytes;
  breach.partitioner_bytes = bytes();
  event.post_bytes = breach.partitioner_bytes;
  event.rss_bytes = breach.rss_bytes;
  event.budget_bytes = options_.memory_budget_bytes;
  event.elapsed_seconds = breach.elapsed_seconds;
  event.reason = reason;
  record_event(std::move(event));
  return true;
}

DegradationStage ResourceGovernor::stage() const {
  std::lock_guard lock(mutex_);
  return stage_;
}

void ResourceGovernor::set_stage(DegradationStage stage) {
  std::lock_guard lock(mutex_);
  if (stage > stage_) stage_ = stage;
}

bool ResourceGovernor::exhausted() const {
  std::lock_guard lock(mutex_);
  return exhausted_;
}

void ResourceGovernor::mark_exhausted() {
  std::lock_guard lock(mutex_);
  exhausted_ = true;
}

void ResourceGovernor::record_event(DegradationEvent event) {
  std::lock_guard lock(mutex_);
  if (event.stage > stage_) stage_ = event.stage;
  events_.push_back(std::move(event));
}

std::vector<DegradationEvent> ResourceGovernor::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::uint64_t ResourceGovernor::samples_taken() const {
  std::lock_guard lock(mutex_);
  return samples_;
}

std::size_t ResourceGovernor::peak_partitioner_bytes() const {
  std::lock_guard lock(mutex_);
  return peak_partitioner_bytes_;
}

}  // namespace spnl

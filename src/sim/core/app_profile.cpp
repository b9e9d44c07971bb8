#include "sim/core/app_profile.hpp"

#include <stdexcept>

namespace dicer::sim {

const char* to_string(AppClass c) noexcept {
  switch (c) {
    case AppClass::kComputeBound: return "compute-bound";
    case AppClass::kCacheFriendly: return "cache-friendly";
    case AppClass::kCacheHungry: return "cache-hungry";
    case AppClass::kStreaming: return "streaming";
  }
  return "?";
}

double AppProfile::total_instructions() const noexcept {
  double total = 0.0;
  for (const auto& p : phases) total += p.instructions;
  return total;
}

double AppProfile::mean_api() const noexcept {
  const double total = total_instructions();
  if (total <= 0.0) return 0.0;
  double weighted = 0.0;
  for (const auto& p : phases) weighted += p.api * p.instructions;
  return weighted / total;
}

AppRuntime::AppRuntime(const AppProfile* profile) : profile_(profile) {
  if (!profile_ || profile_->phases.empty()) {
    throw std::invalid_argument("AppRuntime: profile must have phases");
  }
  for (const auto& p : profile_->phases) {
    if (p.instructions <= 0.0) {
      throw std::invalid_argument("AppRuntime: phase with <= 0 instructions");
    }
  }
}

unsigned AppRuntime::advance_slow(double instructions) {
  unsigned completed = 0;
  retired_total_ += instructions;
  while (instructions > 0.0) {
    const AppPhase& ph = profile_->phases[phase_];
    const double left = ph.instructions - into_phase_;
    if (instructions < left) {
      into_phase_ += instructions;
      break;
    }
    instructions -= left;
    into_phase_ = 0.0;
    ++phase_;
    if (phase_ == profile_->phases.size()) {
      phase_ = 0;
      ++completions_;
      ++completed;
    }
  }
  return completed;
}

double AppRuntime::run_progress() const noexcept {
  double done = into_phase_;
  for (std::size_t i = 0; i < phase_; ++i) {
    done += profile_->phases[i].instructions;
  }
  return done / profile_->total_instructions();
}

void AppRuntime::reset() {
  phase_ = 0;
  into_phase_ = 0.0;
  retired_total_ = 0.0;
  completions_ = 0;
}

}  // namespace dicer::sim

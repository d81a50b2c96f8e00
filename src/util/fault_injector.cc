#include "util/fault_injector.h"

#include <cstdlib>

#include "util/random.h"

namespace gcgt {

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kQueueAdmit: return "queue_admit";
    case FaultPoint::kWorkerServe: return "worker_serve";
    case FaultPoint::kDecodeRound: return "decode_round";
    case FaultPoint::kCacheLookup: return "cache_lookup";
    case FaultPoint::kCacheInsert: return "cache_insert";
    case FaultPoint::kIntersectKernel: return "intersect_kernel";
    case FaultPoint::kShedDecision: return "shed_decision";
    case FaultPoint::kWatchdogTick: return "watchdog_tick";
    case FaultPoint::kNumPoints: break;
  }
  return "?";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Enable(uint64_t seed, double rate, uint32_t point_mask) {
  enabled_.store(false, std::memory_order_relaxed);
  seed_ = seed;
  rate_ = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  point_mask_ = point_mask;
  for (int p = 0; p < kNumFaultPoints; ++p) {
    ordinal_[p].store(0, std::memory_order_relaxed);
    evaluated_[p].store(0, std::memory_order_relaxed);
    injected_[p].store(0, std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_release);
}

void FaultInjector::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::Roll(FaultPoint point) {
  const int p = static_cast<int>(point);
  if ((point_mask_ & (1u << p)) == 0) return false;
  const uint64_t n = ordinal_[p].fetch_add(1, std::memory_order_relaxed);
  evaluated_[p].fetch_add(1, std::memory_order_relaxed);
  // The decision is a pure function of (seed, point, ordinal): hash them
  // into a uniform double in [0, 1) the same way Rng::NextDouble maps words.
  const uint64_t h =
      Mix64(seed_ ^ Mix64((uint64_t{0x9e37u} << 32 | uint64_t(p)) ^ n * 0x9e3779b97f4a7c15ULL));
  const bool inject = (h >> 11) * 0x1.0p-53 < rate_;
  if (inject) injected_[p].fetch_add(1, std::memory_order_relaxed);
  return inject;
}

bool FaultInjector::InitFromEnv() {
  // Once per process: re-arming on every service construction would reset
  // the deterministic ordinals mid-chaos-run.
  static const bool armed = [] {
    const char* seed_env = std::getenv("GCGT_FAULT_SEED");
    const char* rate_env = std::getenv("GCGT_FAULT_RATE");
    if (seed_env == nullptr || rate_env == nullptr) return false;
    const uint64_t seed = std::strtoull(seed_env, nullptr, 0);
    const double rate = std::strtod(rate_env, nullptr);
    uint32_t mask = kAllFaultPoints;
    if (const char* mask_env = std::getenv("GCGT_FAULT_POINTS")) {
      mask = static_cast<uint32_t>(std::strtoul(mask_env, nullptr, 0));
    }
    Global().Enable(seed, rate, mask);
    return true;
  }();
  return armed;
}

FaultInjectorStats FaultInjector::Stats() const {
  FaultInjectorStats stats;
  for (int p = 0; p < kNumFaultPoints; ++p) {
    stats.evaluated[p] = evaluated_[p].load(std::memory_order_relaxed);
    stats.injected[p] = injected_[p].load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace gcgt

#include "common/crash_point.h"

#include "common/hash.h"

namespace sigmund {
namespace {

// FNV-1a over the point name and ordinal, finished with a splitmix64
// avalanche: the same hash-not-RNG construction FaultInjectingFileSystem
// uses, so a given (seed, point, nth) fires identically on every run.
uint64_t MixHit(uint64_t seed, std::string_view point, int64_t nth) {
  return Mix64(Fnv1a64Mix(Fnv1a64(point, kFnv64OffsetBasis ^ seed),
                          static_cast<uint64_t>(nth)));
}

double ToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

void CrashInjector::ArmAt(std::string_view point, int64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  mode_ = Mode::kAt;
  armed_point_ = std::string(point);
  armed_nth_ = nth;
}

void CrashInjector::ArmGlobal(int64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  mode_ = Mode::kGlobal;
  armed_nth_ = nth;
}

void CrashInjector::ArmSeeded(uint64_t seed, double probability) {
  std::lock_guard<std::mutex> lock(mu_);
  mode_ = Mode::kSeeded;
  seed_ = seed;
  probability_ = probability;
}

void CrashInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  mode_ = Mode::kDisarmed;
}

void CrashInjector::Hit(const char* point) {
  std::lock_guard<std::mutex> lock(mu_);
  ++hits_;
  const int64_t nth = ++per_point_[point];
  sequence_.emplace_back(point);
  bool fire = false;
  switch (mode_) {
    case Mode::kDisarmed:
      break;
    case Mode::kAt:
      fire = armed_point_ == point && nth == armed_nth_;
      break;
    case Mode::kGlobal:
      fire = hits_ == armed_nth_;
      break;
    case Mode::kSeeded:
      fire = ToUnit(MixHit(seed_, point, nth)) < probability_;
      break;
  }
  if (fire) {
    mode_ = Mode::kDisarmed;  // one-shot: the recovered run must survive
    throw CrashException{point, hits_};
  }
}

int64_t CrashInjector::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::vector<std::string> CrashInjector::Sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sequence_;
}

void CrashInjector::ResetCounts() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = 0;
  per_point_.clear();
  sequence_.clear();
}

}  // namespace sigmund

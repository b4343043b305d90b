#include "src/net/readiness.h"

#include <utility>

namespace vnros {

void Readiness::set_probe(WaitKey::Kind kind, Probe probe) {
  probes_[static_cast<usize>(kind)] = std::move(probe);
}

bool Readiness::arm(WaitKey key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    armed_.insert(key);
  }
  if (!ready(key)) {
    return false;
  }
  disarm(key);
  return true;
}

void Readiness::disarm(WaitKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.erase(key);
}

void Readiness::mark(WaitKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_.erase(key) != 0) {
    marked_.push_back(key);
  }
}

void Readiness::take(std::vector<WaitKey>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  out.insert(out.end(), marked_.begin(), marked_.end());
  marked_.clear();
}

bool Readiness::ready(WaitKey key) const { return probes_[static_cast<usize>(key.kind)](key.id); }

}  // namespace vnros

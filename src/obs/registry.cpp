#include "obs/registry.h"

#include <algorithm>

namespace eucon::obs {

void Registry::add(std::string_view name, std::uint64_t delta) {
  const MutexLock lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

std::uint64_t Registry::counter(std::string_view name) const {
  const MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Registry::set_gauge(std::string_view name, double value) {
  const MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

double Registry::gauge(std::string_view name) const {
  const MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void Registry::record_duration_ns(std::string_view name, std::uint64_t ns) {
  const MutexLock lock(mu_);
  const auto it = timers_.find(name);
  if (it != timers_.end()) {
    TimerStats& t = it->second;
    ++t.count;
    t.total_ns += ns;
    t.min_ns = std::min(t.min_ns, ns);
    t.max_ns = std::max(t.max_ns, ns);
  } else {
    timers_.emplace(std::string(name), TimerStats{1, ns, ns, ns});
  }
}

TimerStats Registry::timer(std::string_view name) const {
  const MutexLock lock(mu_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? TimerStats{} : it->second;
}

Snapshot Registry::snapshot() const {
  const MutexLock lock(mu_);
  Snapshot snap;
  snap.counters.insert(counters_.begin(), counters_.end());
  snap.gauges.insert(gauges_.begin(), gauges_.end());
  snap.timers.insert(timers_.begin(), timers_.end());
  return snap;
}

void Registry::clear() {
  const MutexLock lock(mu_);
  counters_ = {};
  gauges_ = {};
  timers_ = {};
}

}  // namespace eucon::obs

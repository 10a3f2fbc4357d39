#include "core/io_policy.h"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/units.h"

namespace iosched::core {

void ValidateGrants(std::span<const IoJobView> active,
                    std::span<const RateGrant> grants) {
  if (active.size() != grants.size()) {
    throw std::logic_error("ValidateGrants: grant count mismatch");
  }
  // Fast path: every in-tree policy emits grants[i] for active[i], so the
  // common case validates positionally with no id map. Fall back to the
  // order-insensitive check only when the alignment doesn't hold.
  bool aligned = true;
  for (std::size_t i = 0; i < grants.size(); ++i) {
    if (grants[i].id != active[i].id) {
      aligned = false;
      break;
    }
  }
  if (aligned) {
    for (std::size_t i = 0; i < grants.size(); ++i) {
      if (grants[i].rate_gbps < 0) {
        throw std::logic_error("ValidateGrants: negative rate for job " +
                               std::to_string(grants[i].id));
      }
      if (grants[i].rate_gbps >
          util::MaxGrantableRate(active[i].full_rate_gbps)) {
        throw std::logic_error("ValidateGrants: job " +
                               std::to_string(grants[i].id) +
                               " granted above its full rate");
      }
    }
    return;
  }
  std::unordered_map<workload::JobId, double> by_id;
  by_id.reserve(grants.size());
  for (const RateGrant& g : grants) {
    if (g.rate_gbps < 0) {
      throw std::logic_error("ValidateGrants: negative rate for job " +
                             std::to_string(g.id));
    }
    if (!by_id.emplace(g.id, g.rate_gbps).second) {
      throw std::logic_error("ValidateGrants: duplicate grant for job " +
                             std::to_string(g.id));
    }
  }
  for (const IoJobView& v : active) {
    auto it = by_id.find(v.id);
    if (it == by_id.end()) {
      throw std::logic_error("ValidateGrants: missing grant for job " +
                             std::to_string(v.id));
    }
    if (it->second > util::MaxGrantableRate(v.full_rate_gbps)) {
      throw std::logic_error("ValidateGrants: job " + std::to_string(v.id) +
                             " granted above its full rate");
    }
  }
}

const CycleInputs& IoPolicy::NoInputs() {
  static const CycleInputs kEmpty;
  return kEmpty;
}

}  // namespace iosched::core

#include "core/policy_factory.h"

#include <array>
#include <ranges>
#include <stdexcept>

#include "core/adaptive_policy.h"
#include "core/baseline_policy.h"
#include "core/conservative_policy.h"
#include "util/strings.h"

namespace iosched::core {

namespace {

/// One registered policy: its figure name, the other (lowercase) spellings
/// the factory accepts, whether sweeps include it, and how to build it.
/// Plain constant data, so the table below is built at compile time and
/// allocates nothing.
struct PolicyEntry {
  const char* name;
  /// Unused slots are null.
  std::array<const char*, 2> aliases;
  /// Member of AllPolicyNames(), the family sweeps iterate.
  bool swept;
  std::unique_ptr<IoPolicy> (*make)();
};

template <typename Policy, auto... kArgs>
std::unique_ptr<IoPolicy> Make() {
  return std::make_unique<Policy>(kArgs...);
}

using Order = ConservativeOrder;

/// The registry. Every list, lookup and message below is derived from it;
/// the entry order is the order names are listed in.
constexpr PolicyEntry kRegistry[] = {
    {"BASE_LINE", {"baseline"}, true, &Make<BaselinePolicy>},
    {"FCFS", {"cons_fcfs", "cons-fcfs"}, true,
     &Make<ConservativePolicy, Order::kFcfs>},
    {"MAX_UTIL", {"cons_maxutil", "cons-maxutil"}, true,
     &Make<ConservativePolicy, Order::kMaxUtil>},
    {"MIN_INST_SLD", {"cons_mininstsld"}, true,
     &Make<ConservativePolicy, Order::kMinInstSld>},
    {"MIN_AGGR_SLD", {"cons_minaggrsld"}, true,
     &Make<ConservativePolicy, Order::kMinAggrSld>},
    {"ADAPTIVE", {}, true, &Make<AdaptivePolicy>},
    {"BASE_LINE_MAXMIN", {"maxmin"}, false, &Make<MaxMinPolicy>},
};

/// The entry `name` spells (case-insensitive), or null.
const PolicyEntry* Find(const std::string& name) {
  std::string n = util::ToLower(name);
  for (const PolicyEntry& entry : kRegistry) {
    if (n == util::ToLower(entry.name)) return &entry;
    for (const char* alias : entry.aliases) {
      if (alias != nullptr && n == alias) return &entry;
    }
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& AllPolicyNames() {
  static const std::vector<std::string> kNames = [] {
    auto swept = kRegistry | std::views::filter(&PolicyEntry::swept) |
                 std::views::transform(&PolicyEntry::name);
    return std::vector<std::string>(swept.begin(), swept.end());
  }();
  return kNames;
}

std::string PolicyNamesHelp() {
  std::string help;
  for (const PolicyEntry& entry : kRegistry) {
    if (!help.empty()) help += "|";
    help += entry.name;
  }
  return help;
}

bool KnownPolicyName(const std::string& name) { return Find(name) != nullptr; }

std::unique_ptr<IoPolicy> MakePolicy(const std::string& name) {
  const PolicyEntry* entry = Find(name);
  if (entry == nullptr) {
    throw std::invalid_argument("MakePolicy: unknown policy '" + name +
                                "' (valid: " + PolicyNamesHelp() + ")");
  }
  return entry->make();
}

}  // namespace iosched::core

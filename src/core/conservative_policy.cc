#include "core/conservative_policy.h"

#include <algorithm>
#include <numeric>

#include "core/knapsack.h"
#include "core/slowdown.h"
#include "obs/hub.h"

namespace iosched::core {

namespace {
std::string NameFor(ConservativeOrder order) {
  switch (order) {
    case ConservativeOrder::kFcfs: return "FCFS";
    case ConservativeOrder::kMaxUtil: return "MAX_UTIL";
    case ConservativeOrder::kMinInstSld: return "MIN_INST_SLD";
    case ConservativeOrder::kMinAggrSld: return "MIN_AGGR_SLD";
  }
  return "?";
}
}  // namespace

ConservativePolicy::ConservativePolicy(ConservativeOrder order)
    : order_(order), name_(NameFor(order)) {}

const std::string& ConservativePolicy::name() const { return name_; }

void ConservativePolicy::BindObs(obs::Hub* hub) {
  knapsack_counter_ = hub != nullptr ? hub->knapsack_invocations : nullptr;
}

std::vector<std::size_t> ConservativePriorityOrder(
    std::span<const IoJobView> active, ConservativeOrder order,
    sim::SimTime now) {
  // Every ordering sorts a contiguous array of precomputed keys — the
  // comparators never touch the (much wider) IoJobView records, and keys
  // are evaluated once per element instead of once per comparison.
  struct Ranked {
    double key;
    sim::SimTime arrival;
    workload::JobId id;
    std::size_t idx;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    ranked.push_back({0.0, active[i].request_arrival, active[i].id, i});
  }

  auto fcfs_less = [](const Ranked& a, const Ranked& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  };
  auto sort_key_desc = [&] {
    std::sort(ranked.begin(), ranked.end(),
              [&](const Ranked& a, const Ranked& b) {
                if (a.key != b.key) return a.key > b.key;
                return fcfs_less(a, b);
              });
  };

  switch (order) {
    case ConservativeOrder::kFcfs:
    case ConservativeOrder::kMaxUtil:
      std::sort(ranked.begin(), ranked.end(), fcfs_less);
      break;
    case ConservativeOrder::kMinInstSld:
      // To *minimize* slowdown, serve the currently most-slowed-down
      // request first. A suspended request's InstSld grows with its waiting
      // time, so this degenerates to FCFS among starved requests — the
      // paper notes MinInstSld "is close to Cons-FCFS".
      for (std::size_t i = 0; i < active.size(); ++i) {
        ranked[i].key = InstantSlowdown(active[i], now);
      }
      sort_key_desc();
      break;
    case ConservativeOrder::kMinAggrSld:
      // Most-delayed job (whole-lifetime view) first, so a job that was
      // squeezed earlier catches up instead of compounding its delay.
      for (std::size_t i = 0; i < active.size(); ++i) {
        ranked[i].key = AggregateSlowdown(active[i], now);
      }
      sort_key_desc();
      break;
  }

  std::vector<std::size_t> idx(active.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) idx[i] = ranked[i].idx;
  return idx;
}

std::vector<RateGrant> ConservativePolicy::Assign(
    std::span<const IoJobView> active, double max_bandwidth_gbps,
    sim::SimTime now) {
  std::vector<RateGrant> grants(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    grants[i] = {active[i].id, 0.0};
  }
  if (active.empty()) return grants;

  std::vector<bool> admitted(active.size(), false);
  std::size_t admitted_count = 0;

  // A job whose solo demand b*N_i exceeds BWmax (an 8192+ node job on Mira)
  // can never "fit"; counting its demand as min(b*N_i, BWmax) lets it be
  // admitted (alone, rate-capped at the disks' speed) when it reaches the
  // head of the priority order instead of starving behind smaller jobs.
  auto demand = [&](const IoJobView& v) {
    return std::min(v.full_rate_gbps, max_bandwidth_gbps);
  };

  if (order_ == ConservativeOrder::kMaxUtil) {
    // Knapsack: weight = (capped) bandwidth demand, value = compute nodes.
    std::vector<KnapsackItem> items;
    items.reserve(active.size());
    for (const IoJobView& v : active) {
      items.push_back({demand(v), static_cast<double>(v.nodes)});
    }
    if (knapsack_counter_ != nullptr) knapsack_counter_->Inc();
    KnapsackSolution solution =
        SolveKnapsack01(items, max_bandwidth_gbps, /*unit=*/1.0);
    for (std::size_t i : solution.selected) {
      admitted[i] = true;
      ++admitted_count;
    }
  } else {
    std::vector<std::size_t> priority =
        ConservativePriorityOrder(active, order_, now);
    double available = max_bandwidth_gbps;
    for (std::size_t i : priority) {
      if (demand(active[i]) <= available) {
        admitted[i] = true;
        ++admitted_count;
        available -= demand(active[i]);
      }
    }
  }

  if (admitted_count == 0) {
    // Starvation guard: every candidate alone exceeds BWmax. Admit the
    // top-priority job capped at BWmax.
    std::vector<std::size_t> priority =
        ConservativePriorityOrder(active, order_, now);
    std::size_t head = priority.front();
    grants[head].rate_gbps =
        std::min(active[head].full_rate_gbps, max_bandwidth_gbps);
    return grants;
  }

  for (std::size_t i = 0; i < active.size(); ++i) {
    if (admitted[i]) {
      grants[i].rate_gbps =
          std::min(active[i].full_rate_gbps, max_bandwidth_gbps);
    }
  }
  return grants;
}

}  // namespace iosched::core

// The paper's Figure 7 micro-scenario: why the adaptive policy admits an
// overflow request that Cons-FCFS would make wait.
//
// Two I/O requests (A, B) are in flight; two more (C, D) arrive and exceed
// the remaining storage bandwidth. Cons-FCFS suspends C and D until A or B
// finishes, wasting bandwidth; ADAPTIVE compares the average finish time of
// "defer C" vs "let C compete" and admits C when sharing is cheaper.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/io_scheduler.h"
#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "storage/storage_model.h"
#include "workload/job.h"

using namespace iosched;

namespace {

struct Request {
  workload::JobId id;
  const char* label;
  int nodes;
  double volume_gb;
  double arrival;
};

/// The example's own event type: the simulator hands each arrival event
/// (key = request index) to this handler, registered under its own owner
/// tag the way the engine's components register theirs.
class ArrivalDriver : public sim::EventHandler {
 public:
  static constexpr sim::Owner kOwner = 100;

  ArrivalDriver(sim::Simulator& simulator,
                std::function<void(std::size_t)> arrive)
      : simulator_(simulator), arrive_(std::move(arrive)) {
    simulator_.SetHandler(kOwner, this, 1);
  }
  ~ArrivalDriver() { simulator_.SetHandler(kOwner, nullptr, 0); }

  void OnEvent(const sim::Event& event) override {
    arrive_(static_cast<std::size_t>(event.key));
  }

 private:
  sim::Simulator& simulator_;
  std::function<void(std::size_t)> arrive_;
};

void RunScenario(const std::string& policy_name) {
  // Mira-like numbers: b = 31.25 MB/s per node, BWmax = 250 GB/s.
  const double node_bw = 1536.0 / 49152.0;
  const std::vector<Request> requests = {
      {1, "A", 4096, 1280.0, 0.0},   // 128 GB/s for ~10 s
      {2, "B", 2048, 1280.0, 0.0},   // 64 GB/s for ~20 s
      {3, "C", 4096, 640.0, 1.0},    // needs 128, only 58 free -> overflow
      {4, "D", 2048, 640.0, 2.0},    // needs 64 after C's decision
  };

  sim::Simulator simulator;
  storage::StorageModel storage(storage::StorageConfig{250.0, true});
  std::vector<workload::Job> jobs;
  jobs.reserve(requests.size());
  for (const Request& r : requests) {
    workload::Job j;
    j.id = r.id;
    j.submit_time = 0;
    j.nodes = r.nodes;
    j.requested_walltime = 1e6;
    j.phases = {workload::Phase::Io(r.volume_gb)};
    jobs.push_back(j);
  }

  std::printf("--- %s ---\n", policy_name.c_str());
  core::IoScheduler scheduler(
      simulator, storage, node_bw, core::MakePolicy(policy_name),
      [&](workload::JobId id, sim::SimTime t, const core::IoCompletionInfo&) {
        std::printf("  t=%5.2fs  request %s finished\n", t,
                    requests[static_cast<std::size_t>(id - 1)].label);
      });
  ArrivalDriver arrivals(simulator, [&](std::size_t i) {
    std::printf("  t=%5.2fs  request %s arrives (%d nodes, %.0f GB, "
                "demand %.0f GB/s)\n",
                requests[i].arrival, requests[i].label, requests[i].nodes,
                requests[i].volume_gb, node_bw * requests[i].nodes);
    scheduler.SubmitRequest(requests[i].id, requests[i].volume_gb,
                            simulator.Now());
    // Show the post-cycle bandwidth grants.
    for (const storage::Transfer* t : storage.ActiveByArrival()) {
      std::printf("             %s: %.1f GB/s%s\n",
                  requests[static_cast<std::size_t>(t->job_id - 1)].label,
                  t->rate_gbps, t->rate_gbps == 0 ? "  (suspended)" : "");
    }
  });
  for (std::size_t i = 0; i < requests.size(); ++i) {
    scheduler.RegisterJob(jobs[i], 0.0);
    simulator.ScheduleAt(requests[i].arrival, ArrivalDriver::kOwner, 0,
                         static_cast<std::int64_t>(i));
  }
  simulator.Run();
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Figure 7 scenario: requests C and D overflow BWmax=250 GB/s\n\n");
  RunScenario("FCFS");
  RunScenario("ADAPTIVE");
  std::printf(
      "Under FCFS, C and D wait for releases while bandwidth idles;\n"
      "ADAPTIVE lets them compete when that lowers the average finish time.\n");
  return 0;
}

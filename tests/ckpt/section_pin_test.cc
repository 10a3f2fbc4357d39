// Pinned checkpoint section bytes. A two-day cut of configs/faults.ini with
// an event log and kept bandwidth samples saves every one of the 13
// sections, the MTBF and flush-deferral branches included. The test pins
// each section's byte size and CRC-32 in the seventh checkpoint (one every
// 1500 events), which holds an in-flight transfer, absorbed requests, an
// armed transfer deadline and a parked flush. A refactor of how sections
// are written or read must reproduce these bytes exactly; a deliberate
// layout change re-pins them together with a ckpt::kFormatVersion bump, so
// files in the old layout fail as VersionError.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "ckpt/checkpoint.h"
#include "ckpt/serializer.h"
#include "core/event_log.h"
#include "core/simulation.h"
#include "driver/config_scenario.h"
#include "metrics/bandwidth.h"
#include "metrics/fault_stats.h"
#include "metrics/utilization.h"
#include "util/config.h"

namespace iosched::ckpt {
namespace {

struct SectionPin {
  const char* name;
  std::size_t bytes;
  std::uint32_t crc;
};

/// Runs the pinned two-day cut of configs/faults.ini, saving a checkpoint
/// every 1500 events into `dir`. A save whose size-only pass disagrees
/// with its write throws out of the run.
void RunPinnedCut(const std::filesystem::path& dir) {
  util::Config ini =
      util::Config::FromFile(std::string(IOSCHED_CONFIG_DIR) + "/faults.ini");
  ini.Set("workload.days", "2");
  driver::Scenario scenario = driver::ScenarioFromConfig(ini);
  core::SimulationConfig config = scenario.config;
  config.keep_bandwidth_samples = true;
  std::filesystem::remove_all(dir);
  config.checkpoint.directory = dir.string();
  config.checkpoint.every_events = 1500;
  config.checkpoint.keep_last = 0;
  core::EventLog log;
  core::RunSimulation(config, scenario.jobs, &log);
}

TEST(SectionPin, FaultsIniCutSavesPinnedSectionBytes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "ckpt_section_pin";
  RunPinnedCut(dir);
  const CheckpointFile file =
      CheckpointFile::Load(CheckpointFileName(dir.string(), 7));
  EXPECT_EQ(kFormatVersion, 7u);
  const SectionPin pins[] = {
      {"sim", 1898, 0x6ca60f3cu},
      {"machine", 60, 0x106ab0a9u},
      {"storage", 112, 0xe1af7b1au},
      {"burst_buffer", 1353, 0x8a68b5e3u},
      {"batch", 929, 0x27b3616du},
      {"iosched", 834, 0xf42b3e4eu},
      {"engine", 20499, 0xa9fecc26u},
      {"faults", 336, 0x315f782fu},
      {"fault_stats", 13342, 0x4bb3f98fu},
      {"utilization", 8612, 0xd1376d34u},
      {"bandwidth", 161, 0x39148a6eu},
      {"bandwidth_samples", 235684, 0xda3cad62u},
      {"event_log", 275629, 0x2d18c729u},
  };
  for (const SectionPin& pin : pins) {
    ASSERT_TRUE(file.HasSection(pin.name)) << pin.name;
    const std::string_view payload = file.Section(pin.name);
    EXPECT_EQ(payload.size(), pin.bytes) << pin.name;
    EXPECT_EQ(Crc32(payload), pin.crc)
        << pin.name << " crc 0x" << std::hex << Crc32(payload);
  }
  fs::remove_all(dir);
}

/// Restores `component` from the file's `name` section, then re-encodes
/// it: the size-only pass must count the section's bytes, and EncodeExact
/// must return them in a buffer with no spare capacity.
template <class Component, class Fn>
void ExpectExactReencode(const CheckpointFile& file, const char* name,
                         Component& component, Fn serialize) {
  const std::string_view payload = file.Section(name);
  Reader r(payload, name);
  serialize(component, r);
  r.ExpectEnd();
  Writer counter = Writer::SizeOnly();
  serialize(component, counter);
  EXPECT_EQ(counter.size(), payload.size()) << name;
  const std::string bytes =
      EncodeExact([&](Writer& w) { serialize(component, w); });
  EXPECT_EQ(bytes, payload) << name;
  EXPECT_EQ(bytes.capacity(), bytes.size()) << name;
}

// The engine's sections are encoded by EncodeExact at every save of the
// run, which throws if a size-only pass disagrees with its write. The
// sections that need no links to other state are also re-encoded here,
// checking the counted size and the exact allocation directly.
TEST(SectionPin, SizeOnlyPassCountsThePinnedSections) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "ckpt_section_sizes";
  RunPinnedCut(dir);
  const CheckpointFile file =
      CheckpointFile::Load(CheckpointFileName(dir.string(), 7));
  auto serialize = [](auto& component, auto& ar) { component.Serialize(ar); };

  core::EventLog log;
  ExpectExactReencode(file, "event_log", log, serialize);
  metrics::FaultStats fault_stats;
  ExpectExactReencode(file, "fault_stats", fault_stats, serialize);
  metrics::UtilizationTracker utilization(1);
  ExpectExactReencode(file, "utilization", utilization, serialize);
  metrics::BandwidthTracker bandwidth(1.0, /*keep_samples=*/true);
  ExpectExactReencode(file, "bandwidth", bandwidth, serialize);
  ExpectExactReencode(file, "bandwidth_samples", bandwidth,
                      [](auto& component, auto& ar) {
                        component.SerializeSamples(ar);
                      });
  fs::remove_all(dir);
}

}  // namespace
}  // namespace iosched::ckpt

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

#include "ckpt/checkpoint.h"
#include "ckpt/serializer.h"
#include "core/event_log.h"
#include "core/simulation.h"
#include "driver/config_scenario.h"
#include "util/config.h"

namespace iosched::ckpt {
namespace {

struct SectionPin {
  const char* name;
  std::size_t bytes;
  std::uint32_t crc;
};

TEST(SectionPin, FaultsIniCutSavesPinnedSectionBytes) {
  util::Config ini =
      util::Config::FromFile(std::string(IOSCHED_CONFIG_DIR) + "/faults.ini");
  ini.Set("workload.days", "2");
  driver::Scenario scenario = driver::ScenarioFromConfig(ini);
  core::SimulationConfig config = scenario.config;
  config.keep_bandwidth_samples = true;
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "ckpt_section_pin";
  fs::remove_all(dir);
  config.checkpoint.directory = dir.string();
  config.checkpoint.every_events = 1500;
  config.checkpoint.keep_last = 0;
  core::EventLog log;
  core::RunSimulation(config, scenario.jobs, &log);

  const CheckpointFile file =
      CheckpointFile::Load(CheckpointFileName(dir.string(), 7));
  EXPECT_EQ(kFormatVersion, 6u);
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

}  // namespace
}  // namespace iosched::ckpt

// The SimulationConfig field table (core/config_fields.h): its rows are
// well formed, and every row's hash class is what the hash and a replay
// actually do. Each row is moved to another valid value; a hashed row must
// move SimulationConfigHash, and an excluded row must leave both the hash
// and the replay's record digest unchanged, which checks each exclusion
// reason by running it.
#include "core/config_fields.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "driver/scenario.h"
#include "metrics/digest.h"
#include "obs/hub.h"

namespace iosched::core {
namespace {

namespace fs = std::filesystem;

struct RowLister : util::FieldVisitor {
  std::set<std::string> paths;
  std::set<std::string> keys;
  std::set<std::string> flags;

  template <class T>
  void operator()(const T&, const util::Field& field,
                  const util::RowExtra& = {}) {
    const std::string path = Path(field);
    EXPECT_TRUE(paths.insert(path).second) << path << " listed twice";
    EXPECT_FALSE(std::string(field.doc).empty()) << path << " has no doc";
    if (field.ini_key != nullptr) {
      EXPECT_TRUE(keys.insert(field.ini_key).second)
          << field.ini_key << " names two fields";
      EXPECT_TRUE(util::kHasText<T>) << path << " has a key but no text";
    }
    if (field.flag != nullptr) {
      EXPECT_TRUE(flags.insert(field.flag).second)
          << "--" << field.flag << " names two fields";
    }
  }
};

TEST(ConfigFields, RowsAreWellFormed) {
  const SimulationConfig config;
  RowLister lister;
  VisitFields(config, lister);
  // A spot check that the table covers the sub-structs.
  for (const char* path :
       {"machine.rows", "faults.plan_config.job_mtbf_seconds",
        "transfer_retry.jitter_seed", "checkpoint.resume_latest", "control"}) {
    EXPECT_EQ(lister.paths.count(path), 1u) << path;
  }
}

/// Moves the `target`-th row of the config it visits to another value that
/// keeps the config valid: a number is halved, doubled or replaced by a
/// round value, an enum takes another name, a string one of `texts`.
struct RowMover : util::FieldVisitor {
  int target = 0;
  const SimulationConfig* config = nullptr;
  std::vector<std::string> texts;
  RunControl* control = nullptr;

  int index = 0;
  bool moved = false;
  bool hashed_row = false;
  std::string path;

  template <class T>
  void operator()(T& value, const util::Field& field,
                  const util::RowExtra& = {}) {
    if (index++ != target) return;
    path = Path(field);
    hashed_row = hashed && field.hash != util::HashClass::kExcluded;
    if constexpr (std::is_same_v<T, faults::FaultPlan>) {
      value.degradations.push_back({0.0, 3600.0, 0.5});
      moved = true;
    } else if constexpr (std::is_same_v<T, RunControl*>) {
      value = control;
      moved = true;
    } else {
      std::vector<std::string> candidates = texts;
      if constexpr (std::is_arithmetic_v<T>) {
        const auto number = static_cast<double>(value);
        candidates = {util::FormatValue(number / 2),
                      util::FormatValue(number * 2), "3600", "0.5", "1", "0"};
      } else if constexpr (std::is_enum_v<T>) {
        candidates = {"fcfs", "zero"};
      }
      const T saved = value;
      for (const std::string& text : candidates) {
        value = saved;
        using util::ParseValue;
        try {
          if (!ParseValue(text, value)) continue;
        } catch (const std::invalid_argument&) {
          continue;  // not a name of this enum
        }
        if (util::FormatValue(value) == util::FormatValue(saved)) continue;
        if (config->Validate().empty()) {
          moved = true;
          return;
        }
      }
      value = saved;
    }
  }
};

class ConfigFieldPerturbation : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) / "config_fields_perturbation";
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    scenario_ = driver::MakeEvaluationScenario(1, 1.0);
    SimulationConfig& base = scenario_.config;
    // Every row is hashed or excluded unconditionally on this base: obs
    // brings in the sampling period. ADAPTIVE reads the tier snapshot, so
    // the burst-buffer rows below shape its grants too.
    base.policy = "ADAPTIVE";
    base.obs.enabled = true;
    // Congested storage, so that knobs such as the walltime kill bite, and
    // a live burst buffer and a checkpoint directory, so that the rows that
    // depend on them can move and stay valid.
    base.storage.max_bandwidth_gbps = 40.0;
    base.burst_buffer.capacity_gb = 20000.0;
    base.burst_buffer.drain_gbps = 10.0;
    base.checkpoint.directory = (dir_ / "live").string();
    ASSERT_TRUE(base.Validate().empty());

    // A checkpoint of this very config for the resume rows, kept apart from
    // the directory the moved rows save into (and prune).
    SimulationConfig saving = base;
    saving.checkpoint.directory = (dir_ / "saved").string();
    saving.checkpoint.every_sim_seconds = 6 * 3600.0;
    ASSERT_GT(Replay(saving).checkpoints_written, 0u);
    checkpoint_file_ =
        ckpt::ListCheckpoints(saving.checkpoint.directory).front().second;
  }

  SimulationResult Replay(const SimulationConfig& config) const {
    std::optional<obs::Hub> hub;
    if (config.obs.enabled) hub.emplace(config.obs);
    return RunSimulation(config, scenario_.jobs, nullptr,
                         hub ? &*hub : nullptr);
  }

  std::uint64_t Hash(const SimulationConfig& config) const {
    return SimulationConfigHash(config, scenario_.jobs);
  }

  fs::path dir_;
  driver::Scenario scenario_;
  std::string checkpoint_file_;
  RunControl control_;
};

TEST_F(ConfigFieldPerturbation, HashMovesExactlyForHashedRows) {
  const SimulationConfig& base = scenario_.config;
  const std::uint64_t base_hash = Hash(base);
  const std::uint64_t base_digest =
      metrics::DigestRecords(Replay(base).records);
  RowLister lister;
  VisitFields(base, lister);
  const int rows = static_cast<int>(lister.paths.size());
  int excluded = 0;
  for (int row = 0; row < rows; ++row) {
    SimulationConfig moved = base;
    // String candidates, in order: the resume rows need the checkpoint
    // file, policy a policy name.
    RowMover mover;
    mover.target = row;
    mover.config = &moved;
    mover.texts = {checkpoint_file_, "MAX_UTIL"};
    mover.control = &control_;
    VisitFields(moved, mover);
    if (!mover.moved) {
      ADD_FAILURE() << mover.path << ": no other valid value to try";
      continue;
    }
    if (mover.hashed_row) {
      EXPECT_NE(Hash(moved), base_hash) << mover.path << " is hashed";
      continue;
    }
    ++excluded;
    EXPECT_EQ(Hash(moved), base_hash) << mover.path << " is excluded";
    EXPECT_EQ(metrics::DigestRecords(Replay(moved).records), base_digest)
        << mover.path << " is excluded from the hash, yet moves the replay";
  }
  EXPECT_GE(excluded, 15);
}

}  // namespace
}  // namespace iosched::core

// Content-addressed artifact cache: hit/miss, corruption tolerance,
// atomic replacement, and the store-then-reload normalization contract.
#include "campaign/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "../test_helpers.hpp"
#include "core/controller_io.hpp"
#include "core/pipeline.hpp"
#include "util/durable.hpp"

namespace solsched::campaign {
namespace {

const core::TrainedController& tiny_controller() {
  static const core::TrainedController c = [] {
    const auto grid = test::tiny_grid();
    const auto gen = test::scaled_generator(grid, 81);
    core::PipelineConfig config;
    config.n_caps = 2;
    config.dp.energy_buckets = 6;
    config.dbn.pretrain.epochs = 2;
    config.dbn.finetune.epochs = 10;
    return core::train_pipeline(test::indep3(), gen.generate_days(1, grid),
                                test::small_node(grid), config);
  }();
  return c;
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ArtifactCache, MissThenStoreThenHit) {
  ArtifactCache cache(fresh_dir("cache_hit"));
  core::TrainedController loaded;
  EXPECT_FALSE(cache.load(42, &loaded));
  cache.store(42, tiny_controller());
  ASSERT_TRUE(cache.load(42, &loaded));
  EXPECT_EQ(loaded.node.capacities_f, tiny_controller().node.capacities_f);
  EXPECT_FALSE(cache.load(43, &loaded));  // Different key, different entry.
}

// The normalization the runner depends on: a stored-then-reloaded
// controller is byte-for-byte re-serializable, so cache-hit and
// train-then-reload paths hand the simulator the *same* controller.
TEST(ArtifactCache, ReloadedControllerSerializesIdentically) {
  ArtifactCache cache(fresh_dir("cache_norm"));
  cache.store(7, tiny_controller());
  core::TrainedController loaded;
  ASSERT_TRUE(cache.load(7, &loaded));
  core::TrainedController again;
  cache.store(8, loaded);
  ASSERT_TRUE(cache.load(8, &again));
  EXPECT_EQ(core::serialize_controller(loaded),
            core::serialize_controller(again));
}

TEST(ArtifactCache, CorruptEntryIsAMissAndReplaceable) {
  ArtifactCache cache(fresh_dir("cache_corrupt"));
  cache.store(9, tiny_controller());
  std::ofstream(cache.path_of(9), std::ios::trunc) << "garbage\n";
  core::TrainedController loaded;
  EXPECT_FALSE(cache.load(9, &loaded));  // Miss, not a throw.
  cache.store(9, tiny_controller());     // Atomic replace.
  EXPECT_TRUE(cache.load(9, &loaded));
}

TEST(ArtifactCache, KeyedPathsAreStable) {
  ArtifactCache cache(fresh_dir("cache_paths"));
  EXPECT_NE(cache.path_of(1), cache.path_of(2));
  EXPECT_EQ(cache.path_of(0xabcULL).substr(cache.path_of(0xabcULL).size() - 27),
            "0000000000000abc.controller");
}

TEST(ArtifactCache, UnwritableDirectoryThrows) {
  EXPECT_THROW(ArtifactCache("/proc/no_such_dir_xyz"), std::runtime_error);
}

// A store that cannot complete must throw a typed error and leave neither
// a .tmp nor a changed entry behind, never publish silently. The cache dir
// is made unwritable by replacing it with a regular file (permission bits
// do not bind root).
TEST(ArtifactCache, StoreIntoUnwritableDirThrowsTypedErrorAndLeavesNoTmp) {
  const std::string dir = fresh_dir("cache_unwritable");
  ArtifactCache cache(dir);
  std::filesystem::remove_all(dir);
  std::ofstream(dir) << "not a directory\n";
  EXPECT_THROW(cache.store(5, tiny_controller()), util::IoError);
  EXPECT_FALSE(std::filesystem::exists(cache.path_of(5) + ".tmp"));
  std::filesystem::remove(dir);
}

TEST(ArtifactCache, StoreThatFailsMidWriteKeepsTheOldEntryAndLeavesNoTmp) {
  ArtifactCache cache(fresh_dir("cache_short_write"));
  std::ofstream(cache.path_of(6)) << "previous entry\n";
  {
    const test::FileSizeLimit limit(64);  // The bundle is far larger.
    EXPECT_THROW(cache.store(6, tiny_controller()), util::IoError);
  }
  EXPECT_FALSE(std::filesystem::exists(cache.path_of(6) + ".tmp"));
  std::ifstream in(cache.path_of(6));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "previous entry");
}

}  // namespace
}  // namespace solsched::campaign

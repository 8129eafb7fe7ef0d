// Run manifests: digest stability/sensitivity, JSON shape, environment
// capture and metrics embedding.
#include "obs/analysis/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "../../test_helpers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace solsched::obs::analysis {
namespace {

ManifestInfo basic_info(const nvp::NodeConfig* node = nullptr) {
  ManifestInfo info;
  info.workload = "unit_test";
  info.seeds = {7, 42};
  info.node = node;
  info.trace_path = "events.jsonl";
  return info;
}

TEST(NodeConfigDigest, StableAndSensitive) {
  const auto grid = test::tiny_grid();
  const auto node = test::small_node(grid);
  const std::uint64_t base = node_config_digest(node);
  EXPECT_EQ(node_config_digest(node), base);  // Deterministic.

  auto changed = node;
  changed.v_high += 0.1;
  EXPECT_NE(node_config_digest(changed), base);

  changed = node;
  changed.backup_energy_j *= 2.0;
  EXPECT_NE(node_config_digest(changed), base);

  changed = node;
  changed.capacities_f.push_back(33.0);
  EXPECT_NE(node_config_digest(changed), base);

  changed = node;
  changed.volatile_baseline = !changed.volatile_baseline;
  EXPECT_NE(node_config_digest(changed), base);
}

TEST(Manifest, JsonParsesAndCarriesCoreFields) {
  const auto grid = test::tiny_grid();
  const auto node = test::small_node(grid);
  const std::string text = manifest_json(basic_info(&node));

  const JsonValue v = parse_json(text);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.string_or("workload"), "unit_test");

  const JsonValue* seeds = v.find("seeds");
  ASSERT_NE(seeds, nullptr);
  ASSERT_TRUE(seeds->is_array());
  ASSERT_EQ(seeds->array.size(), 2u);
  EXPECT_DOUBLE_EQ(seeds->array[0].number, 7.0);
  EXPECT_DOUBLE_EQ(seeds->array[1].number, 42.0);

  // The digest is a 16-hex-digit string matching node_config_digest.
  char expect[32];
  std::snprintf(expect, sizeof(expect), "%016llx",
                static_cast<unsigned long long>(node_config_digest(node)));
  EXPECT_EQ(v.string_or("node_config_digest"), expect);

  const JsonValue* build = v.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->string_or("git_hash").empty());
  EXPECT_FALSE(build->string_or("compiler").empty());
  EXPECT_EQ(v.string_or("trace"), "events.jsonl");
  EXPECT_EQ(v.find("metrics"), nullptr);  // Not requested.
}

TEST(Manifest, OmitsDigestWithoutNode) {
  const std::string text = manifest_json(basic_info(nullptr));
  const JsonValue v = parse_json(text);
  EXPECT_EQ(v.find("node_config_digest"), nullptr);
  EXPECT_EQ(v.find("node"), nullptr);
}

TEST(Manifest, CapturesSolschedEnvironment) {
  ::setenv("SOLSCHED_MANIFEST_PROBE", "probe-value", 1);
  const std::string text = manifest_json(basic_info());
  ::unsetenv("SOLSCHED_MANIFEST_PROBE");

  const JsonValue v = parse_json(text);
  const JsonValue* env = v.find("env");
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->string_or("SOLSCHED_MANIFEST_PROBE"), "probe-value");
}

TEST(Manifest, EmbedsMetricsSnapshotWhenRequested) {
  ManifestInfo info = basic_info();
  info.include_metrics = true;
  const JsonValue v = parse_json(manifest_json(info));
  const JsonValue* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());
}

TEST(Manifest, WriteManifestRoundTripsAndThrowsOnBadPath) {
  const std::string path = ::testing::TempDir() + "manifest_test.json";
  write_manifest(path, basic_info());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), manifest_json(basic_info()));
  std::remove(path.c_str());

  EXPECT_THROW(write_manifest("/nonexistent-dir/x/y.json", basic_info()),
               std::runtime_error);
}

}  // namespace
}  // namespace solsched::obs::analysis

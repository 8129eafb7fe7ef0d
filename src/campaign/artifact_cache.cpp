#include "campaign/artifact_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/controller_io.hpp"
#include "util/durable.hpp"

namespace solsched::campaign {

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error("ArtifactCache: cannot create " + dir_ + ": " +
                             ec.message());
}

std::string ArtifactCache::path_of(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx",
                static_cast<unsigned long long>(key));
  return dir_ + "/" + name + ".controller";
}

bool ArtifactCache::load(std::uint64_t key, core::TrainedController* out) const {
  const std::string path = path_of(key);
  if (!std::filesystem::exists(path)) return false;
  try {
    *out = core::deserialize_controller(util::read_file(path));
  } catch (const std::exception& e) {
    // An unreadable or corrupt entry is a miss, not a fatal error: the
    // caller retrains and store() replaces the file atomically.
    std::fprintf(stderr, "solsched-campaign: discarding corrupt artifact %s (%s)\n",
                 path.c_str(), e.what());
    return false;
  }
  return true;
}

void ArtifactCache::store(std::uint64_t key,
                          const core::TrainedController& controller) const {
  // A crash mid-store must never publish a half-artifact under the final
  // name.
  util::write_atomic(path_of(key), core::serialize_controller(controller));
}

}  // namespace solsched::campaign

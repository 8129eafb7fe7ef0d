// Heap-allocation counter for the allocation-budget binaries
// (sched_alloc_tests, obs_disabled_path_tests).
//
// counting_allocator.cpp replaces the global operator new and delete, so a
// binary that links it counts every allocation in the process. Only a
// binary of its own may link it: the count must not leak into other suites.
#pragma once

#include <cstdint>

namespace solsched::test {

/// Calls to the global operator new (plain, array and nothrow forms) since
/// the process started.
std::uint64_t allocation_count() noexcept;

}  // namespace solsched::test

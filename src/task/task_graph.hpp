// Task DAG G(V, W) with the structural queries schedulers need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "task/task.hpp"

namespace solsched::task {

/// Immutable-after-build task graph of one benchmark.
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Builds and validates the graph. Throws std::invalid_argument if ids are
  /// inconsistent, an edge references a missing task, or the graph is cyclic.
  TaskGraph(std::string name, std::vector<Task> tasks, std::vector<Edge> edges);

  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return tasks_.size(); }
  const std::vector<Task>& tasks() const noexcept { return tasks_; }
  const Task& task(std::size_t id) const { return tasks_.at(id); }
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Number of NVPs referenced (max nvp index + 1; 0 when empty).
  std::size_t nvp_count() const noexcept { return nvp_count_; }

  /// Direct predecessors of task `id` (tasks it depends on).
  const std::vector<std::size_t>& predecessors(std::size_t id) const {
    return preds_.at(id);
  }
  /// Direct successors of task `id`.
  const std::vector<std::size_t>& successors(std::size_t id) const {
    return succs_.at(id);
  }

  /// Task ids in a topological order (dependencies first).
  const std::vector<std::size_t>& topo_order() const noexcept { return topo_; }

  /// True when the graph fits the 64-bit set representation PeriodState's
  /// fast path uses (every benchmark in the paper has n <= 13).
  bool mask_capable() const noexcept { return tasks_.size() <= 64; }

  /// Bit set of direct predecessors of `id` (only when mask_capable()).
  std::uint64_t pred_mask(std::size_t id) const { return pred_masks_.at(id); }

  /// Task ids sorted by (deadline_s, id) — the order deadline sweeps fire.
  const std::vector<std::size_t>& deadline_order() const noexcept {
    return deadline_order_;
  }

  /// Task ids bound to the given NVP.
  std::vector<std::size_t> tasks_on_nvp(std::size_t nvp) const;

  /// Total energy to run every task once (J).
  double total_energy_j() const noexcept;

  /// Largest power drawn if every NVP ran its most power-hungry task (W) —
  /// an upper bound on instantaneous load.
  double peak_power_w() const;

 private:
  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> preds_;
  std::vector<std::vector<std::size_t>> succs_;
  std::vector<std::size_t> topo_;
  std::vector<std::uint64_t> pred_masks_;
  std::vector<std::size_t> deadline_order_;
  std::size_t nvp_count_ = 0;
};

}  // namespace solsched::task

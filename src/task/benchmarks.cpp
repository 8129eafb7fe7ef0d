#include "task/benchmarks.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace solsched::task {
namespace {

/// Builds a Task from milliwatt power (readability of the tables below).
Task make_task(std::size_t id, std::string name, double deadline_s,
               double exec_s, double power_mw, std::size_t nvp) {
  return Task{id, std::move(name), deadline_s, exec_s,
              util::mw_to_w(power_mw), nvp};
}

}  // namespace

TaskGraph wam_benchmark() {
  // 8 tasks over 4 NVPs; the audio pipeline is the long dependency chain.
  std::vector<Task> tasks = {
      make_task(0, "locate", 300, 60, 30, 0),
      make_task(1, "heart_rate", 120, 30, 10, 1),
      make_task(2, "voice_rec", 240, 90, 18, 2),
      make_task(3, "audio_proc", 420, 90, 25, 2),
      make_task(4, "emergency", 240, 30, 15, 1),
      make_task(5, "audio_comp", 540, 60, 22, 3),
      make_task(6, "storage", 600, 30, 12, 3),
      make_task(7, "transmit", 600, 60, 45, 0),
  };
  std::vector<Edge> edges = {
      {2, 3},  // voice recording -> audio processing
      {1, 4},  // heart rate -> emergency response
      {3, 5},  // audio processing -> compression
      {5, 6},  // compression -> local storage
      {6, 7},  // storage -> transmission
  };
  return TaskGraph("WAM", std::move(tasks), std::move(edges));
}

TaskGraph ecg_benchmark() {
  std::vector<Task> tasks = {
      make_task(0, "lpf", 180, 60, 12, 0),
      make_task(1, "hpf1", 300, 60, 12, 0),
      make_task(2, "hpf2", 420, 60, 12, 1),
      make_task(3, "qrs", 540, 90, 20, 1),
      make_task(4, "fft", 480, 90, 28, 2),
      make_task(5, "aes", 600, 60, 35, 2),
  };
  std::vector<Edge> edges = {
      {0, 1},  // low-pass -> high-pass 1
      {1, 2},  // high-pass 1 -> high-pass 2
      {2, 3},  // high-pass 2 -> QRS detection
      {3, 5},  // QRS -> AES encryption of the features
  };
  return TaskGraph("ECG", std::move(tasks), std::move(edges));
}

TaskGraph shm_benchmark() {
  std::vector<Task> tasks = {
      make_task(0, "temp_sense", 120, 30, 8, 0),
      make_task(1, "accel_sense", 300, 90, 15, 0),
      make_task(2, "fft", 480, 120, 30, 1),
      make_task(3, "receive", 300, 60, 25, 2),
      make_task(4, "transmit", 600, 90, 40, 2),
  };
  std::vector<Edge> edges = {
      {1, 2},  // acceleration samples -> FFT
      {2, 4},  // FFT spectrum -> transmission
  };
  return TaskGraph("SHM", std::move(tasks), std::move(edges));
}

TaskGraph random_benchmark(std::uint64_t seed, std::string name) {
  util::Rng rng(seed);
  const int n_tasks = rng.uniform_int(4, 8);
  const int n_edges = rng.uniform_int(0, 2);
  const int n_nvps = rng.uniform_int(2, 6);
  constexpr double kPeriodS = 600.0;
  constexpr double kSlotS = 30.0;

  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(n_tasks));
  for (int i = 0; i < n_tasks; ++i) {
    const double exec = kSlotS * rng.uniform_int(1, 5);
    const double power_mw = rng.uniform(8.0, 40.0);
    const auto nvp = static_cast<std::size_t>(rng.uniform_int(0, n_nvps - 1));
    std::string name = "t";
    name += std::to_string(i);
    tasks.push_back(make_task(static_cast<std::size_t>(i), std::move(name),
                              kPeriodS, exec, power_mw, nvp));
  }

  // Edges always point from a lower id to a higher id, so the id order is a
  // topological order and cycles are impossible.
  std::vector<Edge> edges;
  if (n_tasks >= 2) {
    while (static_cast<int>(edges.size()) < n_edges) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, n_tasks - 2));
      const auto b = static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(a) + 1, n_tasks - 1));
      const Edge e{a, b};
      if (std::find(edges.begin(), edges.end(), e) == edges.end())
        edges.push_back(e);
    }
  }

  // Feasible deadlines: compute each task's finish time under an
  // unlimited-energy list schedule (id order, which respects dependencies),
  // then place the deadline between that finish time and the period end.
  std::vector<double> nvp_free(static_cast<std::size_t>(n_nvps), 0.0);
  std::vector<double> finish(tasks.size(), 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    double earliest = nvp_free[tasks[i].nvp];
    for (const auto& e : edges)
      if (e.to == i) earliest = std::max(earliest, finish[e.from]);
    finish[i] = earliest + tasks[i].exec_s;
    nvp_free[tasks[i].nvp] = finish[i];
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const double slack = kPeriodS - finish[i];
    // Snap deadlines to slot boundaries; keep at least one slot of slack
    // headroom inside the period where possible.
    const double deadline =
        finish[i] + (slack > 0.0 ? rng.uniform(0.5, 1.0) * slack : 0.0);
    tasks[i].deadline_s =
        std::min(kPeriodS, kSlotS * static_cast<double>(static_cast<long long>(
                                        deadline / kSlotS + 0.999)));
    tasks[i].deadline_s = std::max(tasks[i].deadline_s, finish[i]);
  }

  return TaskGraph(std::move(name), std::move(tasks), std::move(edges));
}

TaskGraph random_case(int index) {
  switch (index) {
    case 1: return random_benchmark(101, "rand1");
    case 2: return random_benchmark(202, "rand2");
    case 3: return random_benchmark(303, "rand3");
    default:
      throw std::invalid_argument("random_case: index must be 1, 2 or 3");
  }
}

std::vector<TaskGraph> paper_suite() {
  return {random_case(1), random_case(2), random_case(3),
          wam_benchmark(), ecg_benchmark(), shm_benchmark()};
}

TaskGraph scaled_power(const TaskGraph& graph, double factor) {
  if (factor <= 0.0)
    throw std::invalid_argument("scaled_power: factor must be positive");
  std::vector<Task> tasks = graph.tasks();
  for (auto& t : tasks) t.power_w *= factor;
  return TaskGraph(graph.name() + "_p" + std::to_string(factor),
                   std::move(tasks), graph.edges());
}

TaskGraph stretched_time(const TaskGraph& graph, double factor) {
  if (factor <= 0.0)
    throw std::invalid_argument("stretched_time: factor must be positive");
  std::vector<Task> tasks = graph.tasks();
  for (auto& t : tasks) {
    t.exec_s *= factor;
    t.deadline_s *= factor;
  }
  return TaskGraph(graph.name() + "_t" + std::to_string(factor),
                   std::move(tasks), graph.edges());
}

}  // namespace solsched::task

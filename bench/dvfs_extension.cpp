// DVFS extension study (related work [5, 6, 8]).
//
// The paper's related work matches load to harvest with dynamic
// voltage/frequency scaling instead of task on/off decisions. This bench
// quantifies what frequency scaling buys on our node across the four
// representative days: the `dvfs-match` registry policy vs. the identical
// policy on an on/off node (levels = {1.0}), plus the effect of the power
// profile (dynamic-dominated vs. static-dominated silicon). Each column is
// one NodeConfig::dvfs setting run through nvp::simulate.
#include "bench_common.hpp"
#include "nvp/node_sim.hpp"
#include "sched/registry.hpp"

using namespace solsched;

int main() {
  bench::print_header("DVFS extension",
                      "Frequency scaling vs. on/off load matching");

  const auto grid = bench::paper_grid();
  const auto gen = bench::paper_generator();
  const auto days = gen.four_representative_days(grid);
  const char* day_names[] = {"Day1", "Day2", "Day3", "Day4"};

  nvp::DvfsModel scaled;                       // {0.5, 0.75, 1.0}, 70% dyn.
  nvp::DvfsModel on_off;
  on_off.levels = {1.0};
  nvp::DvfsModel static_heavy = scaled;
  static_heavy.dynamic_fraction = 0.2;

  for (const auto& graph : {task::ecg_benchmark(), task::wam_benchmark()}) {
    std::printf("\n-- %s --\n", graph.name().c_str());
    util::TextTable table;
    table.set_header({"", "on/off", "DVFS (70% dynamic)",
                      "DVFS (20% dynamic)"});
    for (int d = 0; d < 4; ++d) {
      const auto& day = days[static_cast<std::size_t>(d)];
      nvp::NodeConfig node = bench::paper_node();
      node.capacities_f = {40.0};

      std::vector<std::string> row{day_names[d]};
      for (const auto* model : {&on_off, &scaled, &static_heavy}) {
        node.dvfs = *model;
        const auto policy = sched::make_scheduler("dvfs-match", {});
        const auto r = nvp::simulate(graph, day, *policy, node);
        row.push_back(util::fmt_pct(r.overall_dmr()));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s", table.str().c_str());
  }

  std::printf("\nreading: frequency scaling helps most on dim days (it "
              "converts partial solar coverage into steady progress), and "
              "helps more when dynamic power dominates (slowing down then "
              "saves energy, not just power)\n");
  return 0;
}

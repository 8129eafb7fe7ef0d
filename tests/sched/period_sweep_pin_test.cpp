// Pins PeriodOptimizer::pareto_options bit for bit on a fixed family of
// periods: WAM, indep3 and the paper's second random graph; a daytime and a
// night-time solar vector; every capacitor the sizing step picks for the
// graph; and an empty capacitor, a low, a mid and a high start voltage.
// Each case's full-precision option set (miss count, E^c, final usable
// energy and voltage, alpha, te mask) folds into one FNV-1a digest,
// recorded from the sweep that ran the scheduling code in every slot with
// one parallel region per key. A change to the sweep's placement, its
// idle-slot cut or its subset-order reduction fails here by case name and
// prints the options it got.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nvp/node_config.hpp"
#include "sched/period_optimizer.hpp"
#include "sizing/cap_sizing.hpp"
#include "solar/trace_generator.hpp"
#include "task/benchmarks.hpp"
#include "util/thread_pool.hpp"

#include "../test_helpers.hpp"

namespace solsched::sched {
namespace {

struct PinCase {
  std::string name;
  const task::TaskGraph* graph;
  const std::vector<double>* solar_w;
  double capacity_f;
  double v0;
};

std::uint64_t te_mask(const PeriodOption& opt) {
  std::uint64_t te = 0;
  for (std::size_t n = 0; n < opt.te.size(); ++n)
    if (opt.te[n]) te |= std::uint64_t{1} << n;
  return te;
}

std::uint64_t digest_of(const std::vector<PeriodOption>& options) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const PeriodOption& opt : options) {
    mix(opt.misses);
    mix(std::bit_cast<std::uint64_t>(opt.consumed_cap_j));
    mix(std::bit_cast<std::uint64_t>(opt.final_usable_j));
    mix(std::bit_cast<std::uint64_t>(opt.final_voltage_v));
    mix(std::bit_cast<std::uint64_t>(opt.alpha));
    mix(te_mask(opt));
  }
  return h;
}

std::string describe(const std::vector<PeriodOption>& options) {
  std::string out;
  char line[256];
  for (const PeriodOption& opt : options) {
    std::snprintf(line, sizeof line,
                  "  misses %zu E^c %a usable %a V %a alpha %a te 0x%llx\n",
                  opt.misses, opt.consumed_cap_j, opt.final_usable_j,
                  opt.final_voltage_v, opt.alpha,
                  static_cast<unsigned long long>(te_mask(opt)));
    out += line;
  }
  return out;
}

/// The pinned family. Owns the graphs and solar vectors the cases point at.
class PinFamily {
 public:
  PinFamily()
      : graphs_{task::wam_benchmark(), test::indep3(), task::random_case(2)} {
    const solar::TimeGrid grid = solar::default_grid();
    const solar::TraceGenerator gen;
    const solar::SolarTrace day =
        gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
    solar_ = {day.period_powers(0, 64), day.period_powers(0, 8)};
    const char* solar_names[] = {"day", "night"};
    const solar::SolarTrace sizing_trace = gen.generate_days(2, grid);
    const nvp::NodeConfig node;
    const double mid_v = 0.5 * (node.v_low + node.v_high);
    // With an empty capacitor at night no subset can run anything: every
    // subset ties, and only the subset-order reduction picks the te.
    const double voltages[] = {node.v_low, node.v_low + 0.25, mid_v,
                               node.v_high - 0.1};
    const char* v_names[] = {"empty", "low", "mid", "high"};
    for (const task::TaskGraph& graph : graphs_) {
      const auto sized = sizing::size_capacitors(graph, sizing_trace, 4);
      for (std::size_t s = 0; s < solar_.size(); ++s)
        for (std::size_t c = 0; c < sized.capacities_f.size(); ++c)
          for (std::size_t v = 0; v < std::size(voltages); ++v)
            cases_.push_back(PinCase{graph.name() + "/" + solar_names[s] +
                                         "/c" + std::to_string(c) + "/" +
                                         v_names[v],
                                     &graph, &solar_[s],
                                     sized.capacities_f[c], voltages[v]});
    }
  }

  const std::vector<PinCase>& cases() const { return cases_; }

  PeriodOptimizer optimizer(const task::TaskGraph& graph) const {
    const nvp::NodeConfig node;
    return PeriodOptimizer(graph, node.pmu, node.regulators, node.leakage,
                           node.v_low, node.v_high,
                           solar::default_grid().dt_s);
  }

 private:
  std::vector<task::TaskGraph> graphs_;
  std::vector<std::vector<double>> solar_;
  std::vector<PinCase> cases_;
};

struct Pinned {
  const char* name;
  std::size_t n_options;
  std::uint64_t digest;
};

const Pinned kPinned[] = {
  {"WAM/day/c0/empty", 8, 0x2d7a587bc23741ecull},
  {"WAM/day/c0/low", 9, 0x7fe68425ae7c7bd3ull},
  {"WAM/day/c0/mid", 9, 0x3c7c3a486d1dc8a7ull},
  {"WAM/day/c0/high", 9, 0xb95e84590dbe8210ull},
  {"WAM/day/c1/empty", 8, 0xd23427c96346829eull},
  {"WAM/day/c1/low", 9, 0x6d16b1d4f842836cull},
  {"WAM/day/c1/mid", 9, 0xaf39e7c3b0ece7c1ull},
  {"WAM/day/c1/high", 9, 0x7f1f0c19aa17a54full},
  {"WAM/night/c0/empty", 1, 0xe8a31879c4bd3876ull},
  {"WAM/night/c0/low", 5, 0xc69a0a544e212232ull},
  {"WAM/night/c0/mid", 9, 0xead2459b9df00df1ull},
  {"WAM/night/c0/high", 9, 0xe00e6eb5129afad6ull},
  {"WAM/night/c1/empty", 1, 0x2c60304ee2fda86full},
  {"WAM/night/c1/low", 5, 0xee7746fa8e5e6eebull},
  {"WAM/night/c1/mid", 9, 0x7ec21bd7ac9f6339ull},
  {"WAM/night/c1/high", 9, 0x84fd2a971554d90full},
  {"indep3/day/c0/empty", 3, 0x09d5293d82d45eceull},
  {"indep3/day/c0/low", 4, 0xeaa235700ac97665ull},
  {"indep3/day/c0/mid", 4, 0x8e8ce2f9e44c7384ull},
  {"indep3/day/c0/high", 4, 0x586609e6b9040d26ull},
  {"indep3/day/c1/empty", 3, 0x19fdfb5038757bc3ull},
  {"indep3/day/c1/low", 4, 0xfc4ca4cc75e23a4cull},
  {"indep3/day/c1/mid", 4, 0x81cd19c7cd36d873ull},
  {"indep3/day/c1/high", 4, 0xdc969cd5eee2e504ull},
  {"indep3/night/c0/empty", 1, 0xa78e12844fecac82ull},
  {"indep3/night/c0/low", 4, 0x9da2fb99206464aaull},
  {"indep3/night/c0/mid", 4, 0x14bb9810ddea2202ull},
  {"indep3/night/c0/high", 4, 0x41d5976d906d1db8ull},
  {"indep3/night/c1/empty", 1, 0x6f488ec5ee474058ull},
  {"indep3/night/c1/low", 4, 0xf879cb6b3f4a56a1ull},
  {"indep3/night/c1/mid", 4, 0x1a9dafbe96df50e2ull},
  {"indep3/night/c1/high", 4, 0x74ac79b2ab8d9be6ull},
  {"rand2/day/c0/empty", 5, 0x56419c614b3ef204ull},
  {"rand2/day/c0/low", 6, 0x566c39d341228960ull},
  {"rand2/day/c0/mid", 6, 0x5477d51cda60d40eull},
  {"rand2/day/c0/high", 6, 0xbe5c743515d5b771ull},
  {"rand2/day/c1/empty", 5, 0x058ffd453a08fc7dull},
  {"rand2/day/c1/low", 6, 0x7ba15ad8ce39e719ull},
  {"rand2/day/c1/mid", 6, 0x137ab7b20fff5613ull},
  {"rand2/day/c1/high", 6, 0x8762f39ed29a42f8ull},
  {"rand2/night/c0/empty", 1, 0x72350714921346ccull},
  {"rand2/night/c0/low", 4, 0x9e8c4f8451ccb86full},
  {"rand2/night/c0/mid", 8, 0x5f0eeb2143d45021ull},
  {"rand2/night/c0/high", 8, 0xe655f976094ffa2dull},
  {"rand2/night/c1/empty", 1, 0xe44d95cd158b3b90ull},
  {"rand2/night/c1/low", 4, 0xe83eac580775e99cull},
  {"rand2/night/c1/mid", 8, 0xf63d20553d762ac4ull},
  {"rand2/night/c1/high", 8, 0x53749f32a275a559ull},
};

TEST(PeriodSweepPin, ParetoOptionsBitForBit) {
  const PinFamily family;
  std::size_t checked = 0;
  for (const PinCase& c : family.cases()) {
    const auto options = family.optimizer(*c.graph).pareto_options(
        *c.solar_w, c.capacity_f, c.v0);
    for (const Pinned& pin : kPinned) {
      if (c.name != pin.name) continue;
      ++checked;
      EXPECT_EQ(options.size(), pin.n_options) << c.name << "\n"
                                               << describe(options);
      EXPECT_EQ(digest_of(options), pin.digest) << c.name << "\n"
                                                << describe(options);
    }
  }
  EXPECT_EQ(checked, std::size(kPinned));
}

void expect_same_options(const std::vector<PeriodOption>& got,
                         const std::vector<PeriodOption>& want,
                         const std::string& where) {
  EXPECT_EQ(got.size(), want.size()) << where;
  EXPECT_EQ(digest_of(got), digest_of(want)) << where << "\ngot\n"
                                             << describe(got) << "want\n"
                                             << describe(want);
}

TEST(PeriodSweepPin, BatchedSweepEqualsPerKeyAtOneAndFourThreads) {
  // One batch per (graph, solar) holds every capacitor x voltage key of the
  // family, as a DP layer's batch holds every live label's key.
  const PinFamily family;
  const auto& cases = family.cases();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool::set_global_threads(threads);
    for (std::size_t lo = 0; lo < cases.size();) {
      std::size_t hi = lo;
      std::vector<OptionKey> keys;
      while (hi < cases.size() && cases[hi].graph == cases[lo].graph &&
             cases[hi].solar_w == cases[lo].solar_w) {
        keys.push_back({cases[hi].capacity_f, cases[hi].v0});
        ++hi;
      }
      const PeriodOptimizer optimizer = family.optimizer(*cases[lo].graph);
      const auto batched = optimizer.pareto_options(*cases[lo].solar_w, keys);
      ASSERT_EQ(batched.size(), keys.size());
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const PinCase& c = cases[lo + k];
        expect_same_options(
            batched[k],
            optimizer.pareto_options(*c.solar_w, c.capacity_f, c.v0),
            c.name + " batched at " + std::to_string(threads) + " threads");
      }
      lo = hi;
    }
  }
  util::ThreadPool::set_global_threads(
      util::ThreadPool::thread_count_from_env());
}

}  // namespace
}  // namespace solsched::sched

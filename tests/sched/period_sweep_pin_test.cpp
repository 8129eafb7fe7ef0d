// Pins PeriodOptimizer::pareto_options bit for bit on a fixed family of
// periods: WAM, ECG, SHM, indep3 and the paper's three random graphs; a
// daytime and a night-time solar vector; every capacitor the sizing step
// picks for the graph; and an empty capacitor, a low, a mid and a high
// start voltage.
// Each case's full-precision option set (miss count, E^c, final usable
// energy and voltage, alpha, te mask) folds into one FNV-1a digest. The
// WAM, indep3 and rand2 digests were recorded from the sweep that ran the
// scheduling code in every slot with one parallel region per key; the
// others from the per-subset sweep with its idle-slot cut, before subsets
// shared simulated slot prefixes. A change to the sweep's placement, its
// idle-slot cut, its prefix sharing or its subset-order reduction fails
// here by case name and prints the options it got.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nvp/node_config.hpp"
#include "obs/metrics.hpp"
#include "sched/period_optimizer.hpp"
#include "sched/sched_util.hpp"
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
      : graphs_{task::wam_benchmark(), test::indep3(), task::random_case(2),
                task::ecg_benchmark(), task::shm_benchmark(),
                task::random_case(1), task::random_case(3)} {
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
  {"ECG/day/c0/empty", 7, 0xdc06df9e702177b3ull},
  {"ECG/day/c0/low", 7, 0x8fa6001e60f36374ull},
  {"ECG/day/c0/mid", 7, 0xa4df01503c4bad33ull},
  {"ECG/day/c0/high", 7, 0xb1032f09e26fb7c2ull},
  {"ECG/day/c1/empty", 7, 0x23a150f1a8eb5163ull},
  {"ECG/day/c1/low", 7, 0x373c769e696c57e7ull},
  {"ECG/day/c1/mid", 7, 0x893f7e7dc49ac367ull},
  {"ECG/day/c1/high", 7, 0x355a4df704ac7770ull},
  {"ECG/night/c0/empty", 1, 0x0ff568fa4a6356eeull},
  {"ECG/night/c0/low", 5, 0x1ab34f80a9401226ull},
  {"ECG/night/c0/mid", 7, 0xb868fb19a24f92a0ull},
  {"ECG/night/c0/high", 7, 0x82eee90e5a793e33ull},
  {"ECG/night/c1/empty", 1, 0x4caccf3e93f2a389ull},
  {"ECG/night/c1/low", 5, 0x8ca996e2ed19d06cull},
  {"ECG/night/c1/mid", 7, 0x81abc970d7bfcd39ull},
  {"ECG/night/c1/high", 7, 0x4558135a1880ca61ull},
  {"SHM/day/c0/empty", 5, 0x84a0297bc4e43097ull},
  {"SHM/day/c0/low", 6, 0xe18569a7e948acd1ull},
  {"SHM/day/c0/mid", 6, 0x7c30e41b47d3215aull},
  {"SHM/day/c0/high", 6, 0x4237712a56922c2aull},
  {"SHM/day/c1/empty", 5, 0x7f25219cd51aa33dull},
  {"SHM/day/c1/low", 6, 0xdb5da245ff95d084ull},
  {"SHM/day/c1/mid", 6, 0x116354c45864bb05ull},
  {"SHM/day/c1/high", 6, 0x24a0d229728c88dfull},
  {"SHM/night/c0/empty", 1, 0x1e5deae6280ded69ull},
  {"SHM/night/c0/low", 4, 0xfeb46e2877d222baull},
  {"SHM/night/c0/mid", 6, 0xc49cf1645c292ec6ull},
  {"SHM/night/c0/high", 6, 0x65a64f4b494920e5ull},
  {"SHM/night/c1/empty", 1, 0x32aa56357762479full},
  {"SHM/night/c1/low", 4, 0xc4f0adaf1c30e14full},
  {"SHM/night/c1/mid", 6, 0x8c8ec516f1ee9e4cull},
  {"SHM/night/c1/high", 6, 0xb58b363aaa2e305dull},
  {"rand1/day/c0/empty", 4, 0x2ab968a90e43cb12ull},
  {"rand1/day/c0/low", 5, 0x76da8a1b38f1197aull},
  {"rand1/day/c0/mid", 5, 0xbd221061ffc11ed7ull},
  {"rand1/day/c0/high", 5, 0x6eefb2a4ceb7a55aull},
  {"rand1/day/c1/empty", 4, 0x9696c7261379ad90ull},
  {"rand1/day/c1/low", 5, 0x385bc1c14b7e43ebull},
  {"rand1/day/c1/mid", 5, 0x202a1c6d7e9f0550ull},
  {"rand1/day/c1/high", 5, 0xa213a85197d2df8eull},
  {"rand1/night/c0/empty", 1, 0x0c35437bbaa9f5c0ull},
  {"rand1/night/c0/low", 4, 0xf2443f19346666f2ull},
  {"rand1/night/c0/mid", 5, 0x39179afc1a2c7f8dull},
  {"rand1/night/c0/high", 5, 0x3416691da54905d0ull},
  {"rand1/night/c1/empty", 1, 0x3a5fa44a5782b381ull},
  {"rand1/night/c1/low", 4, 0x4114a5d71d191174ull},
  {"rand1/night/c1/mid", 5, 0x03d69595e1f1313bull},
  {"rand1/night/c1/high", 5, 0x3e6cc27c5fdc027aull},
  {"rand3/day/c0/empty", 6, 0x4ef5cd197226fd8bull},
  {"rand3/day/c0/low", 7, 0xb12d2340db5df36bull},
  {"rand3/day/c0/mid", 7, 0x89f5f52811db4295ull},
  {"rand3/day/c0/high", 7, 0x3ce35d133cf237d8ull},
  {"rand3/day/c1/empty", 6, 0x59621587da973ed7ull},
  {"rand3/day/c1/low", 7, 0xf238a2b7fb853ca7ull},
  {"rand3/day/c1/mid", 7, 0x3e98b098b385d887ull},
  {"rand3/day/c1/high", 7, 0x48d4877babfcaa1full},
  {"rand3/night/c0/empty", 1, 0x18715e33fd4468f2ull},
  {"rand3/night/c0/low", 4, 0xb73177ad268ca6fbull},
  {"rand3/night/c0/mid", 8, 0x341bbd8a015f3701ull},
  {"rand3/night/c0/high", 8, 0xe5faf14c0f9d27a9ull},
  {"rand3/night/c1/empty", 1, 0xc7939b81e33cce48ull},
  {"rand3/night/c1/low", 4, 0xd913128054367fa3ull},
  {"rand3/night/c1/mid", 8, 0x3175fe7db31aa38aull},
  {"rand3/night/c1/high", 8, 0x36eaca729a82caaaull},
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

TEST(PeriodSweepPin, SlotStepsPerGraph) {
  // sched.pareto.slot_steps (scheduling slots simulated) of one batched
  // sweep per (graph, solar) over the family's keys, summed per graph: the
  // work of the shared-prefix walk. The per-subset sweep before it read
  // WAM 5156, ECG 1478, SHM 2100, rand2 16004 and rand3 21800. indep3 and
  // rand1 have only root tasks, so no subsets share a prefix there.
  const std::pair<const char*, std::uint64_t> kSteps[] = {
      {"WAM", 1612},  {"indep3", 478},  {"rand2", 12822}, {"ECG", 680},
      {"SHM", 1110},  {"rand1", 1752},  {"rand3", 14880}};
  const PinFamily family;
  const auto& cases = family.cases();
  std::vector<std::pair<std::string, std::uint64_t>> steps;
  obs::set_enabled(true);
  for (std::size_t lo = 0; lo < cases.size();) {
    std::size_t hi = lo;
    std::vector<OptionKey> keys;
    while (hi < cases.size() && cases[hi].graph == cases[lo].graph &&
           cases[hi].solar_w == cases[lo].solar_w) {
      keys.push_back({cases[hi].capacity_f, cases[hi].v0});
      ++hi;
    }
    obs::MetricsRegistry::global().reset();
    (void)family.optimizer(*cases[lo].graph)
        .pareto_options(*cases[lo].solar_w, keys);
    if (steps.empty() || steps.back().first != cases[lo].graph->name())
      steps.emplace_back(cases[lo].graph->name(), 0);
    steps.back().second +=
        obs::MetricsRegistry::global().snapshot().counter_or(
            "sched.pareto.slot_steps");
    lo = hi;
  }
  obs::set_enabled(false);
  ASSERT_EQ(steps.size(), std::size(kSteps));
  for (std::size_t g = 0; g < steps.size(); ++g) {
    EXPECT_EQ(steps[g].first, kSteps[g].first);
    EXPECT_EQ(steps[g].second, kSteps[g].second)
        << steps[g].first << ": sched.pareto.slot_steps";
  }
}

/// The sweep's contract, written without it: evaluate() every closed
/// subset, then keep per miss count the smallest E^c (within 1e-12), on a
/// tie the higher final usable energy, then the earliest subset.
std::vector<PeriodOption> per_subset_reference(
    const PeriodOptimizer& optimizer, const std::vector<double>& solar_w,
    const OptionKey& key) {
  std::vector<PeriodOption> best;
  for (const std::vector<bool>& te : closed_subsets(optimizer.graph())) {
    const PeriodEval eval =
        optimizer.evaluate(te, solar_w, key.capacity_f, key.v0);
    auto it = std::find_if(best.begin(), best.end(), [&](const auto& o) {
      return o.misses >= eval.misses;
    });
    const PeriodOption option{eval.misses,         eval.consumed_cap_j,
                              eval.final_usable_j, eval.final_voltage_v,
                              eval.alpha,          te};
    if (it == best.end() || it->misses != eval.misses) {
      best.insert(it, option);
    } else if (eval.consumed_cap_j < it->consumed_cap_j - 1e-12 ||
               (std::fabs(eval.consumed_cap_j - it->consumed_cap_j) <= 1e-12 &&
                eval.final_usable_j > it->final_usable_j)) {
      *it = option;
    }
  }
  return best;
}

TEST(PeriodSweepPin, SeededGraphsEqualPerSubsetEvaluate) {
  // Seeded random graphs (4-8 tasks, 0-2 edges, 2-6 NVPs) x day/night solar
  // x two capacitors x four start voltages: one batch per (graph, solar),
  // at 1 and at 4 threads, against the per-subset reference above.
  const solar::TimeGrid grid = solar::default_grid();
  const solar::SolarTrace day = solar::TraceGenerator().generate_day(
      solar::DayKind::kPartlyCloudy, grid);
  const std::vector<double> solar[] = {day.period_powers(0, 64),
                                       day.period_powers(0, 8)};
  const char* solar_names[] = {"day", "night"};
  const nvp::NodeConfig node;
  const double voltages[] = {node.v_low, node.v_low + 0.25,
                             0.5 * (node.v_low + node.v_high),
                             node.v_high - 0.1};
  std::vector<OptionKey> keys;
  for (double capacity_f : {1.0, 10.0})
    for (double v0 : voltages) keys.push_back({capacity_f, v0});

  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const task::TaskGraph graph = task::random_benchmark(seed);
    const PeriodOptimizer optimizer(graph, node.pmu, node.regulators,
                                    node.leakage, node.v_low, node.v_high,
                                    grid.dt_s);
    for (std::size_t s = 0; s < std::size(solar); ++s) {
      std::vector<std::vector<PeriodOption>> want;
      for (const OptionKey& key : keys)
        want.push_back(per_subset_reference(optimizer, solar[s], key));
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        util::ThreadPool::set_global_threads(threads);
        const auto got = optimizer.pareto_options(solar[s], keys);
        ASSERT_EQ(got.size(), keys.size());
        for (std::size_t k = 0; k < keys.size(); ++k) {
          char where[160];
          std::snprintf(where, sizeof where,
                        "seed %llu (%zu tasks) %s C=%g F v0=%g at %zu threads",
                        static_cast<unsigned long long>(seed), graph.size(),
                        solar_names[s], keys[k].capacity_f, keys[k].v0,
                        threads);
          expect_same_options(got[k], want[k], where);
        }
      }
    }
  }
  util::ThreadPool::set_global_threads(
      util::ThreadPool::thread_count_from_env());
}

}  // namespace
}  // namespace solsched::sched

#include "storage/cap_bank.hpp"

#include <gtest/gtest.h>

namespace solsched::storage {
namespace {

CapacitorBank make_bank() {
  return CapacitorBank({1.0, 10.0, 50.0}, RegulatorModel::analytic_default(),
                       LeakageModel{});
}

TEST(CapBank, ConstructionAndDefaults) {
  const CapacitorBank bank = make_bank();
  EXPECT_EQ(bank.size(), 3u);
  EXPECT_EQ(bank.selected_index(), 0u);
  EXPECT_EQ(bank.capacities(), (std::vector<double>{1.0, 10.0, 50.0}));
}

TEST(CapBank, EmptyBankThrows) {
  EXPECT_THROW(
      CapacitorBank({}, RegulatorModel::analytic_default(), LeakageModel{}),
      std::invalid_argument);
}

TEST(CapBank, SelectValidatesIndex) {
  CapacitorBank bank = make_bank();
  bank.select(2);
  EXPECT_EQ(bank.selected_index(), 2u);
  EXPECT_DOUBLE_EQ(bank.selected().capacity_f(), 50.0);
  EXPECT_THROW(bank.select(3), std::out_of_range);
}

TEST(CapBank, VoltagesReportAllCaps) {
  CapacitorBank bank = make_bank();
  bank.at(1).set_voltage(3.0);
  const auto volts = bank.voltages();
  ASSERT_EQ(volts.size(), 3u);
  EXPECT_DOUBLE_EQ(volts[0], 0.5);
  EXPECT_DOUBLE_EQ(volts[1], 3.0);
}

TEST(CapBank, TotalEnergySums) {
  CapacitorBank bank = make_bank();
  bank.at(0).set_usable_energy_j(2.0);
  bank.at(2).set_usable_energy_j(5.0);
  double expected = 0.0;
  for (std::size_t i = 0; i < bank.size(); ++i)
    expected += bank.at(i).energy_j();
  EXPECT_NEAR(bank.total_energy_j(), expected, 1e-12);
  EXPECT_GT(bank.total_energy_j(), 7.0);  // Includes below-V_L floor energy.
}

TEST(CapBank, LeakageHitsAllCapsIncludingUnselected) {
  CapacitorBank bank = make_bank();
  bank.at(0).set_voltage(4.0);
  bank.at(1).set_voltage(4.0);
  bank.at(2).set_voltage(4.0);
  bank.select(0);
  const double before1 = bank.at(1).energy_j();
  const double before2 = bank.at(2).energy_j();
  const double leaked = bank.apply_leakage_all(600.0);
  EXPECT_GT(leaked, 0.0);
  EXPECT_LT(bank.at(1).energy_j(), before1);
  EXPECT_LT(bank.at(2).energy_j(), before2);
}

TEST(CapBank, SwitchingDoesNotMoveEnergy) {
  CapacitorBank bank = make_bank();
  bank.selected().set_usable_energy_j(3.0);
  bank.select(1);
  // The old capacitor keeps its charge; the new one is empty.
  EXPECT_NEAR(bank.at(0).usable_energy_j(), 3.0, 1e-9);
  EXPECT_NEAR(bank.selected().usable_energy_j(), 0.0, 1e-12);
}

}  // namespace
}  // namespace solsched::storage

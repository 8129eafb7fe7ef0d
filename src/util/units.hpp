// Physical unit conventions used throughout solsched.
//
// All quantities are stored as plain `double` in SI units:
//   time    -> seconds   (s)
//   power   -> watts     (W)
//   energy  -> joules    (J)
//   voltage -> volts     (V)
//   capacity-> farads    (F)
//   area    -> square meters (m^2)
//
// The paper quotes task powers in mW and solar power in mW; helpers below
// convert at API boundaries so that internal arithmetic never mixes scales.
#pragma once

namespace solsched::util {

/// Milliwatts to watts.
constexpr double mw_to_w(double mw) noexcept { return mw * 1e-3; }
/// Watts to milliwatts.
constexpr double w_to_mw(double w) noexcept { return w * 1e3; }

/// Square centimeters to square meters.
constexpr double cm2_to_m2(double cm2) noexcept { return cm2 * 1e-4; }

/// Seconds in one day.
inline constexpr double kSecondsPerDay = 86400.0;

/// Peak terrestrial solar irradiance used by the clear-sky model (W/m^2).
inline constexpr double kPeakIrradiance = 1000.0;

}  // namespace solsched::util

// solsched-inspect: offline inspection of simulation runs. All logic lives
// in obs/analysis/inspect.cpp so the ctest suite drives the same code.
#include "obs/analysis/inspect.hpp"

int main(int argc, char** argv) {
  return solsched::obs::analysis::run_inspect(argc, argv);
}

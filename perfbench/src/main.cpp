// colex_perfbench: the election benchmark. Usually run through
// perfbench/run.py, which builds it and writes the results file.
#include "workloads.hpp"

int main(int argc, char** argv) {
  return colex::perfbench::bench_main(argc, argv);
}

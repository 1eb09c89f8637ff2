// perfbench: one run of one benchmark workload.
//
//   perfbench --workload signoff|eco_loop|service_mix --seed N --trace 0|1
//             [--scale X] [--spans PATH]
//
// Progress goes to stderr. The last line on stdout is the run's result:
// {"correct", "attempted", "failed", "metrics", "phase_s", "errors"} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// perfbench/run.py builds this program and turns that line into the
// benchmark's result line.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --trace 0|1 "
               "[--scale X] [--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value) != 0;
      } else if (arg == "--scale") {
        cfg.scale = std::stod(value);
      } else if (arg == "--spans") {
        cfg.spans_path = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == cfg.workload;
  }
  if (!known) return usage("unknown workload '" + cfg.workload + "'");
  if (!(cfg.scale > 0.0)) return usage("--scale must be positive");

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  std::cout << perfbench::result_line(
                   out, cfg.trace ? perfbench::per_layer_specs()
                                  : perfbench::end_to_end_specs())
            << std::endl;
  return 0;
}

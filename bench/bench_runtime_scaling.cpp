// Reproduces the §5 complexity claims:
//   * the one-step algorithm "does not increase the complexity. The BFS is
//     still performed in linear time. Compared to the normal BFS the
//     waveform calculation is performed twice for each timing arc";
//   * the iterative algorithm costs >= 3 full STA passes ("With no
//     iterative improvement, a full STA is performed twice, with
//     improvement it is performed at least three times");
//   * the Esperance restriction recalculates only long paths and trades
//     runtime for bound quality (ablation).
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "core/crosstalk_sta.hpp"
#include "table_common.hpp"

using namespace xtalk;

int main(int argc, char** argv) {
  bench::JsonReport json;
  json.root().set("benchmark", "runtime_scaling");
  const std::string json_path = bench::json_path_from_args(argc, argv);

  // Circuit scale, and worker threads for every run below (0 = one per
  // hardware thread). A malformed value exits 2, like every other bench.
  bench::BenchSize size;
  try {
    size = bench::parse_bench_size(std::getenv("XTALK_BENCH_SCALE"),
                                   std::getenv("XTALK_THREADS"), 1.0);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double scale = size.scale;
  const int num_threads = size.num_threads;
  const auto run_mode = [&](const core::Design& design,
                            sta::AnalysisMode mode, int threads) {
    sta::StaOptions opt;
    opt.mode = mode;
    opt.num_threads = threads;
    return design.run(opt);
  };

  std::cout << "=== §5: runtime scaling and algorithm cost ===\n\n";
  std::cout << std::left << std::setw(8) << "cells" << std::right
            << std::setw(12) << "mode" << std::setw(11) << "time[s]"
            << std::setw(10) << "passes" << std::setw(12) << "calcs"
            << std::setw(14) << "us/cell" << std::setw(12) << "delay[ns]"
            << "\n";

  for (const std::size_t base_cells : {1000u, 2000u, 4000u, 8000u, 16000u}) {
    const auto cells = static_cast<std::size_t>(
        std::max(64.0, static_cast<double>(base_cells) * scale));
    const core::Design design = core::Design::generate(
        netlist::scaled_spec("scale", 1000 + cells, cells, 20));
    for (const sta::AnalysisMode mode :
         {sta::AnalysisMode::kBestCase, sta::AnalysisMode::kOneStep,
          sta::AnalysisMode::kIterative}) {
      const sta::StaResult r = run_mode(design, mode, num_threads);
      std::cout << std::left << std::setw(8) << cells << std::right
                << std::setw(12) << sta::mode_name(mode) << std::fixed
                << std::setprecision(3) << std::setw(11) << r.runtime_seconds
                << std::setw(10) << r.passes << std::setw(12)
                << r.waveform_calculations << std::setw(14)
                << std::setprecision(2)
                << r.runtime_seconds * 1e6 / static_cast<double>(cells)
                << std::setw(12) << std::setprecision(3)
                << r.longest_path_delay * 1e9 << "\n";
      bench::JsonObject& row = json.add_row("scaling");
      row.set("cells", cells).set("mode", sta::mode_name(mode));
      bench::fill_result_row(row, r);
    }
  }

  // Level-parallel thread scaling on the largest circuit. Delays must be
  // bit-identical for every thread count (snapshot-based coupling
  // classification); speedup tracks the hardware's core count.
  std::cout << "\nthread scaling (one-step, largest circuit, "
            << std::thread::hardware_concurrency() << " hardware threads):\n";
  {
    const auto cells_ts = static_cast<std::size_t>(
        std::max(64.0, 16000.0 * scale));
    const core::Design design = core::Design::generate(
        netlist::scaled_spec("threads", 1000 + cells_ts, cells_ts, 20));
    double t1 = 0.0;
    double d1 = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      const sta::StaResult r =
          run_mode(design, sta::AnalysisMode::kOneStep, threads);
      if (threads == 1) {
        t1 = r.runtime_seconds;
        d1 = r.longest_path_delay;
      }
      std::cout << "  threads " << threads << ": " << std::fixed
                << std::setprecision(3) << std::setw(8) << r.runtime_seconds
                << " s, speedup " << std::setprecision(2)
                << t1 / std::max(r.runtime_seconds, 1e-9) << "x, delay "
                << std::setprecision(3) << r.longest_path_delay * 1e9
                << " ns, identical "
                << (r.longest_path_delay == d1 ? "yes" : "NO") << "\n";
      json.add_row("thread_scaling")
          .set("threads", threads)
          .set("runtime_s", r.runtime_seconds)
          .set("speedup", t1 / std::max(r.runtime_seconds, 1e-9))
          .set("delay_ns", r.longest_path_delay * 1e9)
          .set("identical", r.longest_path_delay == d1);
    }
  }

  std::cout << "\nablations (iterative, 8000-cell circuit):\n";
  const auto cells =
      static_cast<std::size_t>(std::max(64.0, 8000.0 * scale));
  const core::Design design = core::Design::generate(
      netlist::scaled_spec("esp", 4242, cells, 20));
  struct Ablation {
    const char* label;
    bool esperance;
    bool timing_windows;
    bool aiding_assist;
  };
  for (const Ablation& a :
       {Ablation{"plain iterative       ", false, false, true},
        Ablation{"esperance             ", true, false, true},
        Ablation{"windows (sound early) ", false, true, true},
        Ablation{"windows (no assist)   ", false, true, false},
        Ablation{"esperance + windows   ", true, true, false}}) {
    sta::StaOptions opt;
    opt.mode = sta::AnalysisMode::kIterative;
    opt.esperance = a.esperance;
    opt.timing_windows = a.timing_windows;
    opt.early.aiding_coupling_assist = a.aiding_assist;
    opt.num_threads = num_threads;
    const sta::StaResult r = design.run(opt);
    std::cout << "  " << a.label << " time " << std::setprecision(3)
              << r.runtime_seconds << " s, passes " << r.passes << ", calcs "
              << r.waveform_calculations << ", bound "
              << r.longest_path_delay * 1e9 << " ns\n";
    bench::JsonObject& row = json.add_row("ablations");
    row.set("label", a.label)
        .set("esperance", a.esperance)
        .set("timing_windows", a.timing_windows);
    bench::fill_result_row(row, r);
  }

  std::cout << "\nexpected shape: us/cell roughly constant per mode (linear "
               "complexity); one-step about 2x best-case calcs; iterative "
               ">= 2 passes; esperance cuts calcs at equal-or-looser "
               "bound.\n";
  json.write_file(json_path);
  return 0;
}

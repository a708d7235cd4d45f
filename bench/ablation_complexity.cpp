// Ablation: the complexity analysis of Sec. 5.3.
//
// Sweeps the step size Delta for both on/off chains (single-well c = 1 and
// two-well c = 0.625) and reports expanded states, generator non-zeros,
// uniformisation rate/iterations and wall-clock solve time for a fixed
// horizon.  Expected scaling: states ~ Delta^-1 (single well) / Delta^-2
// (two wells); iterations grow once the consumption rate I/Delta exceeds
// the workload rates (the paper's "q gets linear in 1/Delta" regime).
// --engine swaps the transient backend to compare iteration economics.
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/workload/onoff_model.hpp"

namespace {

using namespace kibamrm;

void sweep(const core::KibamRmModel& model, const std::vector<double>& deltas,
           const char* title, const std::string& engine, std::size_t threads,
           const common::CliArgs& args, const std::string& csv_name,
           bench::BenchReport& report) {
  std::cout << "--- " << title << " ---\n";
  io::Table table({"Delta", "states", "nonzeros", "q (1/s)", "iterations",
                   "solve time (s)"});
  for (double delta : deltas) {
    core::ApproximationOptions options{
        .delta = delta, .engine = engine, .threads = threads};
    bench::apply_engine_tuning(args, options);
    const auto run = bench::run_approximation(model, options, {17000.0});
    if (run.skipped) continue;
    table.add_row({io::format_double(delta, 0),
                   std::to_string(run.stats.expanded_states),
                   std::to_string(run.stats.generator_nonzeros),
                   io::format_double(run.stats.uniformization_rate, 3),
                   std::to_string(run.stats.uniformization_iterations),
                   io::format_double(run.wall_seconds, 3)});
    bench::add_engine_record(report, run, delta)
        .field("threads", bench::resolved_thread_count(engine, threads))
        .field("sweep", title);
  }
  bench::emit(table, args, csv_name);
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  args.declare("csv").declare("full").declare("engine").declare("json")
      .declare("threads").declare("no-detect").declare("kernels")
      .declare("reorder");
  args.validate();
  bench::apply_kernel_choice(args);
  const std::string engine =
      args.get_choice("engine", "uniformization", engine::backend_names());
  const auto threads =
      static_cast<std::size_t>(args.get_nonnegative_int("threads", 0));

  std::cout << "=== Ablation: Sec. 5.3 complexity scaling (t = 17000 s; "
               "engine = " << engine << ") ===\n\n";

  const auto onoff = workload::make_onoff_model(
      {.frequency = 1.0, .erlang_k = 1, .on_current = 0.96});

  bench::BenchReport report("ablation_complexity");
  sweep(core::KibamRmModel(onoff, {.capacity = 7200.0,
                                   .available_fraction = 1.0,
                                   .flow_constant = 0.0}),
        {200.0, 100.0, 50.0, 25.0, 10.0, 5.0, 2.0},
        "single well (c = 1): states ~ 1/Delta", engine, threads, args,
        "complexity_single.csv", report);

  const std::vector<double> two_well_deltas =
      args.has("full") ? std::vector<double>{300.0, 100.0, 50.0, 25.0, 10.0}
                       : std::vector<double>{300.0, 100.0, 50.0, 25.0};
  sweep(core::KibamRmModel(onoff, {.capacity = 7200.0,
                                   .available_fraction = 0.625,
                                   .flow_constant = 4.5e-5}),
        two_well_deltas, "two wells (c = 0.625): states ~ 1/Delta^2", engine,
        threads, args, "complexity_two_well.csv", report);
  report.write(args);

  std::cout << "Paper anchors: Delta = 5 single-well chain has 2882 states "
               "and needs >36000 iterations for t = 17000 s.\n";
  return 0;
}

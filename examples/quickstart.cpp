// Quickstart: compute the lifetime distribution of a battery-powered
// wireless device in ~30 lines of API use.
//
//   1. Describe the workload as a CTMC with per-state current draw.
//   2. Pick battery parameters (capacity, available fraction c, flow k).
//   3. Combine them into a KibamRmModel and solve with the Markovian
//      approximation; cross-check with Monte-Carlo simulation.
//
// Build & run:
//   ./examples/quickstart [--engine uniformization|dense|parallel|krylov]
//                         [--threads N]
//                         [--kernels auto|scalar|avx2|avx512]
//                         [--reorder level|none]
//
// The engine flag swaps the transient solver behind the approximation; all
// engines agree within solver tolerance (see tests/test_engine_backends).
// "parallel" shards the uniformisation kernel over N threads (0/absent
// auto-detects the hardware) and reproduces "uniformization" bitwise per
// thread count.
#include <iostream>

#include "kibamrm/common/cli.hpp"
#include "kibamrm/common/units.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/io/table.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/workload/simple_model.hpp"

int main(int argc, char** argv) {
  using namespace kibamrm;

  common::CliArgs args(argc, argv);
  args.declare("engine").declare("delta").declare("threads")
      .declare("no-detect").declare("kernels").declare("reorder");
  args.validate();
  // --kernels pins the process-global vector tier before anything runs
  // (the tiers are bitwise identical; scalar is the sanitizer-CI escape
  // hatch).
  linalg::kernels::apply_dispatch(args.get_choice(
      "kernels", "auto", {"auto", "scalar", "avx2", "avx512"}));
  const std::string reorder =
      args.get_choice("reorder", "level", {"none", "level"});
  const std::string engine =
      args.get_choice("engine", "uniformization", engine::backend_names());
  const auto threads =
      static_cast<std::size_t>(args.get_nonnegative_int("threads", 0));
  // Delta = 5 gives an 18k-state chain; the dense oracle needs a coarser
  // default grid to stay under its state limit.
  const double delta = args.get_double("delta", engine == "dense" ? 50.0
                                                                  : 5.0);

  // A phone-like device: idle (8 mA), send (200 mA), sleep (0 mA); rates
  // per hour.  make_simple_model uses the paper's defaults (Fig. 4).
  const workload::WorkloadModel device = workload::make_simple_model();

  // An 800 mAh battery; 62.5% immediately available, the rest bound and
  // released at rate k (converted from the usual per-second data sheets).
  const battery::KibamParameters battery{
      .capacity = 800.0,  // mAh
      .available_fraction = 0.625,
      .flow_constant = units::per_second_to_per_hour(4.5e-5)};

  const core::KibamRmModel model(device, battery);

  // Solve Pr{battery empty at t} on a grid of hours.
  const auto times = core::uniform_grid(1.0, 30.0, 30);
  core::MarkovianApproximation solver(
      model, {.delta = delta,
              .engine = engine,
              .threads = threads,
              // Engine tuning knobs, mirrored by the bench drivers:
              // steady-state early termination is on by default and
              // --no-detect switches it off for A/B comparisons.
              .steady_state_detection = !args.has("no-detect"),
              // --reorder numbers the expanded chain's states (the
              // default, level, packs the runs the SIMD gather tiers
              // want; none keeps the natural order).  The curve reads
              // the empty layer through the permutation, so it is the
              // same either way.
              .reorder = reorder});
  const core::LifetimeCurve curve = solver.solve(times);

  // Monte-Carlo cross-check (1000 runs).
  core::MonteCarloSimulator sim(model, {.replications = 1000});
  const core::LifetimeCurve mc = sim.empty_probability_curve(times);

  io::Table table({"t (h)", "Pr[empty] approx", "Pr[empty] simulation"});
  for (std::size_t i = 0; i < times.size(); i += 3) {
    table.add_numeric_row(
        {times[i], curve.probabilities()[i], mc.probabilities()[i]}, 4);
  }
  table.print(std::cout);

  std::cout << "\nMedian lifetime:  " << curve.median() << " h (approx), "
            << mc.median() << " h (simulation)\n"
            << "5% of batteries die before " << curve.quantile(0.05)
            << " h; 95% are dead by " << curve.quantile(0.95) << " h.\n"
            << "Expanded chain: " << solver.last_stats().expanded_states
            << " states, engine " << solver.last_stats().engine << ", "
            << solver.last_stats().uniformization_iterations
            << " iterations.\n";
  return 0;
}

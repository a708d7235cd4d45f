// Property sweeps: physical invariants of the KiBaM and structural
// invariants of the Markovian approximation, asserted over randomized
// battery/load configurations drawn from the shared property generators
// (tests/property/) instead of the original hand-picked parameter grid.
// Each invariant keeps its historical name; failures shrink to a minimal
// scenario and print a KIBAMRM_PROP_SEED repro line.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "kibamrm/battery/kibam.hpp"
#include "kibamrm/battery/lifetime.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/lifetime_distribution.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/vector_ops.hpp"
#include "kibamrm/workload/onoff_model.hpp"
#include "property/generators.hpp"
#include "property/propgen.hpp"

namespace kibamrm::prop {
namespace {

// ------------------------------------------------ KiBaM physical invariants
//
// A ScenarioCase doubles as a KiBaM configuration: capacity and available
// fraction come from the level counts and grid width, the flow constant
// and load current are drawn directly.

struct KibamView {
  double capacity;
  double c;
  double k;
  double current;
};

KibamView kibam_view(const ScenarioCase& value) {
  const double y1 = static_cast<double>(value.levels_available) * value.delta;
  const double y2 = static_cast<double>(value.levels_bound) * value.delta;
  return {y1 + y2, y1 / (y1 + y2), value.flow_constant, value.on_current};
}

TEST(KibamInvariantTest, LifetimeBracketedByAvailableAndTotalCharge) {
  check<ScenarioCase>(
      "LifetimeBracketed", scenario_gen(), [](const ScenarioCase& value) {
        const KibamView view = kibam_view(value);
        battery::KibamBattery model({view.capacity, view.c, view.k});
        const auto life = battery::compute_lifetime(
            model, battery::LoadProfile::constant(view.current),
            {.max_time = 1e12});
        if (!life.has_value())
          return Verdict::fail("constant drain never emptied the battery");
        // Never better than draining the full capacity, never worse than
        // draining only the initially available charge.
        const double lower =
            view.c * view.capacity / view.current * (1.0 - 1e-9);
        const double upper = view.capacity / view.current * (1.0 + 1e-9);
        if (*life < lower || *life > upper) {
          std::ostringstream why;
          why << "lifetime " << *life << " outside [" << lower << ", "
              << upper << "]";
          return Verdict::fail(why.str());
        }
        return Verdict::pass();
      });
}

TEST(KibamInvariantTest, ChargeConservedAndWellsNonNegative) {
  check<ScenarioCase>(
      "ChargeConserved", scenario_gen(), [](const ScenarioCase& value) {
        const KibamView view = kibam_view(value);
        battery::KibamBattery model({view.capacity, view.c, view.k});
        double drained = 0.0;
        const double dt = 0.05 * view.capacity / view.current / 20.0;
        for (int step = 0; step < 20 && !model.empty(); ++step) {
          const auto crossing = model.advance(view.current, dt);
          drained += view.current * (crossing ? *crossing : dt);
          if (model.available_charge() < 0.0)
            return Verdict::fail("available charge went negative");
          if (model.bound_charge() < 0.0)
            return Verdict::fail("bound charge went negative");
          if (!crossing &&
              std::abs(model.total_charge() - (view.capacity - drained)) >
                  1e-9 * view.capacity) {
            std::ostringstream why;
            why << "charge leak: total " << model.total_charge()
                << " vs drained ledger " << view.capacity - drained;
            return Verdict::fail(why.str());
          }
        }
        return Verdict::pass();
      });
}

TEST(KibamInvariantTest, PulsedLifetimeAtLeastTwiceContinuousOnTime) {
  check<ScenarioCase>(
      "PulsedLifetime", scenario_gen(), [](const ScenarioCase& value) {
        const KibamView view = kibam_view(value);
        battery::KibamBattery continuous({view.capacity, view.c, view.k});
        const auto life_cont = battery::compute_lifetime(
            continuous, battery::LoadProfile::constant(view.current),
            {.max_time = 1e12});
        if (!life_cont.has_value())
          return Verdict::fail("continuous drain never emptied the battery");
        battery::KibamBattery pulsed({view.capacity, view.c, view.k});
        // Period two orders below the continuous lifetime; 50% duty means
        // wall-clock at least ~2x, and recovery only adds on top.
        const double freq = 100.0 / *life_cont;
        const auto life_pulsed = battery::compute_lifetime(
            pulsed, battery::LoadProfile::square_wave(freq, view.current),
            {.max_time = 1e13});
        if (!life_pulsed.has_value())
          return Verdict::fail("pulsed drain never emptied the battery");
        if (*life_pulsed < 2.0 * *life_cont * (1.0 - 2.0 / 100.0)) {
          std::ostringstream why;
          why << "pulsed lifetime " << *life_pulsed << " below 2x "
              << "continuous " << *life_cont;
          return Verdict::fail(why.str());
        }
        return Verdict::pass();
      });
}

TEST(KibamInvariantTest, RestNeverDecreasesAvailableCharge) {
  check<ScenarioCase>(
      "RestRecovers", scenario_gen(), [](const ScenarioCase& value) {
        const KibamView view = kibam_view(value);
        battery::KibamBattery model({view.capacity, view.c, view.k});
        model.advance(view.current,
                      0.25 * view.c * view.capacity / view.current);
        const double before = model.available_charge();
        model.advance(0.0, 1.0 / (view.k > 0.0 ? view.k : 1.0));
        if (model.available_charge() < before - 1e-9 * view.capacity) {
          std::ostringstream why;
          why << "rest decreased available charge: " << before << " -> "
              << model.available_charge();
          return Verdict::fail(why.str());
        }
        return Verdict::pass();
      });
}

// ------------------------------------- approximation structural invariants

TEST(ApproxStructureTest, StateCountMatchesGridFormula) {
  check<ScenarioCase>(
      "StateCountFormula", scenario_gen(), [](const ScenarioCase& value) {
        const core::KibamRmModel model = value.model();
        core::MarkovianApproximation solver(model, {.delta = value.delta});
        const std::size_t expected = (value.levels_available + 1) *
                                     (value.levels_bound + 1) *
                                     model.workload().chain().state_count();
        if (solver.last_stats().expanded_states != expected) {
          std::ostringstream why;
          why << "expanded states "
              << solver.last_stats().expanded_states << " != (L1+1)(L2+1)W"
              << " = " << expected;
          return Verdict::fail(why.str());
        }
        return Verdict::pass();
      });
}

TEST(ApproxStructureTest, ProbabilityMassConservedAlongTheCurve) {
  check<ScenarioCase>(
      "MassConservedOnCurve", scenario_gen(), [](const ScenarioCase& value) {
        const auto expanded =
            core::build_expanded_chain(value.model(), value.delta);
        const auto solver =
            engine::make_backend("uniformization", {.renormalize = false});
        const auto pis =
            solver->solve(expanded.chain, expanded.initial, value.times);
        for (std::size_t point = 0; point < pis.size(); ++point) {
          if (std::abs(linalg::sum(pis[point]) - 1.0) > 1e-8) {
            std::ostringstream why;
            why << "mass at t=" << value.times[point] << ": "
                << linalg::sum(pis[point]);
            return Verdict::fail(why.str());
          }
          for (double p : pis[point])
            if (p < -1e-12)
              return Verdict::fail("negative probability on the curve");
        }
        return Verdict::pass();
      });
}

TEST(ApproxStructureTest, EmptyProbabilityMonotoneAndWithinBounds) {
  check<ScenarioCase>(
      "EmptyProbabilityCurve", scenario_gen(), [](const ScenarioCase& value) {
        const KibamView view = kibam_view(value);
        const core::KibamRmModel model = value.model();
        core::MarkovianApproximation solver(model, {.delta = value.delta});
        // LifetimeCurve's constructor enforces monotonicity/bounds;
        // surviving construction is most of the assertion.  The horizon
        // doubles from the deterministic full-drain time until the curve
        // saturates (random scenarios spread their lifetime mass wider
        // than the paper's cell, so a fixed horizon would flake).
        double horizon = 2.0 * view.capacity / view.current;
        for (int attempt = 0; attempt < 6; ++attempt) {
          const auto curve =
              solver.solve(core::uniform_grid(0.05 * horizon, horizon, 12));
          if (curve.probabilities().front() < 0.0)
            return Verdict::fail("curve starts below zero");
          if (curve.probabilities().back() > 0.95) return Verdict::pass();
          horizon *= 2.0;
        }
        return Verdict::fail(
            "Pr{empty} never reached 0.95 within 64x the drain time");
      });
}

}  // namespace
}  // namespace kibamrm::prop

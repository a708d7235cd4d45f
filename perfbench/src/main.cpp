// kibamrm_perfbench: time to a lifetime curve, end to end and layer by layer.
//
//   kibamrm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --data DIR --out DIR
//   kibamrm_perfbench --make-reference --data DIR
//
// Workloads (library defaults for every option except the engine name and
// the lane count, lanes = min(4, nproc)):
//   fig8_d10          the paper's Fig. 8 on/off KiBaM at Delta = 10 on a
//                     57-point grid, engine "parallel"
//   fig8_d10_krylov   the same chain and grid, engine "krylov"
//   scenario_batch    a seeded set of small on/off scenarios solved through
//                     engine::ScenarioBatch with engine "parallel"
//
// An untraced run (--trace 0) repeats ops for about S seconds and reports
// the end-to-end metrics; a traced run (--trace 1) calls the layers itself
// (core::build_expanded_chain -> engine::make_backend -> solve) inside
// spans, probes the engine/markov/linalg layers on the op's chain and the
// host's bandwidth ceilings, and reports the per-layer metrics.  Every
// curve is checked; a failed check is a failed op.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "kibamrm/common/resource.hpp"
#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/core/kibamrm_model.hpp"
#include "kibamrm/core/lifetime_distribution.hpp"
#include "kibamrm/engine/scenario_batch.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/workload/onoff_model.hpp"
#include "probes.hpp"
#include "timing.hpp"
#include "trace.hpp"

namespace kb = kibamrm;

namespace {

using perfbench::Clock;
using perfbench::Counts;
using perfbench::median;
using perfbench::since;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit_draw(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

// ------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool make_reference = false;
  std::string data_dir = "perfbench/data";
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "kibamrm_perfbench: " << message << "\n"
            << "usage: kibamrm_perfbench --workload fig8_d10|fig8_d10_krylov|"
               "scenario_batch --seed N --seconds S --trace 0|1 "
               "[--data DIR] [--out DIR]\n"
            << "       kibamrm_perfbench --make-reference [--data DIR]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--make-reference") {
      options.make_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("option " + flag + " requires a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--data") {
        options.data_dir = value;
      } else if (flag == "--out") {
        options.out_dir = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!options.make_reference && options.workload.empty()) {
    usage("--workload is required");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

// ------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool integer = false;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_live = true;  // the self-check saw every injected failure
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void fail(const std::string& reason) {
    ++failed;
    if (failures.size() < 20) failures.push_back(reason);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit, false});
  }
  void count(const std::string& name, std::uint64_t value,
             const std::string& unit = "count") {
    metrics.push_back({name, static_cast<double>(value), unit, true});
  }
};

void print_result(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.checks_live ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buffer[128];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (m.integer) {
      std::snprintf(buffer, sizeof buffer, "%llu",
                    static_cast<unsigned long long>(m.value));
    } else {
      std::snprintf(buffer, sizeof buffer, "%.17g", m.value);
    }
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buffer +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

void print_counts(const Counts& counts) {
  std::string json = "counts: {";
  bool first = true;
  for (const auto& [name, value] : counts) {
    json += (first ? "\"" : ", \"") + name + "\": " + std::to_string(value);
    first = false;
  }
  std::cout << json << "}" << std::endl;
}

// ------------------------------------------------------------- inputs

std::size_t lanes() {
  return std::min<std::size_t>(4, kb::common::ThreadPool::hardware_thread_count());
}

constexpr double kFig8Delta = 10.0;
constexpr std::size_t kMinOps = 3;
constexpr std::size_t kMaxOps = 1000;
// Set-up samples taken before every untraced op (on top of the op's own),
// so the samples span the run: about 0.3 s per fig8 op, a few ms per batch.
// Each round starts with untimed set-ups: the first one or two after a
// solve run 30-100% slower (they fault in memory the solve's teardown gave
// back), and with them in the sample the median flipped between the warm
// and the cold figure from run to run.
constexpr int kSetupWarmups = 2;
constexpr int kFig8SetupSamples = 8;
constexpr int kBatchSetupSamples = 40;
// Untraced/traced op pairs of the fig8 traced run.
constexpr int kTracedPairs = 3;

// The paper's battery (C = 7200 As, c = 0.625, k = 4.5e-5/s) under an
// on/off load of 0.96 A.
kb::core::KibamRmModel onoff_kibam(double frequency, int erlang_k) {
  return kb::core::KibamRmModel(
      kb::workload::make_onoff_model({.frequency = frequency,
                                      .erlang_k = erlang_k,
                                      .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

std::vector<double> fig8_times() {
  return kb::core::uniform_grid(6000.0, 20000.0, 57);
}

kb::core::ApproximationOptions approximation_options(const std::string& engine,
                                                     double delta,
                                                     std::size_t threads) {
  kb::core::ApproximationOptions options;
  options.delta = delta;
  options.engine = engine;
  options.threads = threads;
  return options;
}

struct ScenarioSpec {
  double frequency = 1.0;
  int erlang_k = 1;
  double delta = 100.0;
  double horizon = 16000.0;
};

// A sweep over on/off models f in {0.2, 1, 2} Hz, K in {1, 2, 3} at
// Delta in {100, 50}, in sweep order (f, then K, then Delta descending).
// Work grows like f K^2 / Delta^2 (states times uniformisation rate); the
// four costliest (model, Delta) pairs are left out so that no single
// scenario outweighs a lane's share of the batch.  Every Delta = 50
// scenario has a twin with the same (model, Delta) -- 20 scenarios, 12 of
// which share their plan with another, so the batch's plan cache gets
// hits.  The seed draws the horizons, from 12000 to 20000 s: freely for
// the Delta = 100 scenarios; for a twin pair, which twin gets the short
// and which the long horizon and a jitter of up to 500 s, so the pair's
// work (and the batch's longest scenario) hardly depends on the seed.
std::vector<ScenarioSpec> draw_scenarios(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5eed5eed5eedull;
  std::vector<ScenarioSpec> specs;
  for (const double frequency : {0.2, 1.0, 2.0}) {
    for (const int erlang_k : {1, 2, 3}) {
      for (const double delta : {100.0, 50.0}) {
        const double cost = frequency * erlang_k * erlang_k *
                            (100.0 / delta) * (100.0 / delta);
        if (cost > 16.0) continue;
        if (delta == 100.0) {
          specs.push_back(
              {frequency, erlang_k, delta, 12000.0 + 8000.0 * unit_draw(state)});
          continue;
        }
        const double jitter = 500.0 * unit_draw(state);
        double first = 12000.0 + jitter;
        double second = 20000.0 - jitter;
        if (splitmix64(state) % 2) std::swap(first, second);
        specs.push_back({frequency, erlang_k, delta, first});
        specs.push_back({frequency, erlang_k, delta, second});
      }
    }
  }
  return specs;
}

std::vector<double> scenario_times(double horizon) {
  return kb::core::uniform_grid(horizon / 37.0, horizon, 37);
}

std::vector<kb::engine::Scenario> build_scenarios(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<kb::engine::Scenario> scenarios;
  scenarios.reserve(specs.size());
  char label[96];
  for (const ScenarioSpec& spec : specs) {
    std::snprintf(label, sizeof label, "f=%g K=%d Delta=%g h=%.0f",
                  spec.frequency, spec.erlang_k, spec.delta, spec.horizon);
    scenarios.push_back({label, onoff_kibam(spec.frequency, spec.erlang_k),
                         spec.delta, scenario_times(spec.horizon)});
  }
  return scenarios;
}

kb::engine::ScenarioBatchOptions batch_options(const std::string& engine) {
  kb::engine::ScenarioBatchOptions options;
  options.engine = engine;
  options.threads = lanes();
  return options;
}

// ------------------------------------------------------------- ops

Counts curve_counts(const kb::core::ApproximationStats& stats) {
  return {{"core.states", stats.expanded_states},
          {"core.generator_nnz", stats.generator_nonzeros},
          {"engine.active_states", stats.active_states},
          {"engine.active_nnz", stats.active_nonzeros},
          {"engine.steps", stats.uniformization_iterations},
          {"engine.steps_saved", stats.iterations_saved},
          {"markov.poisson_terms",
           stats.uniformization_iterations + stats.iterations_saved},
          {"markov.windows_computed", stats.windows_computed},
          {"markov.windows_reused", stats.windows_reused},
          {"engine.krylov_substeps", stats.substeps},
          {"engine.krylov_ortho_work", stats.krylov_ortho_work},
          {"engine.hessenberg_expms", stats.hessenberg_expms}};
}

void add_counts(Counts& total, const Counts& part) {
  for (const auto& [name, value] : part) total[name] += value;
}

// One lifetime curve through the public entry point: the
// MarkovianApproximation constructor (expansion, ordering, engine and
// pool) plus solve().
struct CurveOp {
  double setup_s = 0.0;
  double curve_s = 0.0;
  std::vector<double> probabilities;
  kb::core::ApproximationStats stats;
  std::string error;
};

CurveOp run_curve_op(const kb::core::KibamRmModel& model,
                     const std::string& engine, double delta,
                     const std::vector<double>& times,
                     std::size_t threads = lanes()) {
  CurveOp op;
  try {
    const auto start = Clock::now();
    kb::core::MarkovianApproximation approximation(
        model, approximation_options(engine, delta, threads));
    op.setup_s = since(start);
    const kb::core::LifetimeCurve curve = approximation.solve(times);
    op.curve_s = since(start);
    op.probabilities = curve.probabilities();
    op.stats = approximation.last_stats();
  } catch (const std::exception& error) {
    op.error = error.what();
  }
  return op;
}

// Checks one curve against a reference; empty when it passes.
std::string curve_failure(const std::vector<double>& probabilities,
                          const std::vector<double>& reference) {
  std::string reason = perfbench::check_cdf(probabilities,
                                            perfbench::kCurveTolerance);
  if (!reason.empty()) return "invalid CDF: " + reason;
  const double deviation = perfbench::max_deviation(probabilities, reference);
  if (!(deviation <= perfbench::kCurveTolerance)) {
    char text[96];
    std::snprintf(text, sizeof text, "deviates from reference by %.3g",
                  deviation);
    return text;
  }
  return "";
}

// Injects a perturbed point and an unknown engine name and requires both
// to come back as failed ops.  Returns the number of injected failures
// the checks reported (of 2).
int self_check(const std::vector<double>& good_curve,
               const std::vector<double>& reference, std::uint64_t seed,
               const std::function<std::string()>& unknown_engine_op) {
  int detected = 0;
  std::vector<double> perturbed = good_curve;
  const std::size_t point = seed % perturbed.size();
  perturbed[point] += perturbed[point] > 0.5 ? -1e-4 : 1e-4;
  const std::string curve_reason = curve_failure(perturbed, reference);
  const bool good_passes = curve_failure(good_curve, reference).empty();
  if (!curve_reason.empty() && good_passes) ++detected;
  const std::string engine_reason = unknown_engine_op();
  if (!engine_reason.empty()) ++detected;
  std::cout << "self-check: injected 2 failures, reported " << detected
            << " (perturbed point " << point << ": "
            << (curve_reason.empty() ? "NOT reported" : curve_reason)
            << "; unknown engine: "
            << (engine_reason.empty() ? "NOT reported" : engine_reason)
            << ")\n";
  return detected;
}

// ------------------------------------------------------------- untraced

// One untraced op: the time before solving starts, the op's wall time, the
// curves it completed and its per-curve wall time.
struct OpTiming {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::size_t curves = 1;
  double curve_s = 0.0;
};

// The untraced run of every workload.  Repeats `op` for about the run's
// seconds (at least kMinOps times), timing `setup` `setup_samples` times
// (after kSetupWarmups untimed calls) before each op; then calls
// `after_ops` with the op count (the checks that follow the timed ops) and
// reports the six end-to-end metrics.
void run_untraced(const Options& options, Report& report, int setup_samples,
                  const std::function<double()>& setup,
                  const std::function<OpTiming()>& op,
                  const std::function<void(std::size_t)>& after_ops) {
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> curve_walls;
  std::size_t curves = 0;
  const double cpu_before = cpu_seconds();
  const auto run_start = Clock::now();
  while (walls.size() < kMaxOps) {
    if (walls.size() >= kMinOps &&
        since(run_start) + median(walls) > options.seconds) {
      break;
    }
    for (int i = 0; i < kSetupWarmups; ++i) setup();
    for (int i = 0; i < setup_samples; ++i) setups.push_back(setup());
    const OpTiming timing = op();
    setups.push_back(timing.setup_s);
    walls.push_back(timing.wall_s);
    rates.push_back(ratio(static_cast<double>(timing.curves), timing.wall_s));
    curve_walls.push_back(timing.curve_s);
    curves += timing.curves;
  }
  const double cpu_used = cpu_seconds() - cpu_before;
  const double peak_mb =
      static_cast<double>(kb::common::peak_rss_bytes()) / (1024.0 * 1024.0);
  after_ops(walls.size());

  std::printf("ops: %zu (%zu curves), wall median %.4f s:", walls.size(),
              curves, median(walls));
  for (const double t : walls) std::printf(" %.4f", t);
  std::sort(setups.begin(), setups.end());
  std::printf("\nsetup: %zu samples, median %.6f s, quartiles %.6f %.6f\n",
              setups.size(), median(setups), setups[setups.size() / 4],
              setups[3 * setups.size() / 4]);
  report.add("curve_s_p50", median(curve_walls), "s");
  report.add("curves_per_s", median(rates), "1/s");
  report.add("cpu_s_per_curve", cpu_used / static_cast<double>(curves), "s");
  report.add("setup_s", median(setups), "s");
  report.add("peak_rss_mb", peak_mb, "MiB");
  report.add("pass_frac",
             1.0 - ratio(static_cast<double>(report.failed),
                         static_cast<double>(report.attempted)),
             "fraction");
}

// ------------------------------------------------------------- tracing

// The layer walk of one op: build_expanded_chain -> make_backend -> solve,
// each inside a span, with Pr{empty} emission timed inside the callback.
struct TracedCurve {
  std::vector<double> probabilities;
  kb::engine::BackendStats stats;
  std::uint64_t states = 0;
  std::uint64_t generator_nnz = 0;
  double expand_s = 0.0;
  double solve_s = 0.0;
  double emit_s = 0.0;
  std::string error;
};

TracedCurve traced_curve(perfbench::SpanRecorder& recorder, int op,
                         const kb::core::KibamRmModel& model,
                         const std::string& engine, double delta,
                         const std::vector<double>& times,
                         std::size_t engine_lanes,
                         std::optional<kb::core::ExpandedChain>* keep_chain) {
  TracedCurve result;
  try {
    perfbench::ScopedSpan op_span(recorder, "op", op);
    const kb::core::ApproximationOptions defaults;
    auto t0 = Clock::now();
    std::optional<kb::core::ExpandedChain> expanded;
    {
      perfbench::ScopedSpan span(recorder, "core.expand", op);
      expanded.emplace(kb::core::build_expanded_chain(
          model, delta, kb::core::parse_state_ordering(defaults.reorder)));
    }
    result.expand_s = since(t0);
    result.states = expanded->grid.state_count();
    result.generator_nnz = expanded->chain.generator().nonzeros();
    std::unique_ptr<kb::engine::TransientBackend> backend;
    {
      perfbench::ScopedSpan span(recorder, "engine.make_backend", op);
      kb::engine::BackendOptions options;
      options.threads = engine_lanes;
      options.collect_distributions = false;
      backend = kb::engine::make_backend(engine, options);
    }
    std::vector<double> probabilities(times.size(), 0.0);
    t0 = Clock::now();
    {
      perfbench::ScopedSpan span(recorder, "engine.solve", op);
      backend->solve(expanded->chain, expanded->initial, times,
                     [&](std::size_t index, double, const std::vector<double>& pi) {
                       perfbench::ScopedSpan emit(recorder, "core.emit", op);
                       const auto e0 = Clock::now();
                       probabilities[index] = expanded->empty_probability(pi);
                       result.emit_s += since(e0);
                     });
    }
    result.solve_s = since(t0);
    {
      perfbench::ScopedSpan span(recorder, "core.curve", op);
      // The library's curve policy (core::solve_empty_probability_curve):
      // clamp round-off within the solver tolerance.
      kb::core::sanitize_probabilities(
          probabilities, std::max(1e-6, 10.0 * defaults.epsilon));
    }
    result.probabilities = std::move(probabilities);
    result.stats = backend->last_stats();
    if (keep_chain) *keep_chain = std::move(expanded);
  } catch (const std::exception& error) {
    result.error = error.what();
  }
  return result;
}

Counts traced_counts(const TracedCurve& curve) {
  const kb::engine::BackendStats& s = curve.stats;
  return {{"core.states", curve.states},
          {"core.generator_nnz", curve.generator_nnz},
          {"engine.active_states", s.active_states},
          {"engine.active_nnz", s.active_nonzeros},
          {"engine.steps", s.iterations},
          {"engine.steps_saved", s.iterations_saved},
          {"markov.poisson_terms", s.iterations + s.iterations_saved},
          {"markov.windows_computed", s.windows_computed},
          {"markov.windows_reused", s.windows_reused},
          {"engine.krylov_substeps", s.substeps},
          {"engine.krylov_ortho_work", s.krylov_ortho_work},
          {"engine.hessenberg_expms", s.hessenberg_expms}};
}

// Host ceilings and kernel probes shared by every traced workload.
struct LayerProbes {
  perfbench::PlanProbe plan;
  perfbench::GatherProbe gather;
  double windows_s = 0.0;
  perfbench::KrylovProbe krylov;
  perfbench::TriadProbe triad_ws;
  perfbench::TriadProbe triad_llc4x;
  perfbench::HostInfo host;
};

LayerProbes run_probes(perfbench::SpanRecorder& recorder, int op,
                       const kb::core::ExpandedChain& expanded,
                       const std::vector<double>& times) {
  LayerProbes probes;
  probes.host = perfbench::host_info();
  {
    perfbench::ScopedSpan span(recorder, "probe.engine.plan", op);
    probes.plan = perfbench::probe_plan(expanded.chain, expanded.initial);
  }
  {
    perfbench::ScopedSpan span(recorder, "probe.markov.windows", op);
    probes.windows_s = perfbench::probe_windows(
        probes.plan.rate, times, kb::core::ApproximationOptions{}.epsilon);
  }
  {
    perfbench::ScopedSpan span(recorder, "probe.linalg.gather", op);
    probes.gather = perfbench::probe_gather(*probes.plan.plan);
  }
  {
    perfbench::ScopedSpan span(recorder, "probe.linalg.krylov", op);
    probes.krylov =
        perfbench::probe_krylov(expanded.chain, probes.plan.plan->reachable, 30);
  }
  {
    perfbench::ScopedSpan span(recorder, "probe.host.triad", op);
    // One triad at the gather loop's computed working set, one with the
    // three arrays together at least 4x the last-level cache.
    probes.triad_ws = perfbench::probe_triad(
        static_cast<std::uint64_t>(probes.gather.bytes_per_step));
    const std::uint64_t llc =
        probes.host.llc_bytes ? probes.host.llc_bytes : (32ull << 20);
    probes.triad_llc4x = perfbench::probe_triad(4 * llc);
  }
  std::cout << "host: nproc=" << probes.host.nproc << " cpu=\""
            << probes.host.cpu_model << "\" llc_bytes=" << probes.host.llc_bytes
            << " kernel_tier=" << probes.host.kernel_tier
            << " triad_ws_bytes=" << probes.triad_ws.bytes
            << " triad_llc4x_bytes=" << probes.triad_llc4x.bytes << "\n";
  return probes;
}

// Per-layer metrics common to every workload; `step_ns` is the engine's
// per-step wall at its own lane count and `step_lanes` that lane count.
void add_layer_metrics(Report& report, const Counts& counts,
                       const LayerProbes& probes, double expand_s,
                       double emit_s, double plan_s, double solve_s,
                       double solve_self_s, double windows_s, double step_ns,
                       std::size_t step_lanes) {
  const auto c = [&](const char* name) {
    const auto it = counts.find(name);
    return it == counts.end() ? std::uint64_t{0} : it->second;
  };
  report.add("core.expand_s", expand_s, "s");
  report.count("core.states", c("core.states"));
  report.count("core.generator_nnz", c("core.generator_nnz"));
  report.add("core.emit_s", emit_s, "s");
  report.add("engine.plan_s", plan_s, "s");
  report.count("engine.active_states", c("engine.active_states"));
  report.count("engine.active_nnz", c("engine.active_nnz"));
  report.add("engine.solve_s", solve_s, "s");
  report.add("engine.solve_self_s", solve_self_s, "s");
  report.count("engine.steps", c("engine.steps"));
  report.count("engine.steps_saved", c("engine.steps_saved"));
  report.add("engine.detect_ratio",
             ratio(static_cast<double>(c("engine.steps_saved")),
                   static_cast<double>(c("markov.poisson_terms"))),
             "ratio");
  report.add("engine.step_ns", step_ns, "ns");
  report.add("engine.lane_efficiency",
             ratio(probes.gather.ns_per_step,
                   static_cast<double>(step_lanes) * step_ns),
             "ratio");
  report.count("engine.krylov_substeps", c("engine.krylov_substeps"));
  report.count("engine.krylov_ortho_work", c("engine.krylov_ortho_work"));
  report.count("engine.hessenberg_expms", c("engine.hessenberg_expms"));
  report.count("markov.poisson_terms", c("markov.poisson_terms"));
  report.count("markov.windows_computed", c("markov.windows_computed"));
  report.count("markov.windows_reused", c("markov.windows_reused"));
  report.add("markov.windows_s", windows_s, "s");
  const double gather_gbps =
      ratio(probes.gather.bytes_per_step, probes.gather.ns_per_step);
  report.add("linalg.gather_ns_per_step", probes.gather.ns_per_step, "ns");
  report.add("linalg.uniform_fraction", probes.gather.uniform_fraction,
             "ratio");
  report.add("linalg.gather_bytes_per_step", probes.gather.bytes_per_step,
             "B");
  report.add("linalg.gather_gbps", gather_gbps, "GB/s");
  report.add("linalg.ops_per_byte",
             ratio(probes.gather.ops_per_step, probes.gather.bytes_per_step),
             "op/B");
  report.add("linalg.gather_ceiling_frac",
             ratio(gather_gbps, probes.triad_ws.gbps), "ratio");
  report.add("linalg.arnoldi_s", probes.krylov.arnoldi_s, "s");
  report.add("linalg.matvec_ns", probes.krylov.matvec_ns, "ns");
  report.add("linalg.dot_gbps", probes.krylov.dot_gbps, "GB/s");
  report.add("linalg.axpy_gbps", probes.krylov.axpy_gbps, "GB/s");
  report.count("linalg.krylov_length", probes.krylov.length);
  report.add("host.triad_ws_gbps", probes.triad_ws.gbps, "GB/s");
  report.count("host.triad_ws_bytes", probes.triad_ws.bytes, "B");
  report.add("host.triad_llc4x_gbps", probes.triad_llc4x.gbps, "GB/s");
  report.count("host.triad_llc4x_bytes", probes.triad_llc4x.bytes, "B");
  report.count("host.llc_bytes", probes.host.llc_bytes, "B");
  report.count("host.nproc", probes.host.nproc);
  report.count("host.lanes", lanes());
  // 0 scalar, 1 avx2, 2 avx512, 3 mixed (linalg::kernels::Dispatch).
  report.count("host.kernel_tier",
               static_cast<std::uint64_t>(probes.host.kernel_tier_code), "tier");
}

std::string trace_path(const Options& options) {
  return options.out_dir + "/trace-" + options.workload + "-seed" +
         std::to_string(options.seed) + ".json";
}

void finish_trace(Report& report, const perfbench::SpanRecorder& recorder,
                  const Options& options, double traced_s, double untraced_s,
                  std::uint64_t mismatches) {
  report.add("trace.overhead", ratio(traced_s, untraced_s) - 1.0, "ratio");
  report.count("trace.spans", recorder.spans().size());
  report.count("guard.count_mismatches", mismatches);
  const std::string path = trace_path(options);
  if (recorder.write_chrome_json(path)) {
    std::cout << "trace: " << recorder.spans().size() << " spans -> " << path
              << "\n";
  } else {
    std::cout << "trace: could not write " << path << "\n";
  }
  for (const auto& [name, self] : recorder.self_times()) {
    std::printf("self %-22s %.6f s\n", name.c_str(), self);
  }
}

// ------------------------------------------------------------- fig8

std::string fig8_reference_path(const Options& options) {
  return options.data_dir + "/fig8_d10_reference.txt";
}

int run_fig8(const Options& options, const std::string& engine,
             Report& report) {
  const perfbench::ReferenceCurve reference =
      perfbench::load_reference(fig8_reference_path(options));
  const std::vector<double> times = fig8_times();
  if (perfbench::max_deviation(times, reference.times) > 1e-9) {
    std::cerr << "reference grid does not match the fig8 grid\n";
    return 1;
  }
  const kb::core::KibamRmModel model = onoff_kibam(1.0, 1);
  perfbench::CountGuard guard;

  const auto check_op = [&](const CurveOp& op, const char* what) {
    ++report.attempted;
    if (!op.error.empty()) {
      report.fail(std::string(what) + " threw: " + op.error);
      return false;
    }
    const std::string reason =
        curve_failure(op.probabilities, reference.probabilities);
    if (!reason.empty()) {
      report.fail(std::string(what) + ": " + reason);
      return false;
    }
    if (!guard.observe(curve_counts(op.stats))) {
      report.fail(std::string(what) + ": exact counts differ from op 0");
      return false;
    }
    return true;
  };
  const auto unknown_engine_op = [&] {
    return run_curve_op(model, "no-such-engine", kFig8Delta, times).error;
  };

  if (!options.trace) {
    std::vector<double> first_curve;
    run_untraced(
        options, report, kFig8SetupSamples,
        [&] {
          // MarkovianApproximation's constructor alone: chain expansion,
          // ordering, engine and pool construction.
          const auto start = Clock::now();
          kb::core::MarkovianApproximation approximation(
              model, approximation_options(engine, kFig8Delta, lanes()));
          return since(start);
        },
        [&] {
          const CurveOp op = run_curve_op(model, engine, kFig8Delta, times);
          if (check_op(op, "curve") && first_curve.empty()) {
            first_curve = op.probabilities;
          }
          return OpTiming{op.setup_s, op.curve_s, 1, op.curve_s};
        },
        [&](std::size_t) {
          if (first_curve.empty()) first_curve = reference.probabilities;
          report.checks_live =
              self_check(first_curve, reference.probabilities, options.seed,
                         unknown_engine_op) == 2;
        });
    print_counts(guard.first());
    return 0;
  }

  // Traced run: kTracedPairs pairs of one untraced op and the same curve
  // walked layer by layer inside spans, back to back so that host drift
  // hits both sides alike; then the layer probes on the walked chain.
  perfbench::SpanRecorder recorder;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> expand_s;
  std::vector<double> emit_s;
  std::vector<double> solve_s;
  std::optional<kb::core::ExpandedChain> expanded;
  TracedCurve traced;
  for (int pair = 0; pair < kTracedPairs; ++pair) {
    const CurveOp base = run_curve_op(model, engine, kFig8Delta, times);
    check_op(base, "untraced curve");
    untraced_s.push_back(base.curve_s);
    const auto start = Clock::now();
    traced = traced_curve(recorder, pair, model, engine, kFig8Delta, times,
                          lanes(), &expanded);
    traced_s.push_back(since(start));
    ++report.attempted;
    if (!traced.error.empty()) {
      report.fail("traced curve threw: " + traced.error);
      continue;
    }
    const std::string reason =
        curve_failure(traced.probabilities, reference.probabilities);
    if (!reason.empty()) report.fail("traced curve: " + reason);
    if (!guard.observe(traced_counts(traced))) {
      report.fail("traced curve: exact counts differ from the untraced op");
    }
    expand_s.push_back(traced.expand_s);
    emit_s.push_back(traced.emit_s);
    solve_s.push_back(traced.solve_s);
  }
  report.checks_live =
      self_check(reference.probabilities, reference.probabilities,
                 options.seed, unknown_engine_op) == 2;
  if (!expanded || solve_s.empty()) {
    std::cerr << "traced op failed; no chain to probe\n";
    return 1;
  }
  const LayerProbes probes = run_probes(recorder, kTracedPairs, *expanded, times);
  const double plan_in_solve = engine == "krylov" ? 0.0 : probes.plan.plan_s;
  const double step_ns =
      ratio((median(solve_s) - plan_in_solve) * 1e9,
            static_cast<double>(traced.stats.iterations));
  const auto self = recorder.self_times();
  // Layer times per walk: medians over the walks; self time averaged.
  add_layer_metrics(report, traced_counts(traced), probes, median(expand_s),
                    median(emit_s), probes.plan.plan_s, median(solve_s),
                    (self.count("engine.solve") ? self.at("engine.solve") : 0.0) /
                        static_cast<double>(solve_s.size()),
                    probes.windows_s, step_ns, lanes());
  // BatchStats metrics: a single curve runs no batch.
  report.count("engine.plans_built", 0);
  report.add("engine.plan_reuse_ratio", 0.0, "ratio");
  report.add("engine.batch_efficiency", 0.0, "ratio");
  report.add("engine.batch_straggler_frac", 0.0, "ratio");
  finish_trace(report, recorder, options, median(traced_s), median(untraced_s),
               guard.mismatches());
  print_counts(guard.first());
  return 0;
}

int make_reference(const Options& options) {
  const kb::core::KibamRmModel model = onoff_kibam(1.0, 1);
  const std::vector<double> times = fig8_times();
  const CurveOp parallel = run_curve_op(model, "parallel", kFig8Delta, times);
  const CurveOp krylov = run_curve_op(model, "krylov", kFig8Delta, times);
  if (!parallel.error.empty() || !krylov.error.empty()) {
    std::cerr << "reference solve failed: " << parallel.error << krylov.error
              << "\n";
    return 1;
  }
  const double disagreement =
      perfbench::max_deviation(parallel.probabilities, krylov.probabilities);
  perfbench::ReferenceCurve reference;
  reference.times = times;
  reference.probabilities = parallel.probabilities;
  char line[160];
  reference.comments.push_back(
      "# Fig. 8 on/off KiBaM (f = 1 Hz, K = 1, C = 7200 As, c = 0.625, "
      "k = 4.5e-5/s, I = 0.96 A), Delta = 10, epsilon = 1e-10.");
  reference.comments.push_back(
      "# Pr{battery empty at t} from engine parallel; columns: t (s), "
      "probability.");
  std::snprintf(line, sizeof line,
                "# max |parallel - krylov| over the 57 points: %.3e", disagreement);
  reference.comments.push_back(line);
  std::snprintf(line, sizeof line,
                "# states %llu, DTMC steps %llu (+%llu saved), krylov "
                "matvecs %llu",
                static_cast<unsigned long long>(parallel.stats.expanded_states),
                static_cast<unsigned long long>(
                    parallel.stats.uniformization_iterations),
                static_cast<unsigned long long>(parallel.stats.iterations_saved),
                static_cast<unsigned long long>(
                    krylov.stats.uniformization_iterations));
  reference.comments.push_back(line);
  reference.comments.push_back(
      "# Regenerate: kibamrm_perfbench --make-reference --data perfbench/data");
  perfbench::save_reference(fig8_reference_path(options), reference);
  std::cout << "wrote " << fig8_reference_path(options)
            << "; max |parallel - krylov| = " << disagreement << "\n";
  return disagreement <= perfbench::kCurveTolerance ? 0 : 1;
}

// ------------------------------------------------------------- batch

int run_batch(const Options& options, Report& report) {
  const std::vector<ScenarioSpec> specs = draw_scenarios(options.seed);
  perfbench::CountGuard guard;
  std::vector<std::vector<double>> first_curves;

  struct BatchOp {
    double setup_s = 0.0;
    double wall_s = 0.0;
    std::vector<kb::engine::ScenarioResult> results;
    kb::engine::BatchStats stats;
    std::size_t lanes = 1;
  };
  const auto run_batch_op = [&] {
    BatchOp op;
    const auto start = Clock::now();
    const std::vector<kb::engine::Scenario> scenarios = build_scenarios(specs);
    kb::engine::ScenarioBatch batch(batch_options("parallel"));
    op.setup_s = since(start);
    const auto solve_start = Clock::now();
    op.results = batch.solve_all(scenarios);
    op.wall_s = since(solve_start);
    op.stats = batch.last_stats();
    op.lanes = batch.thread_count();
    return op;
  };
  // Checks every curve of a batch op; returns the op's aggregate counts.
  const auto check_batch = [&](const BatchOp& op) {
    Counts total;
    for (std::size_t i = 0; i < op.results.size(); ++i) {
      const kb::engine::ScenarioResult& result = op.results[i];
      ++report.attempted;
      if (result.skipped || result.failed || !result.curve) {
        report.fail(result.label + ": " +
                    (result.skipped ? "skipped: " + result.skip_reason
                                    : "failed: " + result.failure_reason));
        continue;
      }
      const std::string reason = perfbench::check_cdf(
          result.curve->probabilities(), perfbench::kCurveTolerance);
      if (!reason.empty()) {
        report.fail(result.label + ": invalid CDF: " + reason);
        continue;
      }
      if (first_curves.empty()) first_curves.resize(op.results.size());
      if (first_curves[i].empty()) {
        first_curves[i] = result.curve->probabilities();
      } else if (first_curves[i] != result.curve->probabilities()) {
        report.fail(result.label + ": curve differs bitwise from op 0");
      }
      add_counts(total, curve_counts(result.stats));
    }
    total["engine.plans_built"] = op.stats.plans_built;
    total["engine.plans_reused"] = op.stats.plans_reused;
    if (!guard.observe(total)) {
      report.fail("batch: exact counts differ from op 0");
    }
    return total;
  };
  const auto unknown_engine_op = [&]() -> std::string {
    try {
      kb::engine::ScenarioBatch batch(batch_options("no-such-engine"));
      batch.solve_all(build_scenarios({specs.front()}));
    } catch (const std::exception& error) {
      return error.what();
    }
    return "";
  };
  // After the timed ops: re-solve a seed-chosen sample with "krylov" and
  // require per-point agreement; a disagreeing scenario fails in every op.
  const auto cross_check = [&](std::size_t ops) {
    std::uint64_t state = options.seed ^ 0xc4ec4ull;
    std::vector<std::size_t> sample;
    while (sample.size() < 3) {
      const std::size_t index = splitmix64(state) % specs.size();
      if (std::find(sample.begin(), sample.end(), index) == sample.end()) {
        sample.push_back(index);
      }
    }
    bool checked_live = false;
    report.checks_live = false;
    for (const std::size_t index : sample) {
      const ScenarioSpec& spec = specs[index];
      const CurveOp op =
          run_curve_op(onoff_kibam(spec.frequency, spec.erlang_k), "krylov",
                       spec.delta, scenario_times(spec.horizon));
      const bool have_batch_curve =
          index < first_curves.size() && !first_curves[index].empty();
      const std::string reason =
          !op.error.empty()   ? "krylov threw: " + op.error
          : !have_batch_curve ? std::string("no batch curve")
                              : curve_failure(first_curves[index],
                                              op.probabilities);
      if (!reason.empty()) {
        for (std::size_t k = 0; k < ops; ++k) {
          report.fail("scenario " + std::to_string(index) +
                      " vs krylov: " + reason);
        }
      }
      if (!checked_live && reason.empty()) {
        // Self-check material: this scenario's batch curve against its
        // krylov re-solve.
        checked_live = true;
        report.checks_live = self_check(first_curves[index], op.probabilities,
                                        options.seed, unknown_engine_op) == 2;
      }
    }
  };

  if (!options.trace) {
    bool listed = false;
    run_untraced(
        options, report, kBatchSetupSamples,
        [&] {
          // ScenarioBatch construction plus building the scenario
          // descriptors.
          const auto start = Clock::now();
          const std::vector<kb::engine::Scenario> scenarios =
              build_scenarios(specs);
          kb::engine::ScenarioBatch batch(batch_options("parallel"));
          return since(start);
        },
        [&] {
          const BatchOp op = run_batch_op();
          check_batch(op);
          double scenario_sum = 0.0;
          for (const auto& result : op.results) {
            scenario_sum += result.wall_seconds;
            if (listed) continue;
            std::printf("scenario %-34s %8.4f s %9llu steps %7llu states\n",
                        result.label.c_str(), result.wall_seconds,
                        static_cast<unsigned long long>(
                            result.stats.uniformization_iterations),
                        static_cast<unsigned long long>(
                            result.stats.expanded_states));
          }
          listed = true;
          // Per-curve latency inside the batch: the op's mean scenario wall
          // (the per-scenario median would follow whichever scenario the
          // seed placed in the middle).
          const std::size_t n = op.results.size();
          return OpTiming{op.setup_s, op.wall_s, n,
                          ratio(scenario_sum, static_cast<double>(n))};
        },
        cross_check);
    print_counts(guard.first());
    return 0;
  }

  // Traced run: one batch op inside a span (BatchStats, batch efficiency
  // and the curves to check against); then every scenario on one lane, as
  // the batch's lanes run it -- solved untraced through
  // MarkovianApproximation and walked layer by layer inside spans, back to
  // back so that host drift hits both sides alike; then the probes on the
  // largest scenario's chain.
  perfbench::SpanRecorder recorder;
  BatchOp batch_op;
  {
    perfbench::ScopedSpan span(recorder, "engine.batch.solve_all", 0);
    batch_op = run_batch_op();
  }
  const Counts batch_counts = check_batch(batch_op);
  cross_check(1);

  double scenario_sum = 0.0;
  double straggler = 0.0;
  for (const auto& result : batch_op.results) {
    scenario_sum += result.wall_seconds;
    straggler = std::max(straggler, result.wall_seconds);
  }
  // A one-lane curve of scenario i against the batch's curve of it.
  const auto scenario_failure = [&](std::size_t i,
                                    const std::vector<double>& curve) {
    return i < first_curves.size() && !first_curves[i].empty()
               ? curve_failure(curve, first_curves[i])
               : perfbench::check_cdf(curve, perfbench::kCurveTolerance);
  };

  Counts walk_counts;
  double untraced_sum = 0.0;
  double traced_sum = 0.0;
  double expand_s = 0.0;
  double emit_s = 0.0;
  double solve_s = 0.0;
  double plan_s = 0.0;
  double windows_s = 0.0;
  std::size_t largest = 0;
  std::uint64_t largest_states = 0;
  double largest_step_ns = 0.0;
  std::optional<kb::core::ExpandedChain> largest_chain;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    const kb::core::KibamRmModel model =
        onoff_kibam(spec.frequency, spec.erlang_k);
    const std::vector<double> times = scenario_times(spec.horizon);
    const int op = static_cast<int>(i) + 1;
    const CurveOp base = run_curve_op(model, "parallel", spec.delta, times, 1);
    ++report.attempted;
    const std::string base_reason =
        base.error.empty() ? scenario_failure(i, base.probabilities)
                           : "threw: " + base.error;
    if (!base_reason.empty()) {
      report.fail("untraced scenario " + std::to_string(i) + ": " +
                  base_reason);
    }
    untraced_sum += base.curve_s;
    std::optional<kb::core::ExpandedChain> expanded;
    const auto start = Clock::now();
    const TracedCurve traced = traced_curve(recorder, op, model, "parallel",
                                            spec.delta, times, 1, &expanded);
    traced_sum += since(start);
    ++report.attempted;
    if (!traced.error.empty() || !expanded) {
      report.fail("traced scenario " + std::to_string(i) + " threw: " +
                  traced.error);
      continue;
    }
    const std::string reason = scenario_failure(i, traced.probabilities);
    if (!reason.empty()) {
      report.fail("traced scenario " + std::to_string(i) + ": " + reason);
    }
    add_counts(walk_counts, traced_counts(traced));
    expand_s += traced.expand_s;
    emit_s += traced.emit_s;
    solve_s += traced.solve_s;
    // Plan and window probes on every scenario's chain, outside its op.
    std::optional<perfbench::PlanProbe> plan;
    {
      perfbench::ScopedSpan span(recorder, "probe.engine.plan", op);
      plan = perfbench::probe_plan(expanded->chain, expanded->initial);
    }
    plan_s += plan->plan_s;
    {
      perfbench::ScopedSpan span(recorder, "probe.markov.windows", op);
      windows_s += perfbench::probe_windows(
          plan->rate, times, kb::core::ApproximationOptions{}.epsilon);
    }
    if (traced.states > largest_states) {
      largest_states = traced.states;
      largest = i;
      largest_chain = std::move(expanded);
      largest_step_ns =
          ratio((traced.solve_s - plan->plan_s) * 1e9,
                static_cast<double>(traced.stats.iterations));
    }
  }
  if (!largest_chain) {
    std::cerr << "no scenario walked; nothing to probe\n";
    return 1;
  }
  const LayerProbes probes =
      run_probes(recorder, static_cast<int>(specs.size()) + 1, *largest_chain,
                 scenario_times(specs[largest].horizon));
  const auto self = recorder.self_times();
  std::printf("largest scenario: %zu (%llu states)\n", largest,
              static_cast<unsigned long long>(largest_states));
  // Loop metrics per step on the largest scenario, which the 1-lane probes
  // measure; totals (times, counts) summed over the batch.
  add_layer_metrics(report, walk_counts, probes, expand_s, emit_s, plan_s,
                    solve_s,
                    self.count("engine.solve") ? self.at("engine.solve") : 0.0,
                    windows_s, largest_step_ns, 1);
  report.count("engine.plans_built", batch_op.stats.plans_built);
  report.add("engine.plan_reuse_ratio",
             ratio(static_cast<double>(batch_op.stats.plans_reused),
                   static_cast<double>(batch_op.stats.plans_built +
                                       batch_op.stats.plans_reused)),
             "ratio");
  report.add("engine.batch_efficiency",
             ratio(scenario_sum,
                   static_cast<double>(batch_op.lanes) * batch_op.wall_s),
             "ratio");
  report.add("engine.batch_straggler_frac",
             ratio(straggler, batch_op.wall_s), "ratio");
  finish_trace(report, recorder, options, traced_sum, untraced_sum,
               guard.mismatches());
  print_counts(batch_counts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    if (options.make_reference) return make_reference(options);
    Report report;
    int status = 0;
    if (options.workload == "fig8_d10") {
      status = run_fig8(options, "parallel", report);
    } else if (options.workload == "fig8_d10_krylov") {
      status = run_fig8(options, "krylov", report);
    } else if (options.workload == "scenario_batch") {
      status = run_batch(options, report);
    } else {
      usage("unknown workload " + options.workload);
    }
    if (status != 0) return status;
    for (const std::string& failure : report.failures) {
      std::cout << "FAILED: " << failure << "\n";
    }
    print_result(report);
    return 0;
  } catch (const std::exception& error) {
    // A benchmark that cannot run (missing reference, unwritable output)
    // prints no result.
    std::cerr << "kibamrm_perfbench: " << error.what() << "\n";
    return 1;
  }
}

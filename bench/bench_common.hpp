// Shared helpers for the bench binaries: option handling, curve printing
// and machine-readable result records.
//
// Every bench accepts:
//   --csv <path>    also write the printed series as CSV
//   --full          run the expensive full-resolution configurations
//   --points N      number of curve points (where applicable)
//   --json <path>   where to write the BENCH_*.json record file
//   --engine NAME   transient engine (where the bench solves chains)
//   --threads N     engine/batch execution lanes (0/absent = auto-detect)
//   --batch         solve all configurations through engine::ScenarioBatch
//   --no-detect     disable steady-state early termination
//   --kernels T     pin the vector-kernel tier: scalar | avx2 | avx512 | auto
//                   (default auto = CPUID; the tiers are bitwise identical,
//                   the pin is for measurement and for sanitizer runs.  An
//                   unavailable SIMD tier falls back to the best supported
//                   one with a stderr note.)
//   --reorder R     state ordering of the expanded chain:
//                   level | none (default level; level packs the
//                   charge-major runs the SIMD gather tiers vectorise
//                   across, none keeps the natural numbering for
//                   comparison -- the curve reads the empty layer through
//                   the permutation, so curves agree)
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "kibamrm/common/cli.hpp"
#include "kibamrm/common/error.hpp"
#include "kibamrm/common/resource.hpp"
#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/lifetime_distribution.hpp"
#include "kibamrm/engine/scenario_batch.hpp"
#include "kibamrm/io/table.hpp"
#include "kibamrm/linalg/kernels.hpp"

namespace kibamrm::bench {

/// The --kernels choice, validated; "auto" when absent.
inline std::string kernel_choice(const common::CliArgs& args) {
  return args.get_choice("kernels", "auto",
                         {"auto", "scalar", "avx2", "avx512"});
}

/// The --reorder choice, validated; "level" when absent.
inline std::string reorder_choice(const common::CliArgs& args) {
  return args.get_choice("reorder", "level", {"none", "level"});
}

/// Applies --kernels to the process-global dispatch; every driver calls
/// it once at startup, and no solver option overrides it afterwards.
inline void apply_kernel_choice(const common::CliArgs& args) {
  linalg::kernels::apply_dispatch(kernel_choice(args));
}

/// Tier the kernels actually run, for the "kernels" record field.
inline std::string active_kernel_name() {
  return std::string(
      linalg::kernels::dispatch_name(linalg::kernels::active_dispatch()));
}

/// Prints one table and optionally mirrors it to CSV.
inline void emit(const io::Table& table, const common::CliArgs& args,
                 const std::string& default_csv_name) {
  table.print(std::cout);
  std::cout << '\n';
  if (args.has("csv")) {
    const std::string path = args.get("csv", default_csv_name);
    table.write_csv_file(path);
    std::cout << "[csv written to " << path << "]\n\n";
  }
}

/// Builds a table with a time column and one labelled probability column
/// per curve (all curves share the time grid).
inline io::Table curves_table(const std::string& time_header,
                              const std::vector<double>& times,
                              const std::vector<std::string>& labels,
                              const std::vector<core::LifetimeCurve>& curves) {
  std::vector<std::string> headers = {time_header};
  headers.insert(headers.end(), labels.begin(), labels.end());
  io::Table table(headers);
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<double> row = {times[i]};
    for (const auto& curve : curves) row.push_back(curve.probabilities()[i]);
    table.add_numeric_row(row, 4);
  }
  return table;
}

/// One machine-readable benchmark record: ordered key -> rendered-JSON-value
/// pairs.  Use the typed field() overloads; strings are escaped minimally
/// (the fields benches emit are identifiers and numbers).
class BenchRecord {
 public:
  BenchRecord& field(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    return raw(key, '"' + escaped + '"');
  }
  BenchRecord& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  BenchRecord& field(const std::string& key, double value) {
    std::ostringstream rendered;
    rendered.precision(17);
    rendered << value;
    return raw(key, rendered.str());
  }
  // One template for every integer type: size_t, uint64_t and int are
  // distinct (and overlapping) types across platforms, so fixed overloads
  // would be ambiguous somewhere.
  template <typename Int>
    requires std::is_integral_v<Int>
  BenchRecord& field(const std::string& key, Int value) {
    return raw(key, std::to_string(value));
  }

  void render(std::ostream& out) const {
    out << '{';
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out << ", ";
      out << '"' << fields_[i].first << "\": " << fields_[i].second;
    }
    out << '}';
  }

 private:
  BenchRecord& raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Collects BenchRecords for one bench and writes them as BENCH_<name>.json
/// (path overridable with --json), so the perf trajectory of the repo can
/// accumulate machine-readable data points across runs.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  BenchRecord& add_record() { return records_.emplace_back(); }

  void write(const common::CliArgs& args) const {
    const std::string path =
        args.get("json", "BENCH_" + name_ + ".json");
    std::ofstream out(path);
    KIBAMRM_REQUIRE(out.good(), "cannot open bench json file: " + path);
    out << "{\"bench\": \"" << name_ << "\", \"records\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (i > 0) out << ", ";
      records_[i].render(out);
    }
    out << "]}\n";
    KIBAMRM_REQUIRE(out.good(), "failed writing bench json file: " + path);
    std::cout << "[bench json written to " << path << "]\n";
  }

 private:
  std::string name_;
  std::vector<BenchRecord> records_;
};

/// Lanes a run will actually use, for the "threads" record field: the
/// serial engines always run 1, and the 0 = auto-detect sentinel resolves
/// to the hardware count -- so trajectory tooling never groups wall times
/// under a fictitious thread count 0.
inline std::size_t resolved_thread_count(const std::string& engine,
                                         std::size_t requested) {
  if (engine != "parallel" && engine != "krylov") return 1;
  return requested == 0 ? common::ThreadPool::hardware_thread_count()
                        : requested;
}

/// Engine-tuning flags shared by every solver driver, for
/// core::ApproximationOptions and engine::ScenarioBatchOptions alike:
/// --no-detect disables steady-state early termination (uniformisation
/// engines; other engines ignore it) and --reorder picks the state
/// ordering.
template <typename Options>
void apply_engine_tuning(const common::CliArgs& args, Options& options) {
  options.steady_state_detection = !args.has("no-detect");
  options.reorder = reorder_choice(args);
}

/// One engine-backed approximation solve for the sweep drivers: constructs
/// the solver, times the solve, and turns an engine refusal
/// (engine::UnsupportedChainError, e.g. dense over its state limit) into a
/// printed skip instead of a lost sweep.  Genuine solver errors propagate.
struct EngineRun {
  bool skipped = false;
  core::ApproximationStats stats;
  double wall_seconds = 0.0;
  std::optional<core::LifetimeCurve> curve;
};

inline EngineRun run_approximation(const core::KibamRmModel& model,
                                   const core::ApproximationOptions& options,
                                   const std::vector<double>& times) {
  EngineRun run;
  const auto start = std::chrono::steady_clock::now();
  core::MarkovianApproximation solver(model, options);
  try {
    run.curve = solver.solve(times);
  } catch (const engine::UnsupportedChainError& error) {
    std::cout << "Delta = " << options.delta << ": skipped ("
              << error.what() << ")\n";
    run.skipped = true;
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.stats = solver.last_stats();
  return run;
}

/// Work rate of the uniformisation kernel: stored entries of the matrix
/// the loop actually iterated (active_nonzeros -- the compacted transpose;
/// generator nonzeros as a fallback for engines that do not report it)
/// times DTMC steps per wall second.  Tracks kernel-level regressions the
/// wall time alone hides (e.g. an iteration-count change masking a slower
/// spmv, or a grown reachable closure masquerading as one).  0 when the
/// run did no iterations or took no measurable time.
inline double spmv_throughput(const core::ApproximationStats& stats,
                              double wall_seconds) {
  if (wall_seconds <= 0.0 || stats.uniformization_iterations == 0) return 0.0;
  const std::uint64_t nonzeros = stats.active_nonzeros != 0
                                     ? stats.active_nonzeros
                                     : stats.generator_nonzeros;
  return static_cast<double>(nonzeros) *
         static_cast<double>(stats.uniformization_iterations) / wall_seconds;
}

/// Appends the standard per-configuration record (engine, delta, states,
/// nonzeros, iterations, early-termination savings, effective spmv
/// throughput, wall time); a batched solve's record also carries its
/// scenario label.  Returns it for driver-specific extra fields.
inline BenchRecord& add_stats_record(BenchReport& report,
                                     const core::ApproximationStats& stats,
                                     double wall_seconds, double delta,
                                     const std::string* scenario) {
  BenchRecord& record = report.add_record()
                            .field("engine", stats.engine)
                            .field("kernels", active_kernel_name())
                            .field("reorder", stats.reorder);
  if (scenario) record.field("scenario", *scenario);
  return record.field("delta", delta)
      .field("states", stats.expanded_states)
      .field("nonzeros", stats.generator_nonzeros)
      .field("iterations", stats.uniformization_iterations)
      .field("iterations_saved", stats.iterations_saved)
      .field("active_states", stats.active_states)
      .field("active_nonzeros", stats.active_nonzeros)
      .field("matrix_bandwidth", stats.matrix_bandwidth)
      .field("groupable_rows", stats.groupable_rows)
      .field("longest_uniform_run", stats.longest_uniform_run)
      .field("diagonal_rows", stats.diagonal_rows)
      .field("longest_diagonal_run", stats.longest_diagonal_run)
      .field("krylov_dim", stats.krylov_dim)
      .field("substeps", stats.substeps)
      .field("hessenberg_expms", stats.hessenberg_expms)
      .field("krylov_ortho_work", stats.krylov_ortho_work)
      .field("spmv_throughput", spmv_throughput(stats, wall_seconds))
      .field("peak_rss_bytes", common::peak_rss_bytes())
      .field("wall_seconds", wall_seconds)
      .field("rows_iterated", stats.rows_iterated)
      .field("dropped_mass", stats.dropped_mass);
}

inline BenchRecord& add_engine_record(BenchReport& report,
                                      const EngineRun& run, double delta) {
  return add_stats_record(report, run.stats, run.wall_seconds, delta,
                          nullptr);
}

inline BenchRecord& add_scenario_record(BenchReport& report,
                                        const engine::ScenarioResult& result,
                                        double delta) {
  return add_stats_record(report, result.stats, result.wall_seconds, delta,
                          &result.label);
}

/// Aggregate record of one ScenarioBatch::solve_all: batch wall-clock vs
/// summed per-scenario time is the achieved scenario-level parallelism.
inline BenchRecord& add_batch_record(BenchReport& report,
                                     const std::string& engine,
                                     const engine::BatchStats& stats) {
  return report.add_record()
      .field("engine", engine)
      .field("batch", "aggregate")
      .field("scenarios", stats.scenarios)
      .field("skipped", stats.skipped)
      .field("failed", stats.failed)
      .field("threads", stats.threads)
      .field("batch_wall_seconds", stats.wall_seconds)
      .field("solve_seconds_total", stats.solve_seconds_total)
      .field("iterations", stats.iterations_total)
      .field("iterations_saved", stats.iterations_saved_total)
      .field("plans_built", stats.plans_built)
      .field("plans_reused", stats.plans_reused)
      .field("peak_rss_bytes", common::peak_rss_bytes());
}

}  // namespace kibamrm::bench

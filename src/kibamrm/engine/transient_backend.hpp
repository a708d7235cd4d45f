// The pluggable transient-engine layer: one interface over every way this
// library can push a probability distribution through time.
//
// The paper's tailored algorithm (Sec. 5) fixes a single pipeline --
// discretise, build the expanded CTMC Q*, solve by uniformisation.  The
// engine layer decouples the last step: a TransientBackend computes pi(t)
// for a CTMC on a sorted time grid, and callers (core/approx_solver, the
// bench drivers, examples) select an implementation by name:
//
//   "uniformization"  the "parallel" engine pinned to one lane -- the serial
//                     production default for the expanded battery chains
//   "dense"           dense Pade matrix exponential (linalg/expm) with
//                     increment caching -- cross-validation oracle for
//                     chains below a configurable state threshold
//   "parallel"        incremental uniformisation with Fox-Glynn windows
//                     (markov::UniformizationDriver) over the compacted
//                     reachable closure, its fused gather step restricted
//                     to the mass window (the chunks that carry
//                     probability) and sharded across a ThreadPool
//                     (nnz-balanced row ranges) -- bitwise deterministic
//                     across thread counts; the multi-core production
//                     path
//   "krylov"          Arnoldi projection of exp(Q^T t) v onto a small
//                     Krylov subspace with EXPOKIT-style adaptive
//                     sub-step splitting -- the stiff-chain path: its
//                     cost scales with how fast the *solution* moves,
//                     not with the spectral radius that bloats the
//                     Poisson window
//
// New backends (GPU, MPI) register through register_backend() without
// another restructure of the call sites.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::engine {

class GatherPlanCache;  // engine/plan_cache.hpp

/// Stored entries plus rows below which one gather step costs less than
/// waking a thread pool; every pool-sharded gather (ChunkWindow::split,
/// shared by the uniformisation step and the krylov matvec) engages the
/// pool only at or above it.
inline constexpr std::uint64_t kPoolEngageWork = 16384;

/// The pool-engagement policy: more than one lane and at least
/// kPoolEngageWork stored entries plus rows per step.
inline bool pool_pays_off(std::size_t lanes, std::uint64_t nonzeros,
                          std::uint64_t rows) {
  return lanes > 1 && nonzeros + rows >= kPoolEngageWork;
}

/// Thrown when a backend cannot solve a given chain *by design* (e.g. the
/// dense backend refusing a chain above its state limit) -- as opposed to
/// failing on one.  Sweep drivers catch exactly this to skip a
/// configuration without masking genuine solver errors.
class UnsupportedChainError : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

/// Options understood by every backend; fields irrelevant to a given
/// backend are ignored (documented per field).
struct BackendOptions {
  /// Accuracy knob: uniformisation truncation error per time increment,
  /// or the Krylov engine's local error tolerance.  The dense backend is
  /// accurate to the Pade approximant and ignores it.
  double epsilon = 1e-10;
  /// Re-normalise the distribution after every output point to counter
  /// accumulated round-off on long curves.
  bool renormalize = true;
  /// The dense backend refuses chains above this state count (its cost is
  /// O(states^3) per distinct increment).
  std::size_t dense_state_limit = 1024;
  /// Execution lanes of the parallel uniformisation backend; 0 auto-detects
  /// the hardware thread count.  Other backends ignore it.
  std::size_t threads = 0;
  /// When false, solve() returns an empty vector and delivers points only
  /// through the callback -- curve consumers on million-state chains avoid
  /// materialising time_points * states doubles they never read.
  bool collect_distributions = true;
  /// Steady-state / absorption early termination inside the Poisson window
  /// (uniformisation engines).  The detection
  /// error is charged against `epsilon`, so accuracy guarantees keep
  /// their order.  Other backends ignore it.
  bool steady_state_detection = true;
  /// Krylov backend: Arnoldi subspace dimension cap m.  Larger subspaces
  /// permit larger sub-steps at O(m) extra matvecs and an O(m^3) small
  /// exponential per step; ~30 is the EXPOKIT sweet spot for chains of
  /// this stiffness.  Other backends ignore it.
  std::size_t krylov_dim = 30;
  /// Krylov backend: adapt the Arnoldi subspace dimension between
  /// sub-steps within [4, krylov_dim] -- grow when trial steps get
  /// rejected, shrink when a shallower nested subspace would pass the
  /// next step or the subspace closes early -- so easy chains stop
  /// paying the worst-case m^2 n orthogonalisation and stiff chains stop
  /// re-stepping.  False pins m = krylov_dim (the fixed-dimension A/B
  /// baseline).  Other backends ignore it.
  bool krylov_adaptive_dim = true;
  /// Optional cross-scenario cache of reachable closures + gather plans
  /// (engine/plan_cache.hpp), shared across the lanes of a ScenarioBatch.
  /// Null solves build their plan privately.  Honoured by the
  /// uniformisation engines ("uniformization", "parallel"); results are
  /// bitwise independent of cache hits.
  std::shared_ptr<GatherPlanCache> plan_cache = nullptr;
};

/// Cost counters, populated by every backend after each solve().  The
/// uniformisation counters come from markov::TransientStats: DTMC steps,
/// savings and windows for the uniformisation engines, and the iterated
/// matrix's size and structure and the mass window's `rows_iterated` and
/// `dropped_mass` for those and the krylov engine (0 where a backend does
/// not report them; krylov counts the rows its matvecs wrote and the mass
/// its per-sub-step drops zeroed).  `iterations` is the backend's work
/// unit: DTMC steps (= sparse matrix-vector products) for uniformisation
/// and matrix-vector products for krylov, dense matrix-matrix products
/// for the expm backend.
struct BackendStats : markov::TransientStats {
  /// Krylov backend: largest Arnoldi subspace dimension used during the
  /// last solve (the configured cap, or less after happy breakdowns on
  /// near-invariant starts); 0 elsewhere.
  std::uint64_t krylov_dim = 0;
  /// Krylov backend: accepted adaptive sub-steps over the whole solve
  /// (each one Arnoldi factorisation); 0 elsewhere.
  std::uint64_t substeps = 0;
  /// Krylov backend: sum of dim^2 over all Arnoldi factorisations -- the
  /// orthogonalisation cost of the solve in units of the state count
  /// (the m^2 n term that dominates 1e5+-state chains), and the metric
  /// the adaptive dimension controller actually optimises; 0 elsewhere.
  std::uint64_t krylov_ortho_work = 0;
  /// Krylov backend: small Hessenberg exponentials evaluated, including
  /// rejected trial steps (each one cached-Pade evaluation); 0 elsewhere.
  std::uint64_t hessenberg_expms = 0;
};

/// Called with (index, time, distribution) as soon as each requested time
/// point is ready; curve consumers stream points this way instead of
/// holding all distributions.
using PointCallback = markov::PointCallback;

/// Interface of a transient CTMC solver.  Implementations are stateless
/// between solve() calls except for last_stats() and internal scratch.
class TransientBackend {
 public:
  virtual ~TransientBackend() = default;

  /// Registry name of this backend ("uniformization", "parallel", ...).
  virtual std::string_view name() const = 0;

  /// Computes pi(t) for each t in `times` (sorted ascending, >= 0) starting
  /// from the distribution `initial`.  Returns one distribution per time
  /// point and invokes `on_point` incrementally when given.
  virtual std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point = nullptr) = 0;

  /// Counters of the most recent solve().
  virtual const BackendStats& last_stats() const = 0;
};

/// The uniformisation-driver settings carried by `options`.
markov::TransientOptions transient_options(const BackendOptions& options);

/// Factory signature for register_backend().
using BackendFactory =
    std::function<std::unique_ptr<TransientBackend>(const BackendOptions&)>;

/// Instantiates a registered backend by name; throws InvalidArgument naming
/// the known backends otherwise.
std::unique_ptr<TransientBackend> make_backend(
    std::string_view name, const BackendOptions& options = {});

/// Names of all registered backends, sorted; the built-ins are always
/// present.
std::vector<std::string> backend_names();

/// True iff `name` is a registered backend.
bool is_backend_name(std::string_view name);

/// Registers an additional backend under `name` (replacing any previous
/// registration of that name).  Built-ins are pre-registered.
void register_backend(std::string name, BackendFactory factory);

}  // namespace kibamrm::engine

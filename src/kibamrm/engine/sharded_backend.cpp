#include "kibamrm/engine/sharded_backend.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "kibamrm/common/error.hpp"
#include "kibamrm/common/shm_channel.hpp"
#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/linalg/shard_plan.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

namespace {

// Wire protocol between the coordinator and its workers.  Every frame
// rides a ShmChannel ring with the length/type/checksum header; the
// payloads below are fixed-layout PODs or raw double spans.
enum FrameType : std::uint32_t {
  kFrameHalo = 1,     // doubles: one halo span of the power vector
  kFrameDelta = 2,    // double: band sup-norm delta of one product
  kFrameVerdict = 3,  // VerdictPayload: steady-state decision for the step
  kFrameSlice = 4,    // doubles: the worker's band of pi(t_k), then the
                      // mass its band's chunks dropped over the increment
  kFrameScale = 5,    // double: renormalisation factor 1/sum
  kFrameStats = 6,    // StatsPayload: end-of-solve telemetry
  kFrameError = 7,    // bytes: worker exception message (best effort)
};

struct VerdictPayload {
  double residual = 0.0;  // Fox-Glynn tail mass to fold in when stopping
  std::uint32_t stop = 0;
  std::uint32_t pad = 0;
};

struct StatsPayload {
  std::uint64_t halo_wait_ns = 0;
  std::uint64_t halo_bytes = 0;
};

// Everything a worker needs, built before fork() and inherited
// copy-on-write: the channel rings are shared mappings, the rest are
// plain read-only pages the kernel never has to duplicate.
struct SharedSetup {
  const BackendOptions* options = nullptr;
  const CachedGatherPlan* cached = nullptr;
  const linalg::ShardPlan* shard_plan = nullptr;
  const std::vector<double>* times = nullptr;
  std::vector<double> initial_compact;
  double rate = 0.0;
  bool detect = false;
  std::size_t inner_lanes = 1;
  std::vector<common::ShmChannel> to_coord;    // one per worker
  std::vector<common::ShmChannel> from_coord;  // one per worker
  std::vector<common::ShmChannel> halo;        // one per plan halo span
};

struct WorkerProc {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

/// The mass-window chunks [first, first + count) a band owns; bands are
/// cut at chunk edges (ShardPlan::build's row_align), so the drop rule
/// always sees whole chunks.
struct BandChunks {
  std::size_t first = 0;
  std::size_t count = 0;
};

BandChunks band_chunks(const linalg::ShardBand& band) {
  if (band.rows() == 0) return {};
  const std::size_t first = band.row_begin / markov::kDropChunkRows;
  return {first, markov::drop_chunk_count(band.row_end) - first};
}

/// True while the worker process exists; sticky once waitpid() has
/// reaped it (a second waitpid on a reaped pid reports ECHILD, which
/// must not read as "alive again").
bool worker_alive(WorkerProc& worker) {
  if (worker.reaped) return false;
  int status = 0;
  const pid_t r = ::waitpid(worker.pid, &status, WNOHANG);
  if (r == worker.pid) {
    worker.reaped = true;
    worker.status = status;
    return false;
  }
  return true;
}

/// True once the worker has died *abnormally* (signal, or a non-zero exit
/// status).  A clean exit(0) is not a failure: the worker only reaches it
/// after its last frame is in the ring, so a fast worker finishing while
/// the coordinator still drains a slow one must not abort the solve.
bool worker_failed(WorkerProc& worker) {
  if (worker_alive(worker)) return false;
  return !WIFEXITED(worker.status) || WEXITSTATUS(worker.status) != 0;
}

/// Kills and reaps every still-running worker on scope exit, so an
/// exception anywhere in the coordinator (IpcError from a dead peer,
/// NumericalError from renormalisation) never strands child processes.
class WorkerReaper {
 public:
  explicit WorkerReaper(std::vector<WorkerProc>& workers)
      : workers_(workers) {}
  ~WorkerReaper() {
    for (WorkerProc& worker : workers_) {
      if (worker.pid <= 0 || worker.reaped) continue;
      ::kill(worker.pid, SIGKILL);
      ::waitpid(worker.pid, &worker.status, 0);
      worker.reaped = true;
    }
  }
  WorkerReaper(const WorkerReaper&) = delete;
  WorkerReaper& operator=(const WorkerReaper&) = delete;

 private:
  std::vector<WorkerProc>& workers_;
};

// Test-only fault injection: KIBAMRM_SHARDED_FAULT="exit:<shard>[:<min
// states>]" makes that worker _exit(3) before the solve loop, but only
// for chains of at least <min states> rows -- the batch-isolation test
// uses the floor to crash one scenario of a sweep and not the others.
struct FaultSpec {
  std::size_t shard = 0;
  std::size_t min_states = 0;
};

std::optional<FaultSpec> parse_fault_env() {
  const char* raw = std::getenv("KIBAMRM_SHARDED_FAULT");
  if (raw == nullptr || std::strncmp(raw, "exit:", 5) != 0) {
    return std::nullopt;
  }
  FaultSpec spec;
  char* end = nullptr;
  spec.shard = std::strtoul(raw + 5, &end, 10);
  if (end != nullptr && *end == ':') {
    spec.min_states = std::strtoul(end + 1, nullptr, 10);
  }
  return spec;
}

void expect_worker_frame(common::ShmChannel& channel, common::ShmFrame& frame,
                         std::uint32_t want, std::size_t payload_bytes) {
  channel.recv(frame);
  if (frame.type != want || frame.payload.size() != payload_bytes) {
    throw IpcError("sharded worker: unexpected frame " +
                   std::to_string(frame.type) + " from coordinator");
  }
}

/// The worker body: iterate this shard's band of the compacted
/// transpose, exchanging halo rows with peers and deltas/verdicts with
/// the coordinator.  Runs in the forked child; never returns normally --
/// the caller _exit()s.
void run_worker(SharedSetup& shared, std::size_t shard) {
#if defined(__linux__)
  // Die with the coordinator: a crashed or killed parent must not leave
  // workers futex-waiting on rings nobody will ever fill again.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(4);  // parent died before the prctl
#endif
  const BackendOptions& options = *shared.options;
  const CachedGatherPlan& cached = *shared.cached;
  const linalg::ShardPlan& plan = *shared.shard_plan;
  const linalg::ShardBand& band = plan.bands()[shard];
  const std::size_t n_rows = cached.rows();
  const std::size_t r0 = band.row_begin;
  const std::size_t band_rows = band.rows();
  const BandChunks chunks = band_chunks(band);

  if (const std::optional<FaultSpec> fault = parse_fault_env();
      fault && fault->shard == shard && n_rows >= fault->min_states) {
    ::_exit(3);
  }

  // This worker's halo traffic, in the deterministic plan order: spans
  // it owns (sends) and spans it subscribes to (receives).  Each span
  // has a dedicated ring, so send/recv order per ring is total.
  struct WorkerSpan {
    std::size_t channel;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<WorkerSpan> sends;
  std::vector<WorkerSpan> recvs;
  const std::span<const linalg::HaloSpan> spans = plan.halo_spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].source == shard) {
      sends.push_back({i, spans[i].begin, spans[i].end});
    }
    if (spans[i].dest == shard) {
      recvs.push_back({i, spans[i].begin, spans[i].end});
    }
  }

  common::ShmChannel& up = shared.to_coord[shard];
  common::ShmChannel& down = shared.from_coord[shard];

  // Thread-level split of the band, same policy as the parallel
  // backend's pool split.  Boundaries are not snapped to gather-plan
  // segments (that helper requires full-matrix coverage); per-row
  // arithmetic is partition-independent, so this only costs partial
  // SIMD groups at lane edges, never a bit of the result.
  const GatherShardPlan inner =
      plan_gather_shards(cached.row_entry_counts, band.nonzeros, r0,
                         band.row_end, shared.inner_lanes);
  std::unique_ptr<common::ThreadPool> pool;
  if (inner.use_pool) {
    pool = std::make_unique<common::ThreadPool>(shared.inner_lanes);
  }
  const std::vector<std::size_t>& ranges = inner.ranges;
  const std::size_t lane_shards = ranges.size() - 1;
  std::vector<double> lane_deltas(lane_shards, 0.0);

  // Full-dimension scratch: the gather reads power[] across the band's
  // column footprint, so the vectors keep loop dimension; only the band
  // and the subscribed halo spans are ever current, the rest is inert.
  std::vector<double> current = shared.initial_compact;
  std::vector<double> power(n_rows, 0.0);
  std::vector<double> next(n_rows, 0.0);
  std::vector<double> accum(n_rows, 0.0);
  std::vector<double> chunk_dropped(markov::drop_chunk_count(n_rows), 0.0);
  // The slice frame: the band of pi(t_k), then its chunks' dropped mass.
  std::vector<double> slice(band_rows + chunks.count, 0.0);

  markov::UniformizationPlan windows;
  common::ShmFrame frame;
  std::uint64_t halo_wait_ns = 0;
  std::uint64_t halo_bytes = 0;

  const auto send_halos = [&] {
    for (const WorkerSpan& w : sends) {
      const std::size_t bytes = (w.end - w.begin) * sizeof(double);
      shared.halo[w.channel].send(kFrameHalo, power.data() + w.begin, bytes);
      halo_bytes += bytes;
    }
  };
  const auto recv_halos = [&] {
    if (recvs.empty()) return;
    const auto start = std::chrono::steady_clock::now();
    for (const WorkerSpan& w : recvs) {
      expect_worker_frame(shared.halo[w.channel], frame, kFrameHalo,
                          (w.end - w.begin) * sizeof(double));
      std::memcpy(power.data() + w.begin, frame.payload.data(),
                  frame.payload.size());
    }
    halo_wait_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  const auto fused_range = [&](std::size_t begin, std::size_t end,
                               double weight) {
    return cached.multiply_fused_range(power, next, accum, weight, begin, end);
  };

  const std::vector<double>& times = *shared.times;
  double current_time = 0.0;
  for (std::size_t idx = 0; idx < times.size(); ++idx) {
    const double dt = times[idx] - current_time;
    if (dt > 0.0) {
      const double lambda = shared.rate * dt;
      const std::shared_ptr<const markov::PoissonWindow> window_ptr =
          windows.window(lambda, options.epsilon);
      const markov::PoissonWindow& window = *window_ptr;
      const double threshold =
          markov::drop_threshold(options.epsilon, window.right, n_rows);
      linalg::fill(accum, 0.0);
      linalg::fill(chunk_dropped, 0.0);
      std::copy(current.begin(), current.end(), power.begin());
      // Refresh the footprint before the first product: after a
      // renormalised increment only the band of `current` is live here,
      // the owners hold the rest.
      send_halos();
      recv_halos();
      if (window.left == 0) {
        linalg::kernels::axpy(window.weight(0), current.data() + r0,
                              accum.data() + r0, band_rows);
      }
      for (std::uint64_t n = 1; n <= window.right; ++n) {
        const double weight = n >= window.left ? window.weight(n) : 0.0;
        double delta = 0.0;
        if (inner.use_pool) {
          pool->parallel_for(lane_shards,
                             [&](std::size_t lane_shard, std::size_t) {
                               lane_deltas[lane_shard] =
                                   fused_range(ranges[lane_shard],
                                               ranges[lane_shard + 1], weight);
                             });
          for (const double lane_delta : lane_deltas) {
            delta = std::max(delta, lane_delta);
          }
        } else {
          delta = fused_range(r0, band.row_end, weight);
        }
        power.swap(next);
        // Drop before the halos leave, so peers read post-drop rows.
        markov::drop_cold_chunks(power.data(), n_rows, chunks.first,
                                 chunks.first + chunks.count, threshold,
                                 chunk_dropped.data(), nullptr);
        if (n < window.right) {
          // Sends strictly precede receives and every ring holds two
          // full frames, so the per-step neighbour exchange cannot
          // deadlock (peers drift by at most one step).
          send_halos();
          if (shared.detect) {
            up.send(kFrameDelta, &delta, sizeof(delta));
          }
          recv_halos();
          if (shared.detect) {
            expect_worker_frame(down, frame, kFrameVerdict,
                                sizeof(VerdictPayload));
            VerdictPayload verdict;
            std::memcpy(&verdict, frame.payload.data(), sizeof(verdict));
            if (verdict.stop != 0) {
              if (verdict.residual > 0.0) {
                linalg::kernels::axpy(verdict.residual, power.data() + r0,
                                      accum.data() + r0, band_rows);
              }
              break;
            }
          }
        }
      }
      current.swap(accum);
      std::copy_n(current.begin() + static_cast<std::ptrdiff_t>(r0),
                  band_rows, slice.begin());
      std::copy_n(
          chunk_dropped.begin() + static_cast<std::ptrdiff_t>(chunks.first),
          chunks.count, slice.begin() + static_cast<std::ptrdiff_t>(band_rows));
      up.send(kFrameSlice, slice.data(), slice.size() * sizeof(double));
      if (options.renormalize) {
        // The coordinator sums the assembled vector (serial Kahan, same
        // order as normalize_probability) and broadcasts one factor;
        // scaling is elementwise, so band-local application is bitwise
        // identical to whole-vector scaling.
        expect_worker_frame(down, frame, kFrameScale, sizeof(double));
        double alpha = 0.0;
        std::memcpy(&alpha, frame.payload.data(), sizeof(alpha));
        linalg::kernels::scale(current.data() + r0, alpha, band_rows);
      }
      current_time = times[idx];
    }
  }
  const StatsPayload stats{halo_wait_ns, halo_bytes};
  up.send(kFrameStats, &stats, sizeof(stats));
}

[[noreturn]] void worker_main(SharedSetup& shared, std::size_t shard) {
  try {
    run_worker(shared, shard);
  } catch (const std::exception& error) {
    // Best effort: the coordinator also notices the death through its
    // waitpid alive-poll if this frame cannot be delivered.
    const char* what = error.what();
    try {
      shared.to_coord[shard].send(kFrameError, what, std::strlen(what),
                                  nullptr, std::uint64_t{1000000000});
    } catch (const Error&) {
      // ring wedged or peer gone; exit status carries the failure
    }
    ::_exit(2);
  }
  // _exit, never exit(): the child inherited the parent's atexit chain
  // and static destructors, which must run exactly once, in the parent.
  ::_exit(0);
}

/// The coordinator's step executor: workers run every step on their own
/// bands, so the driver's vector operations become frames.  A step
/// gathers the band deltas (when the driver wants one) and leaves a
/// "continue" verdict pending, sent before the next step -- unless the
/// driver folds instead, which sends "stop" with the residual tail mass.
/// Workers never decide anything themselves.
class Coordinator final : public markov::StepExecutor {
 public:
  Coordinator(SharedSetup& shared, std::vector<WorkerProc>& workers)
      : shared_(shared),
        workers_(workers),
        chunk_dropped_(markov::drop_chunk_count(shared.cached->rows()), 0.0) {}

  // Workers reload their own bands of pi(t_k), add the n = 0 term and
  // derive the same drop threshold from their own windows.
  void load(const std::vector<double>& /*current*/, double /*weight0*/,
            double /*drop_threshold*/) override {
    rows_iterated_ = 0;
  }

  double step(double /*weight*/, bool want_delta) override {
    rows_iterated_ += shared_.cached->rows();
    flush_verdict();
    if (!want_delta) return 0.0;
    double delta = 0.0;
    for (std::size_t s = 0; s < workers_.size(); ++s) {
      recv_from(s, kFrameDelta, sizeof(double));
      double band_delta = 0.0;
      std::memcpy(&band_delta, frame_.payload.data(), sizeof(band_delta));
      delta = std::max(delta, band_delta);
    }
    verdict_pending_ = true;
    return delta;
  }

  void fold(double residual) override {
    const VerdictPayload verdict{residual, 1, 0};
    broadcast(kFrameVerdict, &verdict, sizeof(verdict));
    verdict_pending_ = false;
  }

  void read_back(std::vector<double>& current) override {
    flush_verdict();
    for (std::size_t s = 0; s < workers_.size(); ++s) {
      const linalg::ShardBand& band = shared_.shard_plan->bands()[s];
      const BandChunks chunks = band_chunks(band);
      recv_from(s, kFrameSlice, (band.rows() + chunks.count) * sizeof(double));
      const std::size_t band_bytes = band.rows() * sizeof(double);
      std::memcpy(current.data() + band.row_begin, frame_.payload.data(),
                  band_bytes);
      std::memcpy(chunk_dropped_.data() + chunks.first,
                  frame_.payload.data() + band_bytes,
                  chunks.count * sizeof(double));
    }
  }

  IncrementWork increment_work() const override {
    IncrementWork work;
    work.rows_iterated = rows_iterated_;
    for (const double chunk : chunk_dropped_) work.dropped_mass += chunk;
    return work;
  }

  // Scaling is elementwise, so band-local application on the workers is
  // bitwise identical to the driver's whole-vector scaling.
  void scale(double alpha) override {
    broadcast(kFrameScale, &alpha, sizeof(alpha));
  }

  /// Receives every worker's end-of-solve stats frame; returns the summed
  /// halo wait.
  std::uint64_t collect_halo_wait_ns() {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < workers_.size(); ++s) {
      recv_from(s, kFrameStats, sizeof(StatsPayload));
      StatsPayload worker_stats;
      std::memcpy(&worker_stats, frame_.payload.data(), sizeof(worker_stats));
      total += worker_stats.halo_wait_ns;
    }
    return total;
  }

 private:
  void flush_verdict() {
    if (!verdict_pending_) return;
    const VerdictPayload verdict;
    broadcast(kFrameVerdict, &verdict, sizeof(verdict));
    verdict_pending_ = false;
  }

  // Every coordinator wait polls the *whole fleet*, not just its own peer:
  // a crashed worker deadlocks its halo neighbours (they block on a halo
  // frame that will never come), and the frame the coordinator is waiting
  // for may be stalled on one of those still-alive-but-wedged channels.
  // Only abnormal deaths abort the wait -- a worker exiting 0 has already
  // put its last frame in the ring.
  bool fleet_healthy() {
    for (WorkerProc& worker : workers_) {
      if (worker_failed(worker)) return false;
    }
    return true;
  }

  // Names the first crashed worker (the root cause) rather than the
  // channel the coordinator happened to be waiting on.
  [[noreturn]] void rethrow_naming_dead_worker(std::size_t s,
                                               const IpcError& error) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (worker_failed(workers_[w])) {
        throw IpcError("sharded worker " + std::to_string(w) +
                       " died mid-solve: " + error.what());
      }
    }
    throw IpcError("sharded worker " + std::to_string(s) + ": " +
                   error.what());
  }

  void recv_from(std::size_t s, std::uint32_t want,
                 std::size_t payload_bytes) {
    try {
      shared_.to_coord[s].recv(frame_, [this] { return fleet_healthy(); });
    } catch (const IpcError& error) {
      rethrow_naming_dead_worker(s, error);
    }
    if (frame_.type == kFrameError) {
      throw IpcError("sharded worker " + std::to_string(s) + " failed: " +
                     std::string(reinterpret_cast<const char*>(
                                     frame_.payload.data()),
                                 frame_.payload.size()));
    }
    if (frame_.type != want || frame_.payload.size() != payload_bytes) {
      throw IpcError("sharded worker " + std::to_string(s) +
                     ": unexpected frame type " + std::to_string(frame_.type));
    }
  }

  void broadcast(std::uint32_t type, const void* payload, std::size_t bytes) {
    for (std::size_t s = 0; s < workers_.size(); ++s) {
      try {
        shared_.from_coord[s].send(type, payload, bytes,
                                   [this] { return fleet_healthy(); });
      } catch (const IpcError& error) {
        rethrow_naming_dead_worker(s, error);
      }
    }
  }

  SharedSetup& shared_;
  std::vector<WorkerProc>& workers_;
  common::ShmFrame frame_;
  bool verdict_pending_ = false;
  // Every chunk's dropped mass over the increment, assembled from the
  // slice frames; summed in chunk order like the in-process executors.
  std::vector<double> chunk_dropped_;
  std::uint64_t rows_iterated_ = 0;
};

}  // namespace

ShardedBackend::ShardedBackend(BackendOptions options)
    : options_(options),
      shards_(std::max<std::size_t>(std::size_t{1}, options.shards)),
      driver_(transient_options(options)) {}

std::vector<std::vector<double>> ShardedBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  markov::check_transient_arguments(chain, initial, times);
  const double rate = markov::UniformizationDriver::select_rate(chain);

  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] != 0.0) seeds.push_back(static_cast<std::uint32_t>(i));
  }
  // Setup is the same block the parallel backend runs (uniformise,
  // closure, compacted transpose, gather plan); through the batch-shared
  // cache a whole sweep of identical Q*-structures builds it once.
  const std::shared_ptr<const CachedGatherPlan> cached =
      options_.plan_cache
          ? options_.plan_cache->obtain(chain.generator(), rate, seeds)
          : build_cached_gather_plan(chain.generator(), rate, seeds);
  const std::size_t n_rows = cached->rows();

  const linalg::ShardPlan shard_plan = linalg::ShardPlan::build(
      cached->row_entry_counts, cached->row_col_lo, cached->row_col_hi,
      shards_, markov::kDropChunkRows);

  stats_ = BackendStats{};
  cached->describe(stats_);
  stats_.shards = shards_;
  stats_.halo_bytes_per_step = shard_plan.halo_bytes_per_step();
  stats_.shard_nnz_imbalance = shard_plan.nnz_imbalance();

  SharedSetup shared;
  shared.options = &options_;
  shared.cached = cached.get();
  shared.shard_plan = &shard_plan;
  shared.times = &times;
  shared.rate = rate;
  shared.detect = options_.steady_state_detection;
  // threads == 0 means one lane per worker, not auto-detect: N workers
  // each auto-sizing to the whole machine would oversubscribe it N-fold.
  shared.inner_lanes = options_.threads == 0 ? 1 : options_.threads;
  shared.initial_compact.resize(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) {
    shared.initial_compact[i] = initial[cached->reachable[i]];
  }

  // Rings sized so no well-formed frame ever blocks on capacity: the
  // worker->coordinator ring holds a full band slice, halo rings hold
  // two span frames (maximum in-flight under the one-step skew bound).
  std::size_t max_band_rows = 0;
  for (const linalg::ShardBand& band : shard_plan.bands()) {
    max_band_rows = std::max(max_band_rows, band.rows());
  }
  const std::size_t max_slice_doubles =
      max_band_rows + markov::drop_chunk_count(max_band_rows);
  const std::size_t up_capacity = std::max<std::size_t>(
      4096, common::kShmFrameHeaderBytes +
                max_slice_doubles * sizeof(double) + 64);
  shared.to_coord.reserve(shards_);
  shared.from_coord.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    shared.to_coord.push_back(common::ShmChannel::create(up_capacity));
    shared.from_coord.push_back(common::ShmChannel::create(4096));
  }
  shared.halo.reserve(shard_plan.halo_spans().size());
  for (const linalg::HaloSpan& span : shard_plan.halo_spans()) {
    shared.halo.push_back(common::ShmChannel::create(
        2 * (common::kShmFrameHeaderBytes + span.rows() * sizeof(double)) +
        64));
  }

  std::vector<WorkerProc> workers(shards_);
  WorkerReaper reaper(workers);
  for (std::size_t s = 0; s < shards_; ++s) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw IpcError(std::string("sharded backend: fork failed: ") +
                     std::strerror(errno));
    }
    if (pid == 0) {
      worker_main(shared, s);  // [[noreturn]]
    }
    workers[s].pid = pid;
  }

  // The coordinator runs the same driver as the parallel backend, so
  // iterations, the calm-step guard, the residual and the hits cannot
  // drift from it.  Workers recompute identical Fox-Glynn windows
  // locally, so only deltas and verdicts cross the channel per step.
  Coordinator coordinator(shared, workers);
  std::vector<std::vector<double>> results =
      driver_.run(coordinator, rate, cached->reachable, initial, times,
                  on_point, stats_);
  stats_.halo_wait_ns = coordinator.collect_halo_wait_ns();
  for (std::size_t s = 0; s < shards_; ++s) {
    WorkerProc& worker = workers[s];
    if (!worker.reaped) {
      ::waitpid(worker.pid, &worker.status, 0);
      worker.reaped = true;
    }
    if (!WIFEXITED(worker.status) || WEXITSTATUS(worker.status) != 0) {
      throw IpcError("sharded worker " + std::to_string(s) +
                     " exited abnormally");
    }
  }

  return results;
}

}  // namespace kibamrm::engine

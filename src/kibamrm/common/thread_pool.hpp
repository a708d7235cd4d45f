// A small persistent worker pool for data-parallel loops.
//
// The expanded battery chains are solved by long sequences of sparse
// matrix-vector products; each product splits into independent row ranges.
// ThreadPool keeps its workers alive across those products (a lifetime
// curve issues tens of thousands of them -- spawning threads per product
// would dominate the kernel) and lets the calling thread work too: a pool
// of size 1 degenerates to a plain inline loop with no synchronisation at
// all.
//
// Scheduling is lane-affine.  Every loop's index range is cut into one
// contiguous home block per lane; a lane drains its own block first and
// only then steals from the others in ring order.  Callers cut their
// shards into contiguous ascending ranges, so lane l meets the same rows
// of the matrix and vectors on every product and they stay in its core's
// L2 instead of moving between cores from step to step.  Stealing keeps
// the jitter absorption the callers' shard oversubscription exists for.
// Between jobs a lane spins briefly before parking, so back-to-back
// products skip the futex round trip.
//
// Users: the pool-sharded gather of engine/GatherExecutor (parallel and
// uniformization engines), the krylov engine's matvec and step combine,
// linalg::arnoldi's sharded sweeps and engine/ScenarioBatch (concurrent
// scenario solves with per-lane scratch).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "kibamrm/common/thread_annotations.hpp"

namespace kibamrm::common {

/// Fixed-size pool executing parallel index loops.  parallel_for() is
/// blocking and must not be called concurrently from multiple threads or
/// re-entered from inside a task.
class ThreadPool {
 public:
  /// `threads` = total execution lanes including the caller; 0 selects
  /// hardware_thread_count().  A pool of size n spawns n-1 workers.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution lanes (>= 1).
  std::size_t thread_count() const { return lanes_; }

  /// Runs task(index, lane) for every index in [0, count), blocking until
  /// all complete.  `lane` identifies the executing lane in [0,
  /// thread_count()) -- tasks key per-thread scratch off it; two tasks with
  /// the same lane never run concurrently.  [0, count) is split into
  /// thread_count() contiguous home blocks, block l = [l*count/lanes,
  /// (l+1)*count/lanes); lane l (the caller is lane 0) claims its own
  /// block in ascending order, then steals from the other blocks in ring
  /// order, so a caller that maps contiguous indices to contiguous data
  /// keeps each lane on the same data across calls while per-index cost
  /// may still vary freely.  The first exception thrown by a task is
  /// rethrown here after the loop drains; once one is thrown no lane
  /// claims further indices.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t index,
                                             std::size_t lane)>& task)
      KIBAMRM_EXCLUDES(mutex_);

  /// std::thread::hardware_concurrency() with a floor of 1.
  static std::size_t hardware_thread_count();

 private:
  static constexpr std::size_t kCacheLine = 64;

  /// One lane's home block of the current job: indices [next, end) are
  /// still unclaimed.  Padded to a cache line so a lane's claims never
  /// contend with its neighbours'.  Padded, not alignas: an over-aligned
  /// type sends the pool's allocations through aligned operator new, whose
  /// split-off chunks were measured to change how the caller's heap is
  /// reused (page faults on every chain construction after a krylov solve).
  struct HomeBlock {
    // KIBAMRM_LOCK_FREE: fetch_add(relaxed) hands out disjoint indices;
    // the job itself is published through generation_ and retired
    // through pending_, so nothing else is ordered through the cursor.
    std::atomic<std::size_t> next{0} KIBAMRM_LOCK_FREE(
        "disjoint index claims; job ordered by generation_/pending_");
    std::size_t end KIBAMRM_EXTERNALLY_SYNCHRONIZED(
        "written by the caller before the generation_ release, read "
        "by lanes after the acquire") = 0;
    char pad[kCacheLine - 2 * sizeof(std::size_t)];
  };

  void worker_loop(std::size_t lane) KIBAMRM_EXCLUDES(mutex_);
  /// Blocks until a job newer than `seen` is published (updating `seen`)
  /// or the pool stops (returns false).  Spins first when `spin`.
  bool await_job(std::uint64_t& seen, bool spin) KIBAMRM_EXCLUDES(mutex_);
  /// Claims and runs indices of the current job: home block first, then
  /// the other blocks in ring order.
  void run_lane(std::size_t lane);
  /// Retires a worker from the current job; the last one wakes a parked
  /// caller.
  void finish_lane() KIBAMRM_EXCLUDES(mutex_);
  /// Caller side: blocks until every worker has retired from the job.
  void await_workers() KIBAMRM_EXCLUDES(mutex_);
  /// Keeps the first failure of the job and stops all further claims.
  void record_failure(std::exception_ptr failure);

  const std::size_t lanes_;
  // Lanes spin between jobs only when each can own a hardware thread:
  // spinning an oversubscribed pool would steal time from working lanes.
  const bool spin_;
  std::vector<HomeBlock> blocks_;  // one per lane

  // The current job: set before the generation_ release that publishes
  // it, cleared only after pending_ has drained.
  const std::function<void(std::size_t, std::size_t)>* task_
      KIBAMRM_EXTERNALLY_SYNCHRONIZED(
          "published by generation_ release, retired by pending_") =
          nullptr;
  std::exception_ptr failure_ KIBAMRM_EXTERNALLY_SYNCHRONIZED(
      "written by the one lane that wins failed_.exchange, read by the "
      "caller after pending_ drains");

  // KIBAMRM_LOCK_FREE: the dispatch handshake.  generation_ bumps once
  // per job (release publishes task_ and the blocks; lanes acquire it).
  // A lane about to park increments parked_ and then re-reads
  // generation_ under mutex_; the caller bumps generation_ and then reads
  // parked_ -- all four seq_cst, so either the lane sees the new job or
  // the caller sees the parked lane and signals job_ready_ under mutex_.
  // stopping_ is set under mutex_ and polled by spinning lanes.
  std::atomic<std::uint64_t> generation_{0} KIBAMRM_LOCK_FREE(
      "job publication, seq_cst against parked_");
  std::atomic<std::size_t> parked_{0} KIBAMRM_LOCK_FREE(
      "lanes inside the job_ready_ wait, seq_cst against generation_");
  std::atomic<bool> stopping_{false} KIBAMRM_LOCK_FREE(
      "set under mutex_, polled while spinning");
  // KIBAMRM_LOCK_FREE: the retire handshake, mirror image of the above:
  // workers count pending_ down (release, seq_cst) and the last one
  // reads caller_parked_; the caller sets caller_parked_ and then re-reads
  // pending_ under mutex_ before waiting on job_done_.
  std::atomic<std::size_t> pending_{0} KIBAMRM_LOCK_FREE(
      "workers not yet retired from the job; release on retire");
  std::atomic<bool> caller_parked_{false} KIBAMRM_LOCK_FREE(
      "caller inside the job_done_ wait, seq_cst against pending_");
  std::atomic<bool> failed_{false} KIBAMRM_LOCK_FREE(
      "elects the first failure; read by the caller after pending_");

  // Parking only: no member is guarded by it, it just closes the window
  // between a lane's last check and its wait.
  Mutex mutex_;
  CondVar job_ready_;
  CondVar job_done_;

  // Last, so every member a worker touches outlives it.
  std::vector<std::thread> workers_;
};

}  // namespace kibamrm::common

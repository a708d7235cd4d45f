#include "kibamrm/common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "kibamrm/common/error.hpp"

namespace kibamrm::common {

namespace {

// How long an idle lane (or the waiting caller) spins before parking.
// Long enough to bridge the serial gap between two gather steps, short
// enough that lanes park through the krylov engine's serial phases
// instead of burning their CPU time.
constexpr std::chrono::microseconds kSpinBudget{50};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Polls done() with a pause hint until it holds (true) or kSpinBudget
/// elapses (false).
template <typename Done>
bool spin_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (;;) {
    for (int poll = 0; poll < 32; ++poll) {
      if (done()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return done();
  }
}

}  // namespace

std::size_t ThreadPool::hardware_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads)
    : lanes_(threads == 0 ? hardware_thread_count() : threads),
      spin_(lanes_ <= hardware_thread_count()),
      blocks_(lanes_) {
  workers_.reserve(lanes_ - 1);
  // Lane 0 is the calling thread; workers take lanes 1..n-1.
  for (std::size_t lane = 1; lane < lanes_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_.store(true, std::memory_order_seq_cst);
    job_ready_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::record_failure(std::exception_ptr failure) {
  if (!failed_.exchange(true, std::memory_order_relaxed)) {
    failure_ = std::move(failure);
  }
  // Stop claiming further work; indices already claimed elsewhere still
  // finish, which keeps the join well-defined.
  for (HomeBlock& block : blocks_) {
    block.next.store(block.end, std::memory_order_relaxed);
  }
}

void ThreadPool::run_lane(std::size_t lane) {
  const std::function<void(std::size_t, std::size_t)>& task = *task_;
  for (std::size_t hop = 0; hop < lanes_; ++hop) {
    HomeBlock& block = blocks_[(lane + hop) % lanes_];
    // A plain load first: stealing from an exhausted block must not pull
    // its cache line away from the owner with a failed fetch_add.
    if (hop != 0 &&
        block.next.load(std::memory_order_relaxed) >= block.end) {
      continue;
    }
    for (;;) {
      const std::size_t index =
          block.next.fetch_add(1, std::memory_order_relaxed);
      if (index >= block.end) break;
      try {
        task(index, lane);
      } catch (...) {
        record_failure(std::current_exception());
      }
    }
  }
}

bool ThreadPool::await_job(std::uint64_t& seen, bool spin) {
  const auto published = [&] {
    return stopping_.load(std::memory_order_acquire) ||
           generation_.load(std::memory_order_acquire) != seen;
  };
  if (!(spin && spin_until(published))) {
    MutexLock lock(mutex_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    while (!stopping_.load(std::memory_order_seq_cst) &&
           generation_.load(std::memory_order_seq_cst) == seen) {
      job_ready_.wait(mutex_);
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (stopping_.load(std::memory_order_acquire)) return false;
  seen = generation_.load(std::memory_order_acquire);
  return true;
}

void ThreadPool::finish_lane() {
  if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      caller_parked_.load(std::memory_order_seq_cst)) {
    MutexLock lock(mutex_);
    job_done_.notify_one();
  }
}

void ThreadPool::await_workers() {
  const auto drained = [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (spin_ && spin_until(drained)) return;
  MutexLock lock(mutex_);
  caller_parked_.store(true, std::memory_order_seq_cst);
  while (pending_.load(std::memory_order_seq_cst) != 0) {
    job_done_.wait(mutex_);
  }
  caller_parked_.store(false, std::memory_order_relaxed);
}

void ThreadPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  // A lane never spins before its first job: a pool that is built but
  // not yet used costs no CPU time.
  bool spin = false;
  while (await_job(seen, spin)) {
    run_lane(lane);
    finish_lane();
    spin = spin_;
  }
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& task) {
  KIBAMRM_REQUIRE(static_cast<bool>(task), "parallel_for task must be set");
  if (count == 0) return;
  if (lanes_ == 1 || count == 1) {
    // No pool involvement: zero synchronisation and exceptions propagate
    // directly, so a 1-lane pool behaves exactly like a plain loop.
    for (std::size_t index = 0; index < count; ++index) task(index, 0);
    return;
  }
  // Every worker retired from the previous job (await_workers), so the
  // job state is ours to rewrite until the release below.
  task_ = &task;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    blocks_[lane].next.store(lane * count / lanes_,
                             std::memory_order_relaxed);
    blocks_[lane].end = (lane + 1) * count / lanes_;
  }
  failed_.store(false, std::memory_order_relaxed);
  pending_.store(workers_.size(), std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    MutexLock lock(mutex_);
    job_ready_.notify_all();
  }
  run_lane(0);  // the caller participates as lane 0
  await_workers();
  task_ = nullptr;
  if (failed_.load(std::memory_order_relaxed)) {
    std::rethrow_exception(std::exchange(failure_, nullptr));
  }
}

}  // namespace kibamrm::common

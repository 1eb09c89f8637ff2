#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>


namespace xtalk::util {

namespace {

/// Marks the pool non-quiescent for the duration of a dispatch, so
/// timing_total()/reset_timing() can enforce their call-point contract.
struct DispatchGuard {
  explicit DispatchGuard(std::atomic<bool>& flag) : flag_(flag) {
    flag_.store(true, std::memory_order_release);
  }
  ~DispatchGuard() { flag_.store(false, std::memory_order_release); }
  std::atomic<bool>& flag_;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  wait_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  exit_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t t = 0; t < n; ++t) {
    busy_ns_[t].store(0, std::memory_order_relaxed);
    wait_ns_[t].store(0, std::memory_order_relaxed);
    exit_ns_[t].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(n - 1);
  for (std::size_t t = 1; t < n; ++t) {
    workers_.emplace_back([this, t] { worker_main(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::resolve_threads(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::require_quiescent(const char* what) const {
  if (in_dispatch_.load(std::memory_order_acquire)) {
    throw std::logic_error(std::string("ThreadPool::") + what +
                           " called while a loop is in flight; the timing "
                           "slots are only stable on a quiescent pool");
  }
}

ThreadPool::Timing ThreadPool::timing_total() const {
  require_quiescent("timing_total");
  Timing t;
  const std::size_t n = num_threads();
  for (std::size_t i = 0; i < n; ++i) {
    t.busy_ns += busy_ns_[i].load(std::memory_order_relaxed);
    t.wait_ns += wait_ns_[i].load(std::memory_order_relaxed);
  }
  t.loops = loops_.load(std::memory_order_relaxed);
  return t;
}

void ThreadPool::reset_timing() {
  require_quiescent("reset_timing");
  const std::size_t n = num_threads();
  for (std::size_t i = 0; i < n; ++i) {
    busy_ns_[i].store(0, std::memory_order_relaxed);
    wait_ns_[i].store(0, std::memory_order_relaxed);
  }
  loops_.store(0, std::memory_order_relaxed);
}

void ThreadPool::run_loop(std::size_t thread_id) {
  const bool timed = timing_enabled_.load(std::memory_order_relaxed);
  std::uint64_t t_enter = 0;
  if (timed) {
    t_enter = monotonic_ns();
    const std::uint64_t dispatched =
        dispatch_ns_.load(std::memory_order_relaxed);
    if (t_enter > dispatched) {
      wait_ns_[thread_id].fetch_add(t_enter - dispatched,
                                    std::memory_order_relaxed);
    }
  }
  const LoopFn& fn = *fn_;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end_) break;
    try {
      fn(i, thread_id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
  if (timed) {
    const std::uint64_t t_exit = monotonic_ns();
    busy_ns_[thread_id].fetch_add(t_exit - t_enter,
                                  std::memory_order_relaxed);
    // The caller turns the gap from here to loop end into barrier wait.
    exit_ns_[thread_id].store(t_exit, std::memory_order_relaxed);
  }
}

void ThreadPool::worker_main(std::size_t thread_id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    run_loop(thread_id);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_running_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const LoopFn& fn) {
  if (begin >= end) return;
  DispatchGuard in_dispatch(in_dispatch_);
  const bool timed = timing_enabled_.load(std::memory_order_relaxed);
  if (timed) {
    loops_.fetch_add(1, std::memory_order_relaxed);
    dispatch_ns_.store(monotonic_ns(), std::memory_order_relaxed);
  }
  if (workers_.empty()) {
    const std::uint64_t t_enter = timed ? monotonic_ns() : 0;
    for (std::size_t i = begin; i < end; ++i) fn(i, 0);
    if (timed) {
      busy_ns_[0].fetch_add(monotonic_ns() - t_enter,
                            std::memory_order_relaxed);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    end_ = end;
    next_.store(begin, std::memory_order_relaxed);
    workers_running_ = workers_.size();
    first_error_ = nullptr;
    if (timed) {
      for (std::size_t t = 0; t < num_threads(); ++t) {
        exit_ns_[t].store(0, std::memory_order_relaxed);
      }
    }
    ++generation_;
  }
  start_cv_.notify_all();
  run_loop(0);  // the caller is thread 0
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return workers_running_ == 0; });
  if (timed) {
    // Barrier wait: every participant is done (their exit_ns_ stores
    // happen-before the workers_running_ decrement we just observed), so
    // the gap from each thread's exit to now is time it idled at the
    // barrier waiting for the slowest thread.
    const std::uint64_t loop_end = monotonic_ns();
    for (std::size_t t = 0; t < num_threads(); ++t) {
      const std::uint64_t e = exit_ns_[t].load(std::memory_order_relaxed);
      if (e != 0 && loop_end > e) {
        wait_ns_[t].fetch_add(loop_end - e, std::memory_order_relaxed);
      }
    }
  }
  fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace xtalk::util

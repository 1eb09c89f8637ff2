// A small persistent worker pool with one dispatch mode: parallel_for().
//
// The STA engine processes one topological level at a time; inside a level
// every gate is independent (each writes only its own output net), so the
// natural execution model is a parallel-for with a barrier between levels
// (Galois' "TopoBarrier" schedule).
//
// The pool keeps its workers alive across levels and passes — spawning
// threads per loop would dominate the runtime of small levels.
//
// No external dependencies: plain std::thread + mutex/condvar dispatch with
// an atomic index counter for dynamic load balancing. Work is handed out as
// indices, so the *content* of the computation never depends on which
// worker executes it — determinism is the caller's contract (see
// sta/engine.cpp's pass-anchored coupling classification).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xtalk::util {

/// Monotonic timestamp in nanoseconds (steady clock; never goes backwards).
/// The pool's busy/wait timing and the metrics registry's walls read it.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class ThreadPool {
 public:
  /// Worker callback: fn(index, thread_id). `index` walks [begin, end) of
  /// the current loop; `thread_id` is in [0, num_threads()) and stable for
  /// the duration of one loop (use it to index per-thread scratch).
  using LoopFn = std::function<void(std::size_t, std::size_t)>;

  /// Spawns `num_threads - 1` workers; the calling thread participates as
  /// thread 0. `num_threads` is clamped to at least 1.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Run fn(i, thread_id) for every i in [begin, end), blocking until all
  /// iterations finished. Exceptions thrown by fn are captured and the
  /// first one is rethrown on the calling thread after the barrier. Every
  /// index runs: the engine's budget is checked between loops, never
  /// inside one, so a loop that starts also finishes.
  void parallel_for(std::size_t begin, std::size_t end, const LoopFn& fn);

  /// Map a user-facing thread-count request to an actual count:
  /// 0 = std::thread::hardware_concurrency(), otherwise the value itself
  /// (minimum 1).
  static std::size_t resolve_threads(int requested);

  /// Busy/wait accounting for the trace/metrics layer. `busy_ns` is time
  /// spent executing loop bodies (claiming indices and running fn);
  /// `wait_ns` is time a participating thread was idle while a loop was in
  /// flight: dispatch latency from the hand-off to the thread entering its
  /// loop, and barrier wait from a thread finishing its share of a
  /// parallel_for until the whole loop ends. Measurements, not
  /// deterministic quantities.
  struct Timing {
    std::uint64_t busy_ns = 0;
    std::uint64_t wait_ns = 0;
    std::uint64_t loops = 0;  ///< parallel_for invocations
  };

  /// Off by default; when off, the only cost per loop is one relaxed load
  /// per participating thread. Flip only while no loop is in flight.
  void set_timing_enabled(bool enabled) {
    timing_enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Totals across threads. Only legal on a quiescent pool (no loop in
  /// flight): the per-thread slots are written with relaxed ops by workers,
  /// so reading them mid-loop would race and tear the numbers. Enforced:
  /// throws std::logic_error when called while a loop is running.
  Timing timing_total() const;
  /// Zero the totals. Same quiescence contract as timing_total().
  void reset_timing();

 private:
  void worker_main(std::size_t thread_id);
  void run_loop(std::size_t thread_id);
  void require_quiescent(const char* what) const;

  std::vector<std::thread> workers_;

  // Per-thread timing slots (index == thread id), allocated once in the
  // constructor so the hot path never touches the allocator.
  std::atomic<bool> timing_enabled_{false};
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> wait_ns_;
  /// Time each thread left its share of the current parallel_for; the
  /// caller turns the gap to loop end into barrier wait.
  std::unique_ptr<std::atomic<std::uint64_t>[]> exit_ns_;
  std::atomic<std::uint64_t> loops_{0};
  std::atomic<std::uint64_t> dispatch_ns_{0};
  /// True while any loop is in flight (set/cleared by the calling thread);
  /// guards the quiescence contract of timing_total()/reset_timing().
  std::atomic<bool> in_dispatch_{false};

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  std::uint64_t generation_ = 0;  ///< bumped once per dispatched loop

  // State of the loop in flight (valid while a generation is active).
  const LoopFn* fn_ = nullptr;
  std::size_t end_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t workers_running_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace xtalk::util

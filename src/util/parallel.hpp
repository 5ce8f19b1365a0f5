#pragma once
// Work-stealing thread pool and parallel_for.
//
// The pool is the single threading primitive for every hot path in the
// flow (assignment cost matrix, cost-driven deviation evaluation, placer
// QP solves, ring exploration). It is sized once from ROTCLK_THREADS
// (default: hardware_concurrency) and shared process-wide so nested
// parallel regions cannot oversubscribe the machine.
//
//   util::parallel_for(n, [&](std::size_t i) { out[i] = f(i); });
//
// Scheduling: the index range [0, count) is split into one contiguous
// range per participant; the caller participates, and any participant
// that exhausts its range steals chunks from the largest remaining range.
// Chunk claims are serialized by a mutex, so the schedule is dynamic, but
// every index is executed exactly once by exactly one thread.
//
// Determinism contract: parallel_for itself imposes no ordering, so a
// body must write only state disjoint per index (or reduce with
// order-independent operations such as min/max). Under that contract the
// result is bit-identical for every thread count, including 1 — all
// callers in this repo obey it, and tests/test_determinism.cpp pins the
// full flow to that guarantee.
//
// Error contract: a body exception does not abort the loop; every index
// is still attempted, and after the loop joins, the exception thrown at
// the *smallest failing index* is surfaced (so the error a caller sees is
// independent of thread schedule). rotclk::Error subclasses propagate
// unchanged; anything else is wrapped in InternalError("parallel", ...).
// Worker chunks pass through the fault-injection site "parallel.worker".
//
// Nesting is safe: a body may call parallel_for again; the nested caller
// drains its own loop (helped by any idle workers) and the wait-for graph
// stays acyclic, so there is no deadlock at any pool size including 1.
//
// Lifetime invariant: each parallel_for keeps its Loop on the owner's
// stack. A worker claims its chunk in the same mu_ hold that finds the
// loop in loops_, and a claimed chunk keeps loop.pending > 0 until
// run_chunk accounts for it, so the owner (which returns only once
// pending == 0) cannot destroy the Loop while any participant still
// touches it. Never find a loop under the lock and claim from it after
// re-locking: in that window the owner may already have returned.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace rotclk::util {

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] int hardware_threads();

/// Strict ROTCLK_THREADS value parser (std::from_chars over the whole
/// string; no leading '+', whitespace, or trailing text). Returns the
/// count clamped to the documented maximum of 1024 — a value above it
/// (including one that overflows the integer parse) is treated as "as
/// many as allowed", not an error. Returns nullopt for everything that
/// is not a positive integer: empty text, garbage, trailing junk, zero,
/// and negatives.
[[nodiscard]] std::optional<int> parse_thread_count(std::string_view text);

/// Thread count from ROTCLK_THREADS via parse_thread_count. Unset or
/// empty falls back to hardware_threads() silently; a set-but-rejected
/// value (garbage, zero, negative) falls back too but logs a warning so
/// a typo never silently serializes — or oversubscribes — the process.
[[nodiscard]] int configured_threads();

class ThreadPool {
 public:
  /// Total concurrency including the calling thread: `threads - 1`
  /// workers are spawned. threads < 1 is clamped to 1 (no workers; every
  /// parallel_for runs inline on the caller).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Run body(i) for every i in [0, count), blocking until all indices
  /// finished. `grain` is the steal-chunk size (0 = auto). `max_workers`
  /// > 0 caps the number of threads concurrently inside this loop
  /// (including the caller) without resizing the pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0, int max_workers = 0);

  /// The process-wide pool, created on first use with
  /// configured_threads().
  static ThreadPool& global();

  /// Replace the global pool with one of `threads` (<= 0: re-read
  /// ROTCLK_THREADS). Test hook — must not race active parallel_for
  /// calls on the old pool.
  static void set_global_threads(int threads);

 private:
  struct Loop;

  void worker_main();
  /// Claim the next chunk [lo, hi) of `loop`: marks the caller active and
  /// leaves the chunk counted in loop.pending until run_chunk accounts
  /// for it. Requires mu_ held. False when nothing is claimable.
  bool claim_locked(Loop& loop, std::size_t& lo, std::size_t& hi);
  /// The owner's path: claim one chunk of `loop` and run it. False when
  /// nothing is claimable.
  bool help(Loop& loop);
  void run_chunk(Loop& loop, std::size_t lo, std::size_t hi);

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new loop published
  std::condition_variable done_cv_;   // callers: some loop completed
  std::vector<Loop*> loops_;          // active loops, oldest first
  bool stop_ = false;
};

/// parallel_for on the global pool (the form every call site uses).
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 0, int max_workers = 0);

}  // namespace rotclk::util

#include "util/parallel.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <system_error>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace rotclk::util {

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::optional<int> parse_thread_count(std::string_view text) {
  constexpr int kMaxThreads = 1024;
  int value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range)
    return text.front() == '-' ? std::nullopt
                               : std::optional<int>(kMaxThreads);
  if (ec != std::errc{} || ptr != last || value < 1) return std::nullopt;
  return std::min(value, kMaxThreads);
}

int configured_threads() {
  const char* env = std::getenv("ROTCLK_THREADS");
  if (env == nullptr || *env == '\0') return hardware_threads();
  if (const std::optional<int> parsed = parse_thread_count(env))
    return *parsed;
  warn("parallel: ignoring malformed ROTCLK_THREADS='", env,
       "' (want a positive integer); using ", hardware_threads(),
       " hardware threads");
  return hardware_threads();
}

// One active parallel_for. All fields are guarded by the pool mutex
// except `body` and `grain`, which are immutable while the loop is live.
struct ThreadPool::Loop {
  struct Range {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t grain = 1;
  std::vector<Range> ranges;    // unclaimed indices
  std::size_t pending = 0;      // claimed-or-unclaimed indices remaining
  std::size_t active = 0;       // threads currently running a chunk
  std::size_t max_claimants = std::numeric_limits<std::size_t>::max();
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Claim in the same lock hold that found the loop: the claimed chunk
    // keeps loop.pending > 0, so the owner cannot return (and destroy its
    // stack Loop) until run_chunk has accounted for it.
    Loop* claimed = nullptr;
    std::size_t lo = 0, hi = 0;
    for (Loop* loop : loops_) {
      if (claim_locked(*loop, lo, hi)) {
        claimed = loop;
        break;
      }
    }
    if (claimed != nullptr) {
      lk.unlock();
      run_chunk(*claimed, lo, hi);
      lk.lock();
      continue;
    }
    if (stop_) return;
    work_cv_.wait(lk);
  }
}

bool ThreadPool::claim_locked(Loop& loop, std::size_t& lo, std::size_t& hi) {
  if (loop.ranges.empty() || loop.active >= loop.max_claimants) return false;
  // Steal from the largest remaining range.
  std::size_t best = 0;
  for (std::size_t r = 1; r < loop.ranges.size(); ++r)
    if (loop.ranges[r].hi - loop.ranges[r].lo >
        loop.ranges[best].hi - loop.ranges[best].lo)
      best = r;
  Loop::Range& range = loop.ranges[best];
  lo = range.lo;
  hi = std::min(range.lo + loop.grain, range.hi);
  range.lo = hi;
  if (range.lo == range.hi) {
    range = loop.ranges.back();
    loop.ranges.pop_back();
  }
  ++loop.active;
  return true;
}

bool ThreadPool::help(Loop& loop) {
  std::size_t lo = 0, hi = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!claim_locked(loop, lo, hi)) return false;
  }
  run_chunk(loop, lo, hi);
  return true;
}

void ThreadPool::run_chunk(Loop& loop, std::size_t lo, std::size_t hi) {
  std::size_t failed = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
  try {
    fault::point("parallel.worker");
    for (std::size_t i = lo; i < hi; ++i) {
      try {
        (*loop.body)(i);
      } catch (...) {
        // Keep attempting the remaining indices (see the header's error
        // contract); remember the first failure of this chunk.
        if (failed == std::numeric_limits<std::size_t>::max()) {
          failed = i;
          error = std::current_exception();
        }
      }
    }
  } catch (...) {  // fault::point fired: charge the whole chunk
    failed = lo;
    error = std::current_exception();
  }
  bool done = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (error && failed < loop.error_index) {
      loop.error_index = failed;
      loop.error = error;
    }
    --loop.active;
    loop.pending -= hi - lo;
    done = loop.pending == 0;
  }
  if (done) done_cv_.notify_all();
}

namespace {

[[noreturn]] void rethrow_typed(std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const Error&) {
    throw;  // already typed: propagate unchanged
  } catch (const std::exception& e) {
    throw InternalError("parallel",
                        std::string("worker task failed: ") + e.what());
  } catch (...) {
    throw InternalError("parallel",
                        "worker task failed with a non-standard exception");
  }
}

}  // namespace

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain, int max_workers) {
  if (count == 0) return;
  std::size_t participants = static_cast<std::size_t>(threads_);
  if (max_workers > 0)
    participants = std::min(participants, static_cast<std::size_t>(max_workers));
  if (grain == 0)
    grain = std::max<std::size_t>(1, count / (participants * 4));

  Loop loop;
  loop.body = &body;
  loop.grain = grain;
  loop.pending = count;
  loop.max_claimants = participants;

  // One contiguous range per participant (locality); stealing rebalances.
  const std::size_t splits =
      std::min(participants, (count + grain - 1) / grain);
  const std::size_t base = count / splits, extra = count % splits;
  std::size_t at = 0;
  for (std::size_t s = 0; s < splits; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    if (len > 0) loop.ranges.push_back({at, at + len});
    at += len;
  }

  if (participants > 1 && splits > 1) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      loops_.push_back(&loop);
    }
    work_cv_.notify_all();
    while (help(loop)) {
    }
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return loop.pending == 0; });
    loops_.erase(std::find(loops_.begin(), loops_.end(), &loop));
  } else {
    // Inline: same chunking, fault points, and error policy, one thread.
    while (!loop.ranges.empty()) {
      const Loop::Range range = loop.ranges.front();
      loop.ranges.erase(loop.ranges.begin());
      for (std::size_t at2 = range.lo; at2 < range.hi; at2 += grain) {
        ++loop.active;
        run_chunk(loop, at2, std::min(at2 + grain, range.hi));
      }
    }
  }
  if (loop.error) rethrow_typed(std::move(loop.error));
}

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(configured_threads());
  return *g_pool;
}

void ThreadPool::set_global_threads(int threads) {
  std::unique_ptr<ThreadPool> fresh = std::make_unique<ThreadPool>(
      threads <= 0 ? configured_threads() : threads);
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool = std::move(fresh);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain, int max_workers) {
  ThreadPool::global().parallel_for(count, body, grain, max_workers);
}

}  // namespace rotclk::util

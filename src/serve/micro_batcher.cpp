#include "serve/micro_batcher.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "serve/chaos.hpp"

namespace scwc::serve {

MicroBatcher::MicroBatcher(MicroBatcherConfig config, BatchRunner runner,
                           ExpiredHandler expired)
    : config_(config),
      runner_(std::move(runner)),
      expired_handler_(std::move(expired)) {
  SCWC_REQUIRE(config_.max_batch > 0, "MicroBatcher: max_batch must be > 0");
  SCWC_REQUIRE(config_.max_delay_s >= 0.0,
               "MicroBatcher: max_delay_s must be >= 0");
  SCWC_REQUIRE(static_cast<bool>(runner_),
               "MicroBatcher: a batch runner is required");
  auto& reg = obs::MetricsRegistry::global();
  obs_flush_idle_ = reg.counter("scwc_serve_batch_flush_idle_total");
  obs_flush_size_ = reg.counter("scwc_serve_batch_flush_size_total");
  obs_flush_deadline_ = reg.counter("scwc_serve_batch_flush_deadline_total");
  obs_queue_depth_ = reg.gauge("scwc_serve_batch_queue_depth");
  obs_batch_size_ = reg.histogram(
      "scwc_serve_batch_size",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  flusher_ = std::thread([this] { flusher_loop(); });
}

MicroBatcher::~MicroBatcher() { stop(); }

bool MicroBatcher::submit(BatchRequest&& request) {
  request.enqueued = std::chrono::steady_clock::now();
  {
    const scwc::LockGuard lock(mutex_);
    if (stop_) return false;
    pending_.push_back(std::move(request));
    obs_queue_depth_.set(static_cast<double>(pending_.size()));
  }
  cv_.notify_one();
  return true;
}

std::size_t MicroBatcher::pending() const {
  const scwc::LockGuard lock(mutex_);
  return pending_.size();
}

std::vector<BatchRequest> MicroBatcher::cut_batch_locked(
    std::chrono::steady_clock::time_point now,
    std::vector<BatchRequest>& expired) {
  std::vector<BatchRequest> batch;
  batch.reserve(std::min(config_.max_batch, pending_.size()));
  while (!pending_.empty() && batch.size() < config_.max_batch) {
    BatchRequest request = std::move(pending_.front());
    pending_.pop_front();
    if (expired_handler_ && request.deadline <= now) {
      expired.push_back(std::move(request));
    } else {
      batch.push_back(std::move(request));
    }
  }
  obs_queue_depth_.set(static_cast<double>(pending_.size()));
  obs_batch_size_.observe(static_cast<double>(batch.size()));
  return batch;
}

std::chrono::steady_clock::time_point MicroBatcher::min_deadline_locked()
    const {
  auto min = std::chrono::steady_clock::time_point::max();
  for (const BatchRequest& request : pending_) {
    min = std::min(min, request.deadline);
  }
  return min;
}

void BatchToken::release() noexcept {
  if (owner_ != nullptr) std::exchange(owner_, nullptr)->batch_done();
}

void MicroBatcher::batch_done() noexcept {
  const scwc::LockGuard lock(mutex_);
  // Only the last finishing batch changes what a waiter can do: the
  // flusher's idle rule and stop() both wait for zero. The notify happens
  // UNDER mutex_: stop()'s waiter re-acquires it before returning, so it
  // cannot see zero and let the owner destroy cv_ while notify_all() still
  // runs on this thread.
  if (--inflight_ == 0) cv_.notify_all();
}

void MicroBatcher::flusher_loop() {
  const auto max_delay = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.max_delay_s));
  scwc::LockGuard lock(mutex_);
  for (;;) {
    // Explicit wait loops (not the predicate overloads): clang's analysis
    // does not look inside predicate lambdas, this form it checks.
    while (!stop_ && pending_.empty()) cv_.wait(mutex_);
    if (pending_.empty()) return;  // stop_ with nothing left to drain
    // Cut at once when idle or full; while a batch executes, wait out the
    // remaining delay of the OLDEST request unless the batch fills, the
    // executing batch finishes, or stop comes first. wait_until re-checks
    // under the lock, so a submit racing the cut either makes this batch
    // or the next. The wait is also bounded by the earliest per-request
    // deadline so an expired request is shed promptly instead of riding a
    // late batch.
    const auto flush_at = std::min(pending_.front().enqueued + max_delay,
                                   min_deadline_locked());
    bool timed_out = false;
    while (!stop_ && !timed_out && inflight_ != 0 &&
           pending_.size() < config_.max_batch) {
      timed_out = cv_.wait_until(mutex_, flush_at) == std::cv_status::timeout;
    }
    if (!stop_) {
      if (pending_.size() >= config_.max_batch) {
        obs_flush_size_.inc();
      } else if (inflight_ == 0) {
        obs_flush_idle_.inc();
      } else {
        obs_flush_deadline_.inc();
      }
    }
    std::vector<BatchRequest> expired;
    std::vector<BatchRequest> batch =
        cut_batch_locked(std::chrono::steady_clock::now(), expired);
    BatchToken done;
    if (!batch.empty()) {
      ++inflight_;
      done = BatchToken(this);
    }
    lock.unlock();
    for (BatchRequest& request : expired) {
      expired_handler_(std::move(request));
    }
    if (config_.chaos != nullptr) config_.chaos->on_flusher_cut();
    if (!batch.empty()) runner_(std::move(batch), std::move(done));
    lock.lock();
    if (stop_ && pending_.empty()) return;
  }
}

void MicroBatcher::stop() {
  {
    const scwc::LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  // Serialise the join so concurrent stop() calls (destructor racing an
  // explicit stop) both return only after the flusher exited.
  {
    const scwc::LockGuard join_lock(join_mutex_);
    if (flusher_.joinable()) flusher_.join();
  }
  // Wait out batches the runner handed elsewhere (the service's pool).
  const scwc::LockGuard lock(mutex_);
  while (inflight_ != 0) cv_.wait(mutex_);
}

}  // namespace scwc::serve

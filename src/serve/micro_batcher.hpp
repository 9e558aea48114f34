// Work-conserving micro-batching of concurrent classification requests.
//
// Single-window inference wastes the matrix-shaped fast paths below it
// (one pipeline transform + one Classifier::predict per window). The
// MicroBatcher queues incoming requests and cuts them into batches under
// three rules:
//   * idle  — no batch the batcher cut is still executing: whatever is
//             queued leaves at once, so an idle service adds no wait;
//   * size  — the queue holds max_batch requests: a full batch leaves even
//             while another batch executes;
//   * delay — the oldest request has waited max_delay_s while a batch
//             executes (or a request's own deadline is due).
// While a batch executes, arrivals pile up and leave together the moment
// it finishes; under load the batcher therefore still fills whole batches,
// and max_batch / max_delay_s only bound the wait while busy.
//
// The batcher owns a dedicated flusher thread; batch execution itself is
// delegated to a BatchRunner callback installed by the owning service
// (which typically hops onto the shared ThreadPool through the
// AdmissionController). Each cut batch travels with a move-only BatchToken;
// the batch counts as executing until that token is destroyed, wherever
// the runner lets it go. Each request carries a promise; whatever happens —
// flush, shutdown, runner failure — the promise is fulfilled exactly once.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_types.hpp"

namespace scwc::serve {

class ChaosInjector;  // serve/chaos.hpp — optional fault injection hook

/// Flush caps (see the file header for the rules). No batch is larger than
/// max_batch; while a batch executes, no request waits longer than
/// max_delay_s for its batch to be cut.
struct MicroBatcherConfig {
  std::size_t max_batch = 64;   ///< flush immediately at this size
  double max_delay_s = 0.005;   ///< upper bound on the wait while busy
  /// Optional seeded fault injector (chaos testing only). When set, the
  /// flusher calls ChaosInjector::on_flusher_cut() after each batch cut,
  /// which may stall the flusher thread. Must outlive the batcher.
  ChaosInjector* chaos = nullptr;
};

/// One queued classification request.
struct BatchRequest {
  std::vector<double> window;  ///< row-major steps × sensors
  std::size_t steps = 0;
  std::size_t sensors = 0;
  /// Request-trace identity (service-stamped; see obs/request_trace.hpp).
  std::uint64_t trace_id = 0;
  std::int64_t job_id = -1;    ///< source job, -1 when unattributed
  bool trace_sampled = false;  ///< head-sampling verdict, fixed at submit
  /// Service submit entry (before admission); `enqueued` minus this is
  /// the admission phase.
  std::chrono::steady_clock::time_point submitted;
  std::chrono::steady_clock::time_point enqueued;
  /// Absolute deadline; time_point::max() (the default) means "none".
  /// Requests whose deadline passed while queued are cut out of the batch
  /// and handed to the expired handler instead of the runner.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::promise<ServeResult> promise;
};

class MicroBatcher;

/// Move-only receipt for one cut batch. The batcher counts the batch as
/// executing from the cut until this token is destroyed (or reassigned),
/// so every return path of a runner reports "done" without code of its
/// own: a synchronous runner that leaves the token alone reports on
/// return, an asynchronous one moves it into the task that finishes the
/// batch. A default-constructed token reports nothing.
class BatchToken {
 public:
  BatchToken() noexcept = default;
  BatchToken(BatchToken&& other) noexcept
      : owner_(std::exchange(other.owner_, nullptr)) {}
  BatchToken& operator=(BatchToken&& other) noexcept {
    if (this != &other) {
      release();
      owner_ = std::exchange(other.owner_, nullptr);
    }
    return *this;
  }
  BatchToken(const BatchToken&) = delete;
  BatchToken& operator=(const BatchToken&) = delete;
  ~BatchToken() { release(); }

 private:
  friend class MicroBatcher;
  explicit BatchToken(MicroBatcher* owner) noexcept : owner_(owner) {}
  void release() noexcept;

  MicroBatcher* owner_ = nullptr;
};

/// Coalesces submitted requests into batches under the idle/size/delay
/// rules of the file header.
class MicroBatcher {
 public:
  /// Receives the cut batch and must fulfil every request's promise. The
  /// batch counts as executing until `done` is destroyed.
  using BatchRunner =
      std::function<void(std::vector<BatchRequest>&&, BatchToken done)>;
  /// Receives one request whose deadline expired while queued and must
  /// fulfil its promise (typically with kDeadlineExceeded).
  using ExpiredHandler = std::function<void(BatchRequest&&)>;

  /// Starts the flusher thread. `runner` is called on the flusher thread,
  /// once per non-empty cut batch, never concurrently with itself. `expired`
  /// (when set) receives requests whose deadline passed while queued, also
  /// on the flusher thread; without it expired requests stay in the batch
  /// and the runner is expected to apply its own deadline policy. A cut
  /// made only of expired requests reaches no runner and never counts as
  /// executing.
  MicroBatcher(MicroBatcherConfig config, BatchRunner runner,
               ExpiredHandler expired = nullptr);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one request (stamping `enqueued`) and returns true, or
  /// returns false after stop() — the caller then fulfils the promise
  /// itself with a shutdown rejection.
  [[nodiscard]] bool submit(BatchRequest&& request);

  /// Requests currently queued (instantaneous; admission reads this).
  [[nodiscard]] std::size_t pending() const;

  /// Flushes every queued request, joins the flusher, then waits until
  /// every batch it cut has reported done. Idempotent. After stop()
  /// submit() returns false. Must not be called while holding a
  /// BatchToken of this batcher (it would wait on itself).
  void stop();

  [[nodiscard]] const MicroBatcherConfig& config() const noexcept {
    return config_;
  }

 private:
  friend class BatchToken;

  void flusher_loop();
  /// Called by BatchToken: one cut batch finished executing.
  void batch_done() noexcept;
  /// Cuts up to max_batch requests off the queue front.
  /// When an expired handler is installed, requests whose deadline ≤ now are
  /// diverted into `expired` (they do not count against max_batch).
  std::vector<BatchRequest> cut_batch_locked(
      std::chrono::steady_clock::time_point now,
      std::vector<BatchRequest>& expired) SCWC_REQUIRES(mutex_);
  /// Earliest pending deadline, or time_point::max().
  [[nodiscard]] std::chrono::steady_clock::time_point min_deadline_locked()
      const SCWC_REQUIRES(mutex_);

  const MicroBatcherConfig config_;
  const BatchRunner runner_;
  const ExpiredHandler expired_handler_;

  mutable Mutex mutex_{"serve.batcher.queue"};
  CondVar cv_;
  std::deque<BatchRequest> pending_ SCWC_GUARDED_BY(mutex_);
  bool stop_ SCWC_GUARDED_BY(mutex_) = false;
  // Cut batches whose BatchToken is still alive. The idle rule cuts only
  // at zero; stop() waits for zero.
  std::size_t inflight_ SCWC_GUARDED_BY(mutex_) = 0;
  // Serialises the join phase of stop(); distinct from mutex_ because the
  // flusher takes mutex_ while draining.
  Mutex join_mutex_{"serve.batcher.join"};
  std::thread flusher_ SCWC_GUARDED_BY(join_mutex_);

  obs::CounterHandle obs_flush_idle_;      ///< cut because nothing executed
  obs::CounterHandle obs_flush_size_;      ///< flushes triggered by max_batch
  obs::CounterHandle obs_flush_deadline_;  ///< flushes triggered by max_delay
  obs::GaugeHandle obs_queue_depth_;
  obs::HistogramHandle obs_batch_size_;
};

}  // namespace scwc::serve

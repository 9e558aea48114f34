// perfbench — the serving benchmark: verdict latency from due time,
// capacity, and per-layer cost, one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --worker-bin <scwc_worker> --out-dir <dir>
//
// Every workload sets the system up five times (the median is setup_s),
// computes a reference verdict for every input window, then runs four
// rounds of an open-loop Poisson phase (latency is timed from each
// request's due time) followed by a closed-loop capacity phase, checking
// every verdict. With --trace 1 the same rounds run with the benchmark's
// span log on, direct calls into robust, preprocess, ml and net are timed
// as spans, and the per-layer figures are read back from the spans. The
// last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "core/challenge.hpp"
#include "loadgen.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "robust/robust_window.hpp"
#include "serve/bundle_io.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "telemetry/corpus.hpp"

namespace perfbench {
namespace {

using namespace scwc;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

Clock::time_point at_s(double s) {
  return kEpoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
}

void progress(const std::string& line) {
  std::cout << "[perfbench " << std::fixed;
  std::cout.precision(2);
  std::cout << now_s() << "s] " << line << std::endl;
  std::cout.unsetf(std::ios::floatfield);
}

// ------------------------------------------------------------ workloads

enum class Path { kSubmit, kCluster };

struct Workload {
  std::string name;
  Path path = Path::kSubmit;
  double open_rate_wps = 0.0;      ///< offered windows per second
  std::size_t outstanding = 512;   ///< closed-loop windows in flight
  double deadline_s = 0.020;
  std::size_t workers = 0;
};

// Rates are fixed per workload (not derived at run time), at about 40 % of
// each configuration's closed-loop capacity on a 4-core Xeon VM, so that a
// host slowing down for a while does not push the open loop into overload.
std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "serve_cov") {
    w.open_rate_wps = 60000.0;
  } else if (name == "cluster_cov") {
    w.path = Path::kCluster;
    w.open_rate_wps = 15000.0;
    w.deadline_s = 0.050;
    w.workers = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_bin;
  std::string out_dir = ".";
};

// --------------------------------------------------------------- inputs

/// Distinct job ids the cluster path routes by.
constexpr std::size_t kJobs = 64;

/// What the system under test is fed, all generated from the seed.
struct Inputs {
  std::size_t steps = 0;
  std::size_t sensors = 0;
  std::vector<std::vector<double>> windows;
  /// Reference verdict of every window.
  std::vector<int> ref_label;
  std::vector<bool> ref_abstained;
};

telemetry::Corpus make_corpus(std::uint64_t seed) {
  telemetry::CorpusConfig config;
  config.jobs_per_class_scale = ScaleProfile::named("tiny").jobs_per_class;
  config.seed = seed;
  return telemetry::generate_corpus(config);
}

core::ChallengeConfig challenge_config(std::uint64_t seed) {
  return core::ChallengeConfig::from_profile(ScaleProfile::named("tiny"),
                                             seed);
}

/// Request windows: every window of the challenge dataset built from a
/// corpus drawn with the seed (the bundle is trained on a fixed corpus).
Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const std::uint64_t corpus_seed = 0x9e3779b97f4a7c15ULL * (seed + 1);
  const core::ChallengeConfig cfg = challenge_config(corpus_seed);
  const data::ChallengeDataset ds = core::build_challenge_dataset(
      make_corpus(corpus_seed), cfg, data::WindowPolicy::kRandom, 0);
  in.steps = ds.steps();
  in.sensors = ds.sensors();
  for (const data::Tensor3* x : {&ds.x_test, &ds.x_train}) {
    for (std::size_t i = 0; i < x->trials(); ++i) {
      const auto src = x->trial(i);
      in.windows.emplace_back(src.begin(), src.end());
    }
  }
  return in;
}

/// Reference verdicts: every input window through GuardedClassifier::
/// classify on the serving bundle, before any timing starts.
void compute_references(Inputs& in, const serve::ModelBundle& bundle) {
  for (const auto& window : in.windows) {
    const robust::GuardedPrediction p =
        bundle.guard().classify(window, in.steps, in.sensors);
    in.ref_label.push_back(p.label);
    in.ref_abstained.push_back(p.abstained);
  }
}

// ---------------------------------------------------------------- fleet

struct WorkerProc {
  pid_t pid = -1;
  std::string port_file;
};

WorkerProc spawn_worker(const std::string& bin, std::uint32_t shard,
                        const std::string& bundle_path,
                        const std::string& dir) {
  WorkerProc proc;
  proc.port_file = dir + "/shard" + std::to_string(shard) + ".port";
  std::filesystem::remove(proc.port_file);
  std::vector<std::string> args = {bin,         "--shard-id",
                                   std::to_string(shard), "--port",
                                   "0",         "--port-file",
                                   proc.port_file, "--bundle",
                                   bundle_path};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  proc.pid = ::fork();
  if (proc.pid == 0) {
    ::execv(bin.c_str(), argv.data());
    std::_Exit(127);
  }
  if (proc.pid < 0) throw std::runtime_error("fork failed");
  return proc;
}

std::uint16_t wait_for_port(WorkerProc& proc, double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    std::ifstream is(proc.port_file);
    int port = 0;
    if (is >> port && port > 0) return static_cast<std::uint16_t>(port);
    int status = 0;
    if (::waitpid(proc.pid, &status, WNOHANG) == proc.pid) {
      proc.pid = -1;
      throw std::runtime_error("worker exited before publishing its port");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("worker never published its port");
}

/// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double peak_rss_mb(const std::string& pid) {
  std::ifstream is("/proc/" + pid + "/status");
  std::string key;
  while (is >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(is, rest);
  }
  return 0.0;
}

void reap(WorkerProc& proc, double grace_s) {
  if (proc.pid < 0) return;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(grace_s));
  int status = 0;
  while (Clock::now() < deadline) {
    if (::waitpid(proc.pid, &status, WNOHANG) == proc.pid) {
      proc.pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(proc.pid, SIGKILL);
  ::waitpid(proc.pid, &status, 0);
  proc.pid = -1;
}

// --------------------------------------------------------------- system

/// Everything set-up builds: the bundle, and the service or the fleet.
struct System {
  std::shared_ptr<const serve::ModelBundle> bundle;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ClassificationService> service;
  std::unique_ptr<cluster::ShardRouter> router;
  std::vector<WorkerProc> workers;

  /// Peak RSS of the serving processes (this one plus every worker).
  double rss_peak_mb() const {
    double mb = peak_rss_mb("self");
    for (const WorkerProc& p : workers) {
      if (p.pid > 0) mb += peak_rss_mb(std::to_string(p.pid));
    }
    return mb;
  }

  void tear_down() {
    if (service) service->stop();
    service.reset();
    if (router) {
      router->shutdown_workers();
      for (WorkerProc& p : workers) reap(p, 5.0);
      router->stop();
    }
    for (WorkerProc& p : workers) reap(p, 0.0);
    workers.clear();
    router.reset();
  }

  ~System() { tear_down(); }
};

/// Trains the bundle on the fixed training corpus and stands the service
/// (or the fleet) up, ready for requests.
std::unique_ptr<System> set_up(const Workload& w, const Options& opt) {
  auto sys = std::make_unique<System>();
  const telemetry::Corpus corpus = make_corpus(2022);
  const core::ChallengeConfig cfg = challenge_config(31337);
  const data::ChallengeDataset ds = core::build_challenge_dataset(
      corpus, cfg, data::WindowPolicy::kRandom, 0);
  serve::RfBundleSpec spec;
  spec.version = "rf-cov";
  spec.pipeline = {preprocess::Reduction::kCovariance, 0};
  spec.forest.n_estimators = 100;
  sys->bundle = serve::train_rf_bundle(spec, ds.x_train, ds.y_train);

  if (w.path == Path::kCluster) {
    const std::string bundle_path = opt.out_dir + "/bundle.scwcbndl";
    serve::save_bundle_file(*sys->bundle, bundle_path);
    cluster::RouterConfig rc;
    rc.default_deadline_s = w.deadline_s;
    sys->router = std::make_unique<cluster::ShardRouter>(rc);
    for (std::size_t i = 0; i < w.workers; ++i) {
      sys->workers.push_back(spawn_worker(opt.worker_bin,
                                          static_cast<std::uint32_t>(i),
                                          bundle_path, opt.out_dir));
    }
    for (WorkerProc& p : sys->workers) {
      (void)sys->router->add_shard(wait_for_port(p, 30.0));
    }
    return sys;
  }
  sys->registry = std::make_unique<serve::ModelRegistry>();
  sys->registry->register_bundle(sys->bundle);
  serve::ServiceConfig sc;
  sc.assembler.window_steps = ds.steps();
  sc.assembler.sensors = ds.sensors();
  sc.batcher.max_batch = 64;
  sc.batcher.max_delay_s = w.deadline_s / 4.0;
  sc.admission.max_pending = 4096;
  sc.default_deadline_s = w.deadline_s;
  sys->service = std::make_unique<serve::ClassificationService>(*sys->registry, sc);
  return sys;
}

// -------------------------------------------------------------- targets

/// One generator call: the window it sent and its pending verdict.
struct Slot {
  std::future<serve::ServeResult> result;
  double due_s = 0.0;
  double call_start_s = 0.0;
  double call_end_s = 0.0;
  std::uint32_t ref = 0;    ///< reference-verdict index of the window
  std::uint32_t shard = 0;  ///< owning shard (cluster path)
};

/// Sends request number `i` of the run through one public entry point.
class Target {
 public:
  Target(const Workload& w, System& sys, const Inputs& in)
      : w_(w), sys_(sys), in_(in) {}

  void send(std::size_t i, Slot& slot) {
    slot.call_start_s = now_s();
    switch (w_.path) {
      case Path::kSubmit: {
        slot.ref = static_cast<std::uint32_t>(i % in_.windows.size());
        slot.result = sys_.service->submit(in_.windows[slot.ref], in_.steps,
                                           in_.sensors);
        break;
      }
      case Path::kCluster: {
        slot.ref = static_cast<std::uint32_t>(i % in_.windows.size());
        const auto job = static_cast<std::int64_t>(i % kJobs);
        slot.shard = sys_.router->owner(job).value_or(0);
        slot.result = sys_.router->submit(job, in_.windows[slot.ref],
                                          in_.steps, in_.sensors);
        break;
      }
    }
    slot.call_end_s = now_s();
  }

 private:
  const Workload& w_;
  System& sys_;
  const Inputs& in_;
};

// --------------------------------------------------------------- phases

/// One verdict as the benchmark saw it.
struct Record {
  std::uint32_t block = 0;  ///< block of the due time (open loop) or verdict
  double lag_s = 0.0;      ///< call start − due time
  double call_s = 0.0;     ///< duration of the entry-point call
  double latency_s = 0.0;  ///< due time → verdict
  obs::RequestPhases phases;
  std::uint32_t batch_size = 0;
  std::uint32_t shard = 0;
  Outcome outcome = Outcome::kOnTime;
  serve::RejectReason reason = serve::RejectReason::kNone;
  bool accepted = false;
  bool abstained = false;
};

/// Phases are cut into blocks of this length: figures are taken per block
/// and the median across blocks is reported, so one disturbed second on a
/// shared host does not decide a run.
constexpr double kBlockS = 0.5;

/// One kind of phase, accumulated over the rounds it ran in.
struct PhaseResult {
  PhaseResult(std::string n, bool keep)
      : name(std::move(n)), keep_records(keep) {}

  std::string name;
  double seconds = 0.0;  ///< summed length of its rounds
  double start_s = 0.0;        ///< start of the current round
  std::size_t block_base = 0;  ///< first block of the current round
  Accounting acct;
  std::size_t calls = 0;
  std::size_t mismatches = 0;
  /// Every verdict of the open loop; closed loops keep counts only.
  bool keep_records = false;
  std::vector<Record> records;
  /// Answered windows per block: by due time (open loop) or by verdict
  /// time (closed loop).
  std::vector<std::size_t> answered_per_block;
  std::vector<double> lag_s;  ///< per call, open loop only
  std::vector<double> pool_depth;

  std::size_t answered() const {
    return acct.on_time + acct.late;
  }
  std::size_t blocks() const { return answered_per_block.size(); }
};

/// Span names of the per-request tree (interned once per run).
struct SpanNames {
  explicit SpanNames(SpanLog& log)
      : request(log.name_id("request")),
        refused(log.name_id("request.refused")),
        lag(log.name_id("loadgen.lag")),
        submit(log.name_id("serve.submit_call")),
        cluster_submit(log.name_id("cluster.submit_call")),
        admission(log.name_id("serve.admission")),
        router_admission(log.name_id("cluster.admission")),
        route(log.name_id("cluster.route")),
        wire_send(log.name_id("cluster.wire_send")),
        queue(log.name_id("serve.queue")),
        worker_queue(log.name_id("cluster.worker_queue")),
        batch_wait(log.name_id("serve.batch_wait")),
        transform(log.name_id("preprocess.transform")),
        predict(log.name_id("ml.predict")),
        wire_recv(log.name_id("cluster.wire_recv")) {}
  std::uint16_t request, refused, lag, submit, cluster_submit, admission,
      router_admission, route, wire_send, queue, worker_queue, batch_wait, transform, predict,
      wire_recv;
};

class PhaseRunner {
 public:
  PhaseRunner(const Workload& w, Target& target, const Inputs& in,
              ThreadPool* pool)
      : w_(w), target_(target), in_(in), pool_(pool) {}

  /// One open-loop round, appended to `res`: request j is due at
  /// start + due[j] whatever the service does; a collector thread takes
  /// the verdicts in order. `spans` (may be null) records the requests.
  void open_loop(PhaseResult& res, const std::vector<double>& due,
                 double seconds, SpanLog* spans) {
    begin_round(res, seconds, spans);
    std::vector<Slot> slots(due.size());
    std::atomic<std::size_t> published{0};
    std::atomic<bool> done{false};
    const double start = res.start_s;
    const double send_cap = start + seconds + 1.0;  // then stop: rest unsent
    const double wait_cap = start + seconds + 10.0;
    std::thread collector([&] {
      for (std::size_t i = 0;; ++i) {
        std::size_t seen = published.load(std::memory_order_acquire);
        while (seen <= i) {
          if (done.load(std::memory_order_acquire)) {
            seen = published.load(std::memory_order_acquire);
            if (seen <= i) return;
            break;
          }
          published.wait(seen, std::memory_order_acquire);
          seen = published.load(std::memory_order_acquire);
        }
        collect(slots[i], res, wait_cap);
        slots[i] = Slot{};
      }
    });
    // Stops and joins the collector on every exit, a throwing send too.
    struct Join {
      std::thread& thread;
      std::atomic<bool>& done;
      std::atomic<std::size_t>& published;
      ~Join() {
        done.store(true, std::memory_order_release);
        published.notify_one();
        thread.join();
      }
    };
    std::size_t sent = 0;
    {
      const Join join{collector, done, published};
      for (; sent < due.size(); ++sent) {
        const double due_s = start + due[sent];
        if (now_s() > send_cap) break;
        // Sleep, not spin: the generator must not take a core from the
        // system under test. Oversleeping shows up as lag, and the lag is
        // part of each request's due-time latency.
        std::this_thread::sleep_until(at_s(due_s));
        Slot& slot = slots[sent];
        slot.due_s = due_s;
        target_.send(next_++, slot);
        res.lag_s.push_back(slot.call_start_s - due_s);
        if (pool_ != nullptr && sent % 64 == 0) {
          res.pool_depth.push_back(static_cast<double>(pool_->queue_depth()));
        }
        published.store(sent + 1, std::memory_order_release);
        published.notify_one();
      }
    }
    res.calls += sent;
    for (std::size_t i = sent; i < due.size(); ++i) res.acct.add(Outcome::kUnsent);
    end_round();
  }

  /// One closed-loop round, appended to `res`: `outstanding` windows in
  /// flight, each verdict releasing the next request; runs for `seconds`
  /// and then drains.
  void closed_loop(PhaseResult& res, double seconds, SpanLog* spans) {
    begin_round(res, seconds, spans);
    const std::size_t k = w_.outstanding;
    std::vector<Slot> ring(k);
    const double stop = res.start_s + seconds;
    const auto fill = [&](Slot& slot) {
      slot = Slot{};
      ++res.calls;
      target_.send(next_++, slot);
      slot.due_s = slot.call_start_s;
    };
    for (Slot& s : ring) fill(s);
    for (std::size_t i = 0;; i = (i + 1) % k) {
      collect(ring[i], res, stop + 10.0);
      if (now_s() >= stop) {
        for (std::size_t j = 1; j < k; ++j) collect(ring[(i + j) % k], res, stop + 10.0);
        break;
      }
      fill(ring[i]);
    }
    end_round();
  }

 private:
  void begin_round(PhaseResult& res, double seconds, SpanLog* spans) {
    spans_ = spans;
    if (spans_ != nullptr) names_.emplace(*spans_);
    res.seconds += seconds;
    res.start_s = now_s() + 0.001;
    res.block_base = res.answered_per_block.size();
    res.answered_per_block.resize(
        res.block_base + static_cast<std::size_t>(seconds / kBlockS + 1e-9), 0);
  }

  void end_round() { spans_ = nullptr; }

  /// Waits for one slot's verdict and books it: outcome, correctness
  /// against the reference label, and (traced) the request's span tree.
  void collect(Slot& slot, PhaseResult& res, double wait_cap) {
    Record rec;
    rec.lag_s = slot.call_start_s - slot.due_s;
    rec.call_s = slot.call_end_s - slot.call_start_s;
    rec.shard = slot.shard;
    if (slot.result.wait_until(at_s(wait_cap)) != std::future_status::ready) {
      rec.outcome = Outcome::kError;
      res.acct.add(rec.outcome);
      if (res.keep_records) res.records.push_back(rec);
      return;
    }
    const serve::ServeResult r = slot.result.get();
    const obs::RequestPhases& ph = r.phases;
    // Phases stamped inside the call end before it returns; the rest of
    // the verdict's total comes after the call.
    const double in_call = ph.admission_s + ph.route_s + ph.wire_send_s;
    const double after_call = std::max(0.0, ph.total_s - in_call);
    rec.latency_s = rec.lag_s + rec.call_s + after_call;
    rec.phases = ph;
    rec.batch_size = static_cast<std::uint32_t>(r.batch_size);
    rec.reason = r.reject_reason;
    rec.accepted = r.accepted;
    rec.abstained = r.prediction.abstained;
    rec.outcome = classify_verdict(r, rec.latency_s, w_.deadline_s);
    if (r.accepted && (r.prediction.label != in_.ref_label[slot.ref] ||
                       r.prediction.abstained != in_.ref_abstained[slot.ref])) {
      ++res.mismatches;
      rec.outcome = Outcome::kError;
    }
    res.acct.add(rec.outcome);
    const double t = (res.keep_records ? slot.due_s : now_s()) - res.start_s;
    rec.block = static_cast<std::uint32_t>(
        res.block_base + static_cast<std::size_t>(std::max(0.0, t) / kBlockS));
    if (rec.accepted && rec.block < res.answered_per_block.size()) {
      ++res.answered_per_block[rec.block];
    }
    if (res.keep_records) res.records.push_back(rec);
    if (spans_ != nullptr) add_spans(slot, rec, r.trace_id);
  }

  /// The request's span tree: due → verdict at the root; the generator's
  /// lag and the entry-point call timed here; the phases the ServeResult
  /// reports laid end to end inside the call and after it.
  void add_spans(const Slot& slot, const Record& rec, std::uint64_t trace) {
    SpanLog& log = *spans_;
    const SpanNames& n = *names_;
    const obs::RequestPhases& ph = rec.phases;
    const auto batch = static_cast<std::uint16_t>(std::max<std::uint32_t>(rec.batch_size, 1));
    const std::uint32_t root =
        log.add(rec.accepted ? n.request : n.refused, trace, 0, slot.due_s,
                slot.due_s + rec.latency_s);
    log.add(n.lag, trace, root, slot.due_s, slot.call_start_s);
    const std::uint16_t call_name =
        w_.path == Path::kSubmit ? n.submit : n.cluster_submit;
    const std::uint32_t call =
        log.add(call_name, trace, root, slot.call_start_s, slot.call_end_s);
    double t = slot.call_end_s - ph.admission_s - ph.route_s - ph.wire_send_s;
    const auto step = [&](std::uint16_t name, std::uint32_t parent, double d,
                          std::uint16_t count = 1) {
      if (d > 0.0) log.add(name, trace, parent, t, t + d, count);
      t += d;
    };
    if (w_.path == Path::kCluster) {
      step(n.route, call, ph.route_s);
      step(n.router_admission, call, ph.admission_s);
      step(n.wire_send, call, ph.wire_send_s);
      step(n.worker_queue, root, ph.queue_s);
    } else {
      step(n.admission, call, ph.admission_s);
      step(n.queue, root, ph.queue_s);
      step(n.batch_wait, root, ph.batch_wait_s);
    }
    step(n.transform, root, ph.transform_s, batch);
    step(n.predict, root, ph.predict_s, batch);
    step(n.wire_recv, root, ph.wire_recv_s);
  }

  const Workload& w_;
  Target& target_;
  const Inputs& in_;
  ThreadPool* pool_;
  SpanLog* spans_ = nullptr;  ///< the current round's span log, if traced
  std::optional<SpanNames> names_;
  std::size_t next_ = 0;  ///< request counter, continuous across phases
};

// -------------------------------------------------------------- metrics

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double median(std::vector<double> v) { return quantile(sorted(std::move(v)), 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

std::string pct_name(double q) {
  std::ostringstream os;
  os << 'p' << q * 100.0;
  return os.str();
}

/// Median across a phase's full blocks of its answered windows per second
/// (the whole phase's rate when its rounds are shorter than a block).
double block_rate(const PhaseResult& p) {
  if (p.blocks() == 0) return static_cast<double>(p.answered()) / p.seconds;
  std::vector<double> rates;
  for (std::size_t b = 0; b < p.blocks(); ++b) {
    rates.push_back(static_cast<double>(p.answered_per_block[b]) / kBlockS);
  }
  return median(std::move(rates));
}

/// Median across the open loop's full blocks of each block's q-quantile of
/// due-time latency over its answered windows (one block holding every
/// answer when the rounds are shorter than a block).
double block_latency(const PhaseResult& p, double q) {
  std::vector<std::vector<double>> by_block(std::max<std::size_t>(p.blocks(), 1));
  for (const Record& r : p.records) {
    if (r.accepted && (p.blocks() == 0 || r.block < by_block.size())) {
      by_block[std::min<std::size_t>(r.block, by_block.size() - 1)].push_back(
          r.latency_s);
    }
  }
  std::vector<double> per_block;
  for (std::vector<double>& b : by_block) {
    if (!b.empty()) per_block.push_back(quantile(sorted(std::move(b)), q));
  }
  return median(std::move(per_block));
}

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// --------------------------------------------------------------- probes

/// Times `reps` direct calls of `body` as spans named `name`, each
/// covering `count` windows.
template <typename F>
void time_calls(SpanLog& log, std::string_view name, std::size_t reps,
                std::uint16_t count, F&& body) {
  const std::uint16_t id = log.name_id(name);
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    body();
    log.add(id, 0, 0, t0, now_s(), count);
  }
}

/// What the probes measure besides span durations.
struct ProbeCounts {
  std::size_t frame_bytes = 0;  ///< one window's submit frame on the wire
  double abstain_share = 0.0;   ///< of the faulty batch, by the guard
};

/// Direct calls into robust, preprocess, ml and net on the workload's
/// windows and bundle, each recorded as a span. The robust probes run on
/// a copy of the windows with seeded dropout bursts and NaN runs, so that
/// imputation and the abstain path do real work.
ProbeCounts run_probes(SpanLog& log, const serve::ModelBundle& bundle,
                       const Inputs& in) {
  constexpr std::size_t kBatch = 64;
  data::Tensor3 clean(kBatch, in.steps, in.sensors);
  for (std::size_t i = 0; i < kBatch; ++i) {
    const std::vector<double>& w = in.windows[i % in.windows.size()];
    std::copy(w.begin(), w.end(), clean.trial(i).begin());
  }
  // The 64 windows back to back as one stream, then faulted as a job's
  // telemetry would be.
  telemetry::TimeSeries stream;
  stream.values = linalg::Matrix(kBatch * in.steps, in.sensors);
  std::copy(clean.raw().begin(), clean.raw().end(), stream.values.flat().begin());
  (void)inject_stream_faults(stream, 0x5eed);
  data::Tensor3 faulty(kBatch, in.steps, in.sensors);
  std::copy(stream.values.flat().begin(), stream.values.flat().end(),
            faulty.raw().begin());

  data::Tensor3 repaired(kBatch, in.steps, in.sensors);
  const robust::ImputationConfig& imputation = bundle.guard_config().imputation;
  time_calls(log, "probe.robust.impute", 200, kBatch, [&] {
    std::copy(faulty.raw().begin(), faulty.raw().end(), repaired.raw().begin());
    for (std::size_t i = 0; i < kBatch; ++i) {
      robust::QualityReport report;
      robust::impute_window(repaired.trial(i), in.steps, in.sensors, imputation,
                            report);
    }
  });
  time_calls(log, "probe.preprocess.transform", 200, kBatch,
             [&] { (void)bundle.pipeline().transform(clean); });
  const linalg::Matrix features = bundle.pipeline().transform(clean);
  time_calls(log, "probe.ml.predict.b64", 100, kBatch,
             [&] { (void)bundle.model().predict(features); });
  linalg::Matrix one(1, features.cols());
  std::size_t row = 0;
  time_calls(log, "probe.ml.predict.b1", 1000, 1, [&] {
    for (std::size_t c = 0; c < features.cols(); ++c) one(0, c) = features(row, c);
    row = (row + 1) % kBatch;
    (void)bundle.model().predict(one);
  });
  // Guard self time: classify_batch minus the transform and predict it
  // reports, as child spans of the call.
  ProbeCounts counts;
  {
    const std::uint16_t call = log.name_id("probe.robust.classify_batch");
    const std::uint16_t tr = log.name_id("probe.robust.classify_batch.transform");
    const std::uint16_t pr = log.name_id("probe.robust.classify_batch.predict");
    for (std::size_t i = 0; i < 100; ++i) {
      robust::BatchPhaseTimings timings;
      const double t0 = now_s();
      const std::vector<robust::GuardedPrediction> out =
          bundle.guard().classify_batch(faulty, &timings);
      const std::uint32_t id = log.add(call, 0, 0, t0, now_s(), kBatch);
      log.add(tr, 0, id, t0, t0 + timings.transform_s, kBatch);
      log.add(pr, 0, id, t0 + timings.transform_s,
              t0 + timings.transform_s + timings.predict_s, kBatch);
      counts.abstain_share =
          static_cast<double>(std::count_if(out.begin(), out.end(),
                                            [](const auto& p) { return p.abstained; })) /
          static_cast<double>(kBatch);
    }
  }
  // net: codec and one loopback hop per frame.
  net::SubmitWindowFrame submit;
  submit.request_id = 7;
  submit.steps = static_cast<std::uint32_t>(in.steps);
  submit.sensors = static_cast<std::uint32_t>(in.sensors);
  submit.values = in.windows[0];
  net::VerdictFrame verdict;
  verdict.request_id = 7;
  verdict.accepted = true;
  verdict.label = 3;
  verdict.batch_size = 64;
  verdict.model_version = bundle.version();
  std::string submit_bytes = net::encode_submit_window(submit);
  const std::string verdict_bytes = net::encode_verdict(verdict);
  time_calls(log, "probe.net.encode_submit", 2000, 1,
             [&] { submit_bytes = net::encode_submit_window(submit); });
  time_calls(log, "probe.net.decode_submit", 2000, 1,
             [&] { (void)net::decode_submit_window(submit_bytes); });
  time_calls(log, "probe.net.encode_verdict", 2000, 1,
             [&] { (void)net::encode_verdict(verdict); });
  time_calls(log, "probe.net.decode_verdict", 2000, 1,
             [&] { (void)net::decode_verdict(verdict_bytes); });
  net::TcpListener listener;
  listener.listen(0);
  std::thread echo([&] {
    net::Socket peer = listener.accept();
    while (auto f = net::read_frame(peer)) {
      if (!net::write_frame(peer, f->type, f->payload)) break;
    }
  });
  bool echoed = false;
  try {
    net::Socket sock = net::connect_loopback(listener.port(), 5.0);
    echoed = true;
    time_calls(log, "probe.net.loopback_rtt", 1000, 1, [&] {
      echoed = echoed &&
               net::write_frame(sock, net::FrameType::kSubmitWindow, submit_bytes) &&
               net::read_frame(sock).has_value();
    });
    sock.shutdown_now();
  } catch (const std::exception&) {
    echoed = false;
  }
  listener.shutdown_now();  // unblocks accept() if no client ever came
  echo.join();
  if (!echoed) throw std::runtime_error("loopback echo failed");
  counts.frame_bytes =
      net::encode_frame(net::FrameType::kSubmitWindow, submit_bytes).size();
  return counts;
}

// ----------------------------------------------------------------- main

std::string host_line() {
  std::string cpu = "unknown";
  std::ifstream is("/proc/cpuinfo");
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::ostringstream os;
  os << "host: cores=" << std::thread::hardware_concurrency() << " cpu=\""
     << cpu << "\" commit=" << (commit != nullptr ? commit : "unknown");
  return os.str();
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--worker-bin") opt.worker_bin = val;
    else if (key == "--out-dir") opt.out_dir = val;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || opt.workload.empty() || opt.seconds <= 0.0) {
    return std::nullopt;
  }
  return opt;
}

void print_phase(const PhaseResult& p, double deadline_s) {
  std::vector<double> lat;
  for (const Record& r : p.records) {
    if (r.accepted) lat.push_back(r.latency_s);
  }
  lat = sorted(std::move(lat));
  const TailPercentile tail = highest_supported_percentile(lat);
  std::ostringstream os;
  os << p.name << ": " << p.calls << " calls, due " << p.acct.due
     << ", sent " << p.acct.sent
     << ", on time " << p.acct.on_time << ", late " << p.acct.late
     << ", shed " << p.acct.shed << ", error " << p.acct.error
     << ", unsent " << p.acct.unsent << ", failed_share "
     << p.acct.failed_share() << " (deadline " << deadline_s * 1e3 << " ms)";
  if (p.keep_records) {
    os << "; latency p50 " << quantile(lat, 0.5) * 1e3 << " ms, "
       << pct_name(tail.q) << ' ' << tail.value * 1e3 << " ms of "
       << tail.samples << " samples"
       << (tail.supported ? "" : " (too few for any tail)");
  }
  os << "; answered/s by "
     << kBlockS << " s block:";
  for (std::size_t b = 0; b < p.blocks(); ++b) {
    os << ' ' << static_cast<long long>(p.answered_per_block[b] / kBlockS);
  }
  if (p.keep_records) {
    os << "; median over blocks of block p50 " << block_latency(p, 0.5) * 1e3
       << " ms, of block p99 " << block_latency(p, 0.99) * 1e3 << " ms";
  }
  progress(os.str());
}

int run(const Options& opt) {
  const std::optional<Workload> found = find_workload(opt.workload);
  if (!found) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  const Workload& w = *found;
  std::filesystem::create_directories(opt.out_dir);
  progress(host_line());
  progress("workload " + w.name + " seed " + std::to_string(opt.seed) +
           (opt.trace ? " traced" : " untraced"));

  // 1. Set up several times; setup_s is the median, the last one serves.
  constexpr int kSetups = 5;
  constexpr int kRounds = 4;
  std::vector<double> setup_times;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    if (sys) sys->tear_down();
    sys.reset();
    const double t0 = i == 0 ? 0.0 : now_s();
    sys = set_up(w, opt);
    setup_times.push_back(now_s() - t0);
    progress("set-up " + std::to_string(i + 1) + " ready in " +
             json_number(setup_times.back()) + " s");
  }

  // 2. Inputs from the seed, and their reference verdicts.
  Inputs in = make_inputs(opt.seed);
  compute_references(in, *sys->bundle);
  progress("inputs: " + std::to_string(in.ref_label.size()) +
           " distinct windows with reference verdicts");

  SpanLog spans;          // open-loop requests and probes (traced run)
  SpanLog closed_spans;   // one traced closed-loop round, for the overhead only
  Target target(w, *sys, in);
  ThreadPool* pool = w.path == Path::kCluster ? nullptr : &ThreadPool::global();
  PhaseRunner runner(w, target, in, pool);

  // 3. Warm-up (not measured, but its verdicts are checked too), then
  // open and closed rounds in turn, so both loops sample the whole run on a
  // host whose speed drifts.
  PhaseResult warm("warm-up", false);
  runner.closed_loop(warm, 0.3, nullptr);
  const double open_round_s = 0.6 * opt.seconds / kRounds;
  const double closed_round_s = 0.4 * opt.seconds / kRounds;
  const std::vector<double> due =
      poisson_schedule(opt.seed * 0x2545f4914f6cdd1dULL + 17, w.open_rate_wps,
                       open_round_s * kRounds);
  PhaseResult open("open_loop", true);
  open.records.reserve(due.size());
  open.lag_s.reserve(due.size());
  if (opt.trace) spans.reserve(due.size() * 9);
  PhaseResult closed("closed_loop", false);
  // Traced runs alternate untraced and traced closed rounds; the capacity
  // gap between them is the tracing overhead.
  PhaseResult closed_traced("closed_loop.traced", false);
  progress("open loop " + json_number(w.open_rate_wps) + " windows/s and closed loop " +
           std::to_string(w.outstanding) + " windows outstanding, in " +
           std::to_string(kRounds) + " rounds of " + json_number(open_round_s) +
           " s + " + json_number(closed_round_s) + " s");
  auto next_due = due.begin();
  for (int r = 0; r < kRounds; ++r) {
    const double from = r * open_round_s;
    const auto end = std::lower_bound(next_due, due.end(), from + open_round_s);
    std::vector<double> round_due(next_due, end);
    for (double& d : round_due) d -= from;
    next_due = end;
    runner.open_loop(open, round_due, open_round_s, opt.trace ? &spans : nullptr);
    progress("round " + std::to_string(r + 1) + " open loop done: " +
             std::to_string(open.acct.on_time) + " of " +
             std::to_string(open.acct.due) + " due answered on time so far");
    const bool traced_round = opt.trace && r % 2 == 1;
    runner.closed_loop(traced_round ? closed_traced : closed, closed_round_s,
                       traced_round ? &closed_spans : nullptr);
    closed_spans = SpanLog{};  // only their recording cost matters
    progress("round " + std::to_string(r + 1) + " closed loop done");
  }
  const std::size_t open_spans_end = spans.size();
  print_phase(open, w.deadline_s);
  print_phase(closed, w.deadline_s);
  if (opt.trace) print_phase(closed_traced, w.deadline_s);

  const double rss_mb = sys->rss_peak_mb();
  std::size_t shard_counts[2] = {0, 0};
  for (const Record& r : open.records) {
    if (r.shard < 2) ++shard_counts[r.shard];
  }

  // 4. Traced run: direct calls into the layers.
  ProbeCounts probe_counts;
  if (opt.trace) {
    progress("probes: direct calls into robust, preprocess, ml, net");
    probe_counts = run_probes(spans, *sys->bundle, in);
  }
  progress("stopping the " + std::string(w.path == Path::kCluster ? "fleet" : "service"));
  sys->tear_down();

  // 5. Verdict and metrics.
  Accounting total = open.acct;
  std::size_t mismatches = open.mismatches + warm.mismatches;
  for (const PhaseResult* p : {&closed, &closed_traced}) {
    mismatches += p->mismatches;
    total.due += p->acct.due;
    total.error += p->acct.error;
  }
  const std::size_t failed = total.error + open.acct.unsent;
  const bool correct = mismatches == 0;
  progress("correctness: " + std::to_string(mismatches) +
           " verdicts differ from their reference label");

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"capacity_wps", block_rate(closed), "1/s"},
        {"goodput_wps", static_cast<double>(open.acct.on_time) / open.seconds, "1/s"},
        {"latency_p50_ms", block_latency(open, 0.5) * 1e3, "ms"},
        {"ontime_share", 1.0 - open.acct.failed_share(), "share"},
        {"rss_peak_mb", rss_mb, "MiB"},
    };
    // The tail is printed, not gated: on a shared 4-core host its spread
    // across seeds is wider than any bound the benchmark may set.
    progress("latency_p99_ms (not gated) = " +
             json_number(block_latency(open, 0.99) * 1e3) + " ms");
    progress("failed_share " + json_number(open.acct.failed_share()) +
             " (shed " + std::to_string(open.acct.shed) + ", late " +
             std::to_string(open.acct.late) + ", error " +
             std::to_string(open.acct.error) + ", unsent " +
             std::to_string(open.acct.unsent) + " of " +
             std::to_string(open.acct.due) + " due)");
  } else {
    // Request-path layers are read from the open-loop spans only; the
    // probe spans follow the closed loops.
    const SpanRange open_range{0, open_spans_end};
    const auto p50 = [&](std::string_view name, double scale,
                         bool per_window = false) {
      return median(spans.durations(name, per_window, open_range)) * scale;
    };
    const auto probe50 = [&](std::string_view name, double scale,
                             bool per_window = false) {
      return median(spans.durations(name, per_window)) * scale;
    };
    const std::vector<double> unattributed =
        spans.self_times("request", open_range);
    std::size_t deadline = 0, wasted = 0, queue_full = 0, executor = 0;
    std::vector<double> batch;
    for (const Record& r : open.records) {
      if (r.accepted) batch.push_back(r.batch_size);
      switch (r.reason) {
        case serve::RejectReason::kQueueFull: ++queue_full; break;
        case serve::RejectReason::kExecutor: ++executor; break;
        case serve::RejectReason::kDeadlineExceeded:
          ++deadline;
          if (r.phases.predict_s > 0.0) ++wasted;
          break;
        default: break;
      }
    }
    const double due_n = std::max<double>(1.0, static_cast<double>(open.acct.due));
    const double shard_mean = w.path == Path::kCluster
                                  ? (shard_counts[0] + shard_counts[1]) / 2.0
                                  : 0.0;
    const std::vector<double> lag = sorted(open.lag_s);
    const std::vector<double> queue =
        sorted(spans.durations("serve.queue", false, open_range));
    metrics = {
        {"ml.predict_us_per_window.b64", probe50("probe.ml.predict.b64", 1e6, true), "us"},
        {"ml.predict_us_per_window.b1", probe50("probe.ml.predict.b1", 1e6), "us"},
        {"ml.predict_us_per_window.phases", p50("ml.predict", 1e6, true), "us"},
        {"preprocess.transform_us_per_window", probe50("probe.preprocess.transform", 1e6, true), "us"},
        {"preprocess.transform_us_per_window.phases", p50("preprocess.transform", 1e6, true), "us"},
        {"robust.impute_us_per_window", probe50("probe.robust.impute", 1e6, true), "us"},
        {"robust.guard_self_us_per_window",
         median(spans.self_times("probe.robust.classify_batch")) * 1e6 / 64.0,
         "us"},
        {"robust.abstain_share", probe_counts.abstain_share, "share"},
        {"serve.submit_call_us_p50", p50("serve.submit_call", 1e6), "us"},
        {"serve.admission_us_p50", p50("serve.admission", 1e6), "us"},
        {"serve.queue_ms_p50", quantile(queue, 0.5) * 1e3, "ms"},
        {"serve.queue_ms_p99", quantile(queue, 0.99) * 1e3, "ms"},
        {"serve.batch_wait_ms_p50", p50("serve.batch_wait", 1e3), "ms"},
        {"serve.batch_size_mean", mean(batch), "count"},
        {"serve.shed_share.queue_full", queue_full / due_n, "share"},
        {"serve.shed_share.executor", executor / due_n, "share"},
        {"serve.shed_share.deadline", deadline / due_n, "share"},
        {"serve.wasted_predict_share", deadline ? static_cast<double>(wasted) / deadline : 0.0, "share"},
        {"common.pool_queue_depth_p99", quantile(sorted(open.pool_depth), 0.99), "count"},
        {"net.encode_submit_us", probe50("probe.net.encode_submit", 1e6), "us"},
        {"net.decode_submit_us", probe50("probe.net.decode_submit", 1e6), "us"},
        {"net.encode_verdict_us", probe50("probe.net.encode_verdict", 1e6), "us"},
        {"net.decode_verdict_us", probe50("probe.net.decode_verdict", 1e6), "us"},
        {"net.bytes_per_window", static_cast<double>(probe_counts.frame_bytes), "bytes"},
        {"net.loopback_rtt_us_p50", probe50("probe.net.loopback_rtt", 1e6), "us"},
        {"cluster.submit_call_us_p50", p50("cluster.submit_call", 1e6), "us"},
        {"cluster.wire_send_ms_p50", p50("cluster.wire_send", 1e3), "ms"},
        {"cluster.wire_recv_ms_p50", p50("cluster.wire_recv", 1e3), "ms"},
        {"cluster.worker_queue_ms_p50", p50("cluster.worker_queue", 1e3), "ms"},
        {"cluster.shard_skew", shard_mean > 0 ? std::max(shard_counts[0], shard_counts[1]) / shard_mean : 0.0, "ratio"},
        {"loadgen.lag_p99_ms", quantile(lag, 0.99) * 1e3, "ms"},
        {"loadgen.sent_share", open.acct.sent_share(), "share"},
        {"unattributed_ms_p50", median(unattributed) * 1e3, "ms"},
        {"trace.overhead_pct", 100.0 * (1.0 - block_rate(closed_traced) / block_rate(closed)), "%"},
    };
    // Cross-check: the layers' direct-call cost against what the serving
    // path reported in its phases, per window.
    progress("cross-check ml.predict us/window: direct b64 " +
             json_number(metrics[0].value) + " vs phases " +
             json_number(metrics[2].value));
    progress("cross-check preprocess.transform us/window: direct b64 " +
             json_number(metrics[3].value) + " vs phases " +
             json_number(metrics[4].value));
    const std::string path = opt.out_dir + "/spans-" + w.name + ".tsv";
    if (!spans.write_tsv(path, 200000)) throw std::runtime_error("cannot write " + path);
    progress("spans: " + std::to_string(spans.size()) + " recorded, written to " + path);
  }

  for (const Metric& m : metrics) {
    progress(m.name + " = " + json_number(m.value) + " " + m.unit);
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << total.due << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const auto opt = perfbench::parse(argc, argv);
    if (!opt) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                   " --trace <0|1> [--worker-bin <path>] [--out-dir <dir>]\n";
      return 2;
    }
    return perfbench::run(*opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 3;
  }
}

// Training workloads: char_rhn_g1 and word_zipf_g4.
//
// Both run one per-rank loop built from public calls only — the data
// iterator, the model's local step and its backward hook, the
// overlapped dense sync, the unique embedding exchange and Adam — and
// time every call per rank.  Ranks step in lock-step behind a StepGate
// (a process-shared barrier outside the communicator, so it adds no
// collective to the ledger): a step's time is then the slowest rank's,
// and rank 0 alone decides when the measured window is over.
//
// word_zipf_g4 runs its ranks as forked processes over UNIX sockets.
// The shared-memory CommWorld then replays the first kCheckedSteps steps
// in this process as the bitwise oracle: every socket rank's per-step
// loss bits and its weight hash after those steps must equal the oracle
// rank's.
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "zipflm/comm/async_exchange.hpp"
#include "zipflm/comm/process_group.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/core/grad_sync.hpp"
#include "zipflm/core/seeding.hpp"
#include "zipflm/data/batch.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/data/markov.hpp"
#include "zipflm/net/telemetry.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/nn/optimizer.hpp"
#include "zipflm/obs/telemetry.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/ops.hpp"

namespace zlmbench {

namespace {

using namespace zipflm;

constexpr std::size_t kWarmupSteps = 1;
/// Every timed pass runs at least this many steps.  The oracle check
/// compares their trajectory bitwise, and train.loss is their mean.
constexpr std::size_t kCheckedSteps = 24;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kBucketBytes = 4u << 20;
/// Hard cap on one pass (20 ms per step at the least), which also
/// sizes the generated corpus.
constexpr double kMaxStepsPerSecond = 50.0;
/// A forked world that has not reported by then is killed.
constexpr double kWorldTimeoutSeconds = 150.0;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x00000100000001b3ull;
  }
  return h;
}

/// One rank's timings and counter deltas for one step.  Plain data: a
/// forked rank ships its samples up a pipe verbatim.
struct StepSample {
  double step_s = 0.0;
  /// CPU time of the rank's process over the step (every thread: the
  /// rank's own, its pool workers and its comm worker).  Only single-rank
  /// processes use it: a thread world of several ranks shares one clock.
  double cpu_s = 0.0;
  double next_batch_s = 0.0;
  double zero_grad_s = 0.0;
  double candidates_s = 0.0;
  double local_s = 0.0;
  double first_grad_s = 0.0;  ///< local-step call -> first backward hook
  double dense_wait_s = 0.0;
  double exchange_s = 0.0;
  double optimizer_s = 0.0;
  double bytes_sent = 0.0;
  double wire_bytes_sent = 0.0;
  double collectives = 0.0;
  double sim_comm_s = 0.0;
  double unique_rows = 0.0;
  float loss = 0.0f;
};

/// Set-up cost of one rank, per repetition.
struct SetupSample {
  double rendezvous_s = 0.0;
  double model_init_s = 0.0;
};

/// One pass of one rank: every step (warm-up included) and, when the
/// workload asks for it, the digest of the weights after its first
/// kCheckedSteps steps (after its last step, if it ran fewer).
struct RankRun {
  std::vector<StepSample> steps;
  std::uint64_t weights_hash = 0;
};

/// Lock-step control shared by every rank of a world, threads or
/// forked processes alike (the state lives in a MAP_SHARED mapping made
/// before any fork).  Before each step every rank calls next(); rank 0
/// decides whether the step runs and a process-shared barrier publishes
/// the decision.  The barrier is outside the communicator, so it moves
/// no bytes and books no collective.
class StepGate {
 public:
  explicit StepGate(int parties) {
    void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::runtime_error("mmap StepGate");
    shared_ = new (mem) Shared();
    pthread_barrierattr_t attr;
    pthread_barrierattr_init(&attr);
    pthread_barrierattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
    pthread_barrier_init(&shared_->barrier, &attr,
                         static_cast<unsigned>(parties));
    pthread_barrierattr_destroy(&attr);
  }
  ~StepGate() {
    pthread_barrier_destroy(&shared_->barrier);
    shared_->~Shared();
    ::munmap(shared_, sizeof(Shared));
  }
  StepGate(const StepGate&) = delete;
  StepGate& operator=(const StepGate&) = delete;

  /// Run kWarmupSteps, then measure until `seconds` have passed: at
  /// least `min_steps` and at most `max_steps` in all.  Called by rank 0
  /// (or before the world starts) only.
  void run_for(double seconds, std::size_t min_steps, std::size_t max_steps) {
    shared_->timed = true;
    shared_->seconds = seconds;
    shared_->min_steps = min_steps;
    shared_->max_steps = max_steps;
  }
  /// Run exactly `steps` steps.  Same caller rule as run_for.
  void run_exactly(std::size_t steps) {
    shared_->timed = false;
    shared_->max_steps = steps;
  }

  bool next(int rank, std::size_t step) {
    const std::uint64_t call = shared_->calls[rank]++;
    std::atomic<int>& slot = shared_->go[call % 2];
    if (rank == 0) slot.store(decide(step) ? 1 : 0, std::memory_order_release);
    pthread_barrier_wait(&shared_->barrier);
    return slot.load(std::memory_order_acquire) != 0;
  }

 private:
  /// Rank 0 only: whether step `step` runs.
  bool decide(std::size_t step) {
    Shared& sh = *shared_;
    if (step >= sh.max_steps) return false;
    if (!sh.timed || step <= kWarmupSteps || step < sh.min_steps) {
      if (step == kWarmupSteps) sh.deadline = now_s() + sh.seconds;
      return true;
    }
    return now_s() < sh.deadline;
  }

  struct Shared {
    pthread_barrier_t barrier;
    /// Decision slots alternate by call count: rank 0 cannot reach the
    /// slot again before every rank has passed the next barrier.
    std::atomic<int> go[2];
    std::uint64_t calls[64] = {};  ///< per rank; each rank's own entry
    bool timed = false;
    double seconds = 0.0;
    double deadline = 0.0;
    std::size_t min_steps = 0;
    std::size_t max_steps = 0;
  };
  Shared* shared_ = nullptr;
};

/// What a training workload runs.  Everything derives from the seed.
struct TrainWorkload {
  int world = 1;
  BatchSpec batch;
  ExchangeOptions ex;
  std::function<std::unique_ptr<LmModel>()> make_model;
  std::optional<ControlledSampler> sampler;
  std::function<std::vector<Index>(std::size_t)> make_corpus;
  std::vector<Index> ids;
  /// Digest the weights after kCheckedSteps (for the oracle check).
  bool hash_weights = false;

  std::size_t max_steps(double seconds) const {
    return kWarmupSteps +
           static_cast<std::size_t>(std::ceil(seconds * kMaxStepsPerSecond));
  }
  std::size_t corpus_tokens(double seconds) const {
    return static_cast<std::size_t>(batch.tokens_per_rank()) *
               (max_steps(seconds) + 1) * static_cast<std::size_t>(world) +
           1;
  }
};

/// One rank's mutable training state: a fresh replica and its
/// optimizer and exchange strategies.
struct RankState {
  std::unique_ptr<LmModel> model;
  Adam adam;
  UniqueExchange exchange;
  DenseGradSync dense_sync;

  explicit RankState(const TrainWorkload& w)
      : model(w.make_model()),
        adam(adam_config()),
        exchange(w.ex),
        dense_sync(w.ex) {
    dense_sync.set_bucket_bytes(kBucketBytes);
  }

  static Adam::Config adam_config() {
    Adam::Config c;
    c.clip = 1.0f;
    return c;
  }
};

/// Digest of everything training mutates: dense parameters and both
/// embedding tables.
std::uint64_t hash_weights(LmModel& model) {
  std::uint64_t h = kFnvOffset;
  for (const Param* p : model.dense_params()) {
    h = fnv1a(p->value.data().data(), p->value.bytes(), h);
  }
  const Param& in = model.input_embedding_param();
  h = fnv1a(in.value.data().data(), in.value.bytes(), h);
  if (const Param* out = model.sampled_output_param(); out != nullptr) {
    h = fnv1a(out->value.data().data(), out->value.bytes(), h);
  }
  return h;
}

double collectives(const TrafficLedger& l) {
  return static_cast<double>(l.allreduce_calls + l.allgather_calls +
                             l.alltoall_calls + l.broadcast_calls +
                             l.barrier_calls);
}

/// The per-rank loop, identical on every backend.  Spans (recorded only
/// while tracing is on) carry the per-layer metric names.
RankRun run_rank(Communicator& comm, RankState& st, const TrainWorkload& w,
                 StepGate& gate) {
  const int rank = comm.rank();
  const int g = comm.world_size();
  LmModel& model = *st.model;
  AsyncCommEngine engine(comm, /*overlap=*/true);

  double call_start = 0.0;
  double first_grad = -1.0;
  model.set_backward_hook([&](const Param& p) {
    if (first_grad < 0.0) first_grad = now_s() - call_start;
    st.dense_sync.notify_ready(&p);
  });
  struct Unhook {
    RankState& st;
    ~Unhook() {
      st.model->set_backward_hook(nullptr);
      st.dense_sync.disarm();
    }
  } unhook{st};

  const auto dense = model.dense_params();
  Param* out_emb = model.sampled_output_param();
  const float inv_world = 1.0f / static_cast<float>(g);
  BatchIterator it(w.ids, w.batch, rank, g);
  Batch batch;
  LmStepResult res;
  std::vector<Index> cands;
  std::vector<Index> uids;
  std::vector<Index> ouids;
  Tensor urows;
  Tensor ourows;

  RankRun run;
  for (std::size_t step = 0; gate.next(rank, step); ++step) {
    obs::SpanScope step_span("train.step", "step", static_cast<double>(step));
    StepSample s;
    const TrafficLedger before = comm.ledger();
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    bool have_batch = false;
    {
      obs::SpanScope span("data.next_batch");
      have_batch = it.next(batch);
    }
    if (!have_batch) throw std::runtime_error("corpus exhausted");
    const double t1 = now_s();
    {
      obs::SpanScope span("nn.zero_grad");
      model.zero_grad();
    }
    const double t2 = now_s();
    if (w.sampler.has_value()) {
      obs::SpanScope span("core.sample_candidates");
      cands = w.sampler->candidates(rank, g, step, batch.targets);
    }
    const double t3 = now_s();
    st.dense_sync.begin_step(comm, engine, dense);
    PendingIdGather pending;
    begin_id_gather(engine, batch.inputs, pending, w.ex.index_codec);
    first_grad = -1.0;
    call_start = now_s();
    {
      obs::SpanScope span("nn.train_step_local");
      model.train_step_local(batch, cands, res);
    }
    const double t4 = now_s();
    {
      obs::SpanScope span("core.dense_sync_wait");
      st.dense_sync.finish();
    }
    const double t5 = now_s();
    {
      obs::SpanScope span("core.embed_exchange");
      st.exchange.exchange(comm, res.input_ids, res.input_delta, uids, urows,
                           nullptr, &pending);
      scale(urows, inv_world);
      if (!res.output_grad.ids.empty()) {
        st.exchange.exchange(comm, res.output_grad.ids, res.output_grad.rows,
                             ouids, ourows);
        scale(ourows, inv_world);
      }
    }
    const double t6 = now_s();
    {
      obs::SpanScope span("nn.optimizer");
      st.adam.begin_step();
      st.adam.step(dense);
      st.adam.step_rows(model.input_embedding_param(), urows, uids);
      if (out_emb != nullptr && !res.output_grad.ids.empty()) {
        st.adam.step_rows(*out_emb, ourows, ouids);
      }
    }
    const double t7 = now_s();
    const double c7 = process_cpu_s();
    const TrafficLedger& after = comm.ledger();

    s.step_s = t7 - t0;
    s.cpu_s = c7 - c0;
    s.next_batch_s = t1 - t0;
    s.zero_grad_s = t2 - t1;
    s.candidates_s = t3 - t2;
    s.local_s = t4 - call_start;
    s.first_grad_s = first_grad < 0.0 ? s.local_s : first_grad;
    s.dense_wait_s = t5 - t4;
    s.exchange_s = t6 - t5;
    s.optimizer_s = t7 - t6;
    s.bytes_sent = static_cast<double>(after.bytes_sent - before.bytes_sent);
    s.wire_bytes_sent =
        static_cast<double>(after.wire_bytes_sent - before.wire_bytes_sent);
    s.collectives = collectives(after) - collectives(before);
    s.sim_comm_s = after.simulated_comm_seconds - before.simulated_comm_seconds;
    s.unique_rows = static_cast<double>(uids.size());
    s.loss = res.loss;
    run.steps.push_back(s);
    if (w.hash_weights && run.steps.size() == kCheckedSteps) {
      run.weights_hash = hash_weights(model);
    }
  }
  if (w.hash_weights && run.steps.size() < kCheckedSteps) {
    run.weights_hash = hash_weights(model);
  }
  return run;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Per-rank median over the measured steps of `field`, then the max
/// over ranks.
double layer_metric(const std::vector<RankRun>& runs,
                    const std::function<double(const StepSample&)>& field) {
  double worst = 0.0;
  for (const RankRun& r : runs) {
    std::vector<double> v;
    for (std::size_t i = kWarmupSteps; i < r.steps.size(); ++i) {
      v.push_back(field(r.steps[i]));
    }
    worst = std::max(worst, median(std::move(v)));
  }
  return worst;
}

/// Slowest rank's time of every measured step.
std::vector<double> step_times(const std::vector<RankRun>& runs) {
  std::vector<double> out;
  for (std::size_t i = kWarmupSteps; i < runs[0].steps.size(); ++i) {
    double worst = 0.0;
    for (const RankRun& r : runs) worst = std::max(worst, r.steps[i].step_s);
    out.push_back(worst);
  }
  return out;
}

double median_step_s(const std::vector<RankRun>& runs) {
  return median(step_times(runs));
}

/// Tokens per step over all ranks over the median step time.
double tokens_per_s(const TrainWorkload& w, const std::vector<RankRun>& runs) {
  return static_cast<double>(w.batch.tokens_per_rank() * w.world) /
         median_step_s(runs);
}

/// Tokens per step over all ranks over the median CPU time of a step,
/// summed over ranks.  Unlike the wall-clock figure, it does not move
/// when the host takes a vCPU away from one rank and the others wait.
double tokens_per_cpu_s(const TrainWorkload& w,
                        const std::vector<RankRun>& runs) {
  std::vector<double> cpu;
  for (std::size_t i = kWarmupSteps; i < runs[0].steps.size(); ++i) {
    double sum = 0.0;
    for (const RankRun& r : runs) sum += r.steps[i].cpu_s;
    cpu.push_back(sum);
  }
  return static_cast<double>(w.batch.tokens_per_rank() * w.world) /
         median(std::move(cpu));
}

/// Mean loss over the first kCheckedSteps steps after warm-up, on every
/// rank.  Every timed pass runs at least that many, so the figure
/// depends on the seed alone, never on how fast the run was.
double mean_loss(const std::vector<RankRun>& runs) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const RankRun& r : runs) {
    const std::size_t end = std::min(r.steps.size(), kCheckedSteps);
    for (std::size_t i = kWarmupSteps; i < end; ++i) {
      sum += static_cast<double>(r.steps[i].loss);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// Every recorded loss is finite; else the check fails.
void check_finite(Record& rec, const char* world,
                  const std::vector<RankRun>& runs) {
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < runs[r].steps.size(); ++i) {
      if (!std::isfinite(runs[r].steps[i].loss)) {
        rec.fail_check("finite_loss", std::string(world) + " rank " +
                                          std::to_string(r) + " step " +
                                          std::to_string(i) + " loss " +
                                          std::to_string(runs[r].steps[i].loss));
        return;
      }
    }
  }
}

/// Two passes took bitwise the same trajectory over their first
/// kCheckedSteps steps: the same loss bits at every step on every rank
/// and the same weights after those steps.  With whole == false, only
/// the loss bits of the steps both passes ran are compared.
void check_equal(Record& rec, const char* check, const std::string& what,
                 const std::vector<RankRun>& got,
                 const std::vector<RankRun>& want, bool whole = true) {
  if (got.size() != want.size()) {
    rec.fail_check(check, what + ": world size differs");
    return;
  }
  for (std::size_t r = 0; r < got.size(); ++r) {
    const auto& a = got[r].steps;
    const auto& b = want[r].steps;
    if (whole && std::min(a.size(), kCheckedSteps) !=
                     std::min(b.size(), kCheckedSteps)) {
      rec.fail_check(check, what + ": rank " + std::to_string(r) + " ran " +
                                std::to_string(a.size()) + " steps, oracle " +
                                std::to_string(b.size()));
      return;
    }
    const std::size_t n = std::min({a.size(), b.size(), kCheckedSteps});
    for (std::size_t i = 0; i < n; ++i) {
      if (std::memcmp(&a[i].loss, &b[i].loss, sizeof(float)) != 0) {
        rec.fail_check(check, what + ": rank " + std::to_string(r) +
                                  " step " + std::to_string(i) + " loss " +
                                  std::to_string(a[i].loss) + " vs " +
                                  std::to_string(b[i].loss));
        return;
      }
    }
    if (whole && got[r].weights_hash != want[r].weights_hash) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), ": rank %zu weights %016llx vs %016llx",
                    r, static_cast<unsigned long long>(got[r].weights_hash),
                    static_cast<unsigned long long>(want[r].weights_hash));
      rec.fail_check(check, what + buf);
      return;
    }
  }
}

/// Self-test hook: corrupt the benchmark's copy of one output.
void apply_diverge(const Options& opt, std::vector<RankRun>& runs) {
  if (runs.empty() || runs[0].steps.empty()) return;
  if (opt.diverge == "nonfinite") runs[0].steps[0].loss = std::nanf("");
  if (opt.diverge == "oracle") runs.back().weights_hash ^= 1;
}

/// Per-layer metrics of a traced training pass.
void report_layers(Record& rec, const TrainWorkload& w,
                   const std::vector<RankRun>& traced, double flops_per_token,
                   double untraced_step_s) {
  const double tokens = static_cast<double>(w.batch.tokens_per_rank());
  rec.set("data.next_batch_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.next_batch_s; }),
          "ms");
  rec.set("nn.zero_grad_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.zero_grad_s; }),
          "ms");
  rec.set("nn.train_step_local_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.local_s; }), "ms");
  rec.set("nn.first_grad_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.first_grad_s; }),
          "ms");
  rec.set("nn.gflops_per_s",
          layer_metric(traced,
                       [&](auto& s) {
                         return flops_per_token * tokens / s.local_s / 1e9;
                       }),
          "GFLOP/s");
  rec.set("nn.optimizer_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.optimizer_s; }),
          "ms");
  rec.set("core.sample_candidates_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.candidates_s; }),
          "ms");
  rec.set("core.dense_sync_wait_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.dense_wait_s; }),
          "ms");
  rec.set("core.embed_exchange_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.exchange_s; }),
          "ms");
  rec.set("core.unique_ratio",
          layer_metric(traced,
                       [&](auto& s) {
                         return s.unique_rows / (tokens * w.world);
                       }),
          "ratio");
  rec.set("comm.bytes_per_step",
          layer_metric(traced, [](auto& s) { return s.bytes_sent; }), "B");
  rec.set("comm.collectives_per_step",
          layer_metric(traced, [](auto& s) { return s.collectives; }),
          "count");
  rec.set("sim.comm_ms",
          1e3 * layer_metric(traced, [](auto& s) { return s.sim_comm_s; }),
          "ms");
  rec.set("net.wire_bytes_per_step",
          layer_metric(traced, [](auto& s) { return s.wire_bytes_sent; }),
          "B");
  {
    std::vector<double> skew;
    for (std::size_t i = kWarmupSteps; i < traced[0].steps.size(); ++i) {
      double lo = 1e300;
      double hi = 0.0;
      for (const RankRun& r : traced) {
        lo = std::min(lo, r.steps[i].step_s);
        hi = std::max(hi, r.steps[i].step_s);
      }
      skew.push_back(hi - lo);
    }
    rec.set("comm.step_skew_ms", 1e3 * median(std::move(skew)), "ms");
  }
  rec.set("train.unattributed_ms",
          1e3 * layer_metric(traced,
                             [](auto& s) {
                               return s.step_s -
                                      (s.next_batch_s + s.zero_grad_s +
                                       s.candidates_s + s.local_s +
                                       s.dense_wait_s + s.exchange_s +
                                       s.optimizer_s);
                             }),
          "ms");
  rec.set("train.step_ms", 1e3 * median_step_s(traced), "ms");
  rec.set("wall_tokens_per_s",
          static_cast<double>(w.batch.tokens_per_rank() * w.world) /
              untraced_step_s,
          "tokens/s");
  rec.set("train.loss", mean_loss(traced), "nats/token");
  rec.set("obs.trace_overhead_ratio", median_step_s(traced) / untraced_step_s,
          "ratio");
  rec.set("support.pool_threads",
          static_cast<double>(ThreadPool::global().size()), "count");
}

/// End-to-end metrics of the untraced pass.
void report_end_to_end(Record& rec, const TrainWorkload& w,
                       const std::vector<RankRun>& runs, double setup_s,
                       double peak_rss_mb) {
  rec.set("setup_s", setup_s, "s");
  rec.set("peak_rss_mb", peak_rss_mb, "MiB");
  rec.set("tokens_per_cpu_s", tokens_per_cpu_s(w, runs), "tokens/cpu-s");
  rec.attempted = runs[0].steps.size() - kWarmupSteps;
  rec.failed = 0;
  rec.note("train.loss", std::to_string(mean_loss(runs)));
  rec.note("train.wall_tokens_per_s", std::to_string(tokens_per_s(w, runs)));
  rec.note("train.measured_steps", std::to_string(rec.attempted));
  rec.note("train.step_ms.quantiles", quantiles_text(step_times(runs), 1e3));
}

// ---------------------------------------------------------------------------
// In-process worlds (CommWorld)
// ---------------------------------------------------------------------------

/// Run `states.size()` ranks as threads of this process over the
/// shared-memory collectives.
std::vector<RankRun> run_thread_world(
    const TrainWorkload& w, std::vector<std::unique_ptr<RankState>>& states,
    StepGate& gate, bool traced) {
  CommWorld world(w.world);
  std::vector<RankRun> runs(static_cast<std::size_t>(w.world));
  world.run([&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    if (traced) obs::set_thread_lane("rank " + std::to_string(r), comm.rank());
    runs[r] = run_rank(comm, *states[r], w, gate);
  });
  return runs;
}

std::vector<std::unique_ptr<RankState>> make_states(const TrainWorkload& w) {
  std::vector<std::unique_ptr<RankState>> states;
  for (int r = 0; r < w.world; ++r) {
    states.push_back(std::make_unique<RankState>(w));
  }
  return states;
}

// ---------------------------------------------------------------------------
// Forked socket worlds
// ---------------------------------------------------------------------------

bool read_full(int fd, void* out, std::size_t n, double deadline) {
  auto* p = static_cast<unsigned char*>(out);
  while (n > 0) {
    const double left = deadline - now_s();
    if (left <= 0.0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1e3) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

bool write_run(int fd, const RankRun& run) {
  const std::uint64_t n = run.steps.size();
  return write_full(fd, &n, sizeof(n)) &&
         write_full(fd, &run.weights_hash, sizeof(run.weights_hash)) &&
         write_full(fd, run.steps.data(), n * sizeof(StepSample));
}

bool read_run(int fd, RankRun& run, double deadline) {
  std::uint64_t n = 0;
  if (!read_full(fd, &n, sizeof(n), deadline) || n > (1u << 20)) return false;
  run.steps.resize(n);
  return read_full(fd, &run.weights_hash, sizeof(run.weights_hash),
                   deadline) &&
         read_full(fd, run.steps.data(), n * sizeof(StepSample), deadline);
}

/// Everything one forked rank reports.
struct SocketReport {
  std::vector<SetupSample> setup;
  RankRun untraced;
  RankRun traced;  ///< empty unless tracing
  double peak_rss_mb = 0.0;
};

/// Rendezvous address of set-up repetition `rep`, inside the output
/// directory so the run writes only there.
std::string rendezvous_address(const Options& opt, pid_t parent, int rep) {
  return "unix:" + opt.out_dir + "/rv." + std::to_string(parent) + "." +
         std::to_string(rep);
}

/// Body of one forked rank.  Returns the exit code.
int socket_rank(int rank, const Options& opt, const TrainWorkload& w,
                StepGate& gate, pid_t parent, const std::string& trace_path,
                int fd) {
  obs::set_process_label("rank " + std::to_string(rank));
  obs::set_thread_lane("rank " + std::to_string(rank), rank);
  ProcessGroup::Options pg_opt;
  pg_opt.collective_timeout_seconds = 120.0;

  SocketReport rep;
  std::unique_ptr<ProcessGroup> pg;
  std::unique_ptr<RankState> st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    st.reset();
    pg.reset();
    SetupSample s;
    double t = now_s();
    pg = ProcessGroup::connect(rendezvous_address(opt, parent, r), rank,
                               w.world, pg_opt);
    s.rendezvous_s = now_s() - t;
    t = now_s();
    st = std::make_unique<RankState>(w);
    s.model_init_s = now_s() - t;
    rep.setup.push_back(s);
  }

  rep.untraced = run_rank(pg->comm(), *st, w, gate);
  if (opt.trace) {
    st.reset();
    st = std::make_unique<RankState>(w);
    if (rank == 0) {
      gate.run_for(opt.traced_seconds(), kCheckedSteps,
                   w.max_steps(opt.traced_seconds()));
    }
    obs::trace_enable(true);
    rep.traced = run_rank(pg->comm(), *st, w, gate);
    obs::trace_enable(false);
    // Quiesce the training transport, then reuse it as the telemetry
    // plane: rank 0 merges every rank's lanes into one trace.
    pg->comm().barrier();
    if (rank == 0) {
      std::vector<obs::ProcessTrace> traces;
      obs::ProcessTrace self;
      self.label = obs::process_label();
      self.pid = 1;
      self.lanes = obs::trace_lane_snapshot();
      traces.push_back(std::move(self));
      for (int peer = 1; peer < w.world; ++peer) {
        net::telemetry::CollectOptions copt;
        copt.want_metrics = false;
        net::telemetry::WorkerTelemetry wt =
            net::telemetry::collect_from_peer(pg->transport(), peer, copt);
        wt.trace.pid = peer + 1;
        traces.push_back(std::move(wt.trace));
      }
      obs::write_chrome_trace_merged_file(trace_path, traces);
    } else {
      net::telemetry::serve_collector(pg->transport(), 0);
    }
  }

  rep.peak_rss_mb = peak_rss_mib();
  const std::uint64_t n = rep.setup.size();
  const bool ok = write_full(fd, &n, sizeof(n)) &&
                  write_full(fd, rep.setup.data(), n * sizeof(SetupSample)) &&
                  write_run(fd, rep.untraced) && write_run(fd, rep.traced) &&
                  write_full(fd, &rep.peak_rss_mb, sizeof(rep.peak_rss_mb));
  pg.reset();
  return ok ? 0 : 1;
}

void kill_all(const std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) ::kill(pid, SIGKILL);
  for (const pid_t pid : pids) ::waitpid(pid, nullptr, 0);
}

/// Fork `w.world` ranks; collect their reports.  Empty on any failure
/// (every child is reaped either way).
std::vector<SocketReport> run_socket_world(const Options& opt,
                                           const TrainWorkload& w,
                                           StepGate& gate,
                                           const std::string& trace_path) {
  const pid_t parent = ::getpid();
  std::fflush(nullptr);  // children inherit the stdio buffers at fork
  std::vector<pid_t> pids;
  std::vector<int> fds;
  for (int r = 0; r < w.world; ++r) {
    int p[2];
    if (::pipe(p) != 0) {
      kill_all(pids);
      return {};
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_all(pids);
      return {};
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the parent
      if (::getppid() != parent) std::_Exit(1);
      for (const int fd : fds) ::close(fd);
      ::close(p[0]);
      int code = 1;
      try {
        code = socket_rank(r, opt, w, gate, parent, trace_path, p[1]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "socket rank %d failed: %s\n", r, e.what());
      }
      std::fflush(nullptr);
      std::_Exit(code);
    }
    ::close(p[1]);
    pids.push_back(pid);
    fds.push_back(p[0]);
  }

  const double deadline = now_s() + kWorldTimeoutSeconds;
  std::vector<SocketReport> reports(static_cast<std::size_t>(w.world));
  bool ok = true;
  for (std::size_t r = 0; r < reports.size() && ok; ++r) {
    std::uint64_t n = 0;
    ok = read_full(fds[r], &n, sizeof(n), deadline) && n < 64;
    if (ok) {
      reports[r].setup.resize(n);
      ok = read_full(fds[r], reports[r].setup.data(), n * sizeof(SetupSample),
                     deadline) &&
           read_run(fds[r], reports[r].untraced, deadline) &&
           read_run(fds[r], reports[r].traced, deadline) &&
           read_full(fds[r], &reports[r].peak_rss_mb,
                     sizeof(reports[r].peak_rss_mb), deadline);
    }
    if (!ok) std::fprintf(stderr, "socket rank %zu sent no report\n", r);
  }
  for (const int fd : fds) ::close(fd);
  if (!ok) {
    kill_all(pids);
    return {};
  }
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ok = false;
    }
  }
  if (!ok) return {};
  return reports;
}

std::string trace_path(const Options& opt) {
  return opt.out_dir + "/trace_" + opt.workload + "_seed" +
         std::to_string(opt.seed) + ".json";
}

/// Net wire and rendezvous metrics are zero on an in-process world.
void zero_socket_layers(Record& rec) {
  rec.set("net.rendezvous_ms", 0.0, "ms");
  rec.set("comm.shm_step_ms", 0.0, "ms");
}

}  // namespace

void zero_train_layers(Record& rec) {
  for (const char* name :
       {"data.next_batch_ms", "nn.zero_grad_ms", "nn.train_step_local_ms",
        "nn.first_grad_ms", "nn.optimizer_ms", "core.sample_candidates_ms",
        "core.dense_sync_wait_ms", "core.embed_exchange_ms", "sim.comm_ms",
        "comm.step_skew_ms", "train.unattributed_ms", "train.step_ms",
        "net.rendezvous_ms", "comm.shm_step_ms"}) {
    rec.set(name, 0.0, "ms");
  }
  rec.set("nn.gflops_per_s", 0.0, "GFLOP/s");
  rec.set("core.unique_ratio", 0.0, "ratio");
  rec.set("comm.bytes_per_step", 0.0, "B");
  rec.set("net.wire_bytes_per_step", 0.0, "B");
  rec.set("comm.collectives_per_step", 0.0, "count");
  rec.set("train.loss", 0.0, "nats/token");
}

// ---------------------------------------------------------------------------
// char_rhn_g1
// ---------------------------------------------------------------------------

void run_char_rhn_g1(const Options& opt, Record& rec) {
  TrainWorkload w;
  w.world = 1;
  w.batch.batch_size = 8;
  w.batch.seq_len = 8;
  w.ex = ExchangeOptions{WirePrecision::FP16, 1024.0f, false};
  CharLmConfig cfg;  // seed CharLm: vocab 98, RHN 1792 x depth 10
  cfg.seed = opt.seed;
  w.make_model = [cfg] { return std::make_unique<CharLm>(cfg); };
  const std::uint64_t seed = opt.seed;
  w.make_corpus = [seed](std::size_t n) {
    const BigramCorpus corpus(98, 4, seed);
    return corpus.generate(n, 0);
  };

  // Set-up, repeated: corpus + replica + optimizer.
  std::vector<double> setup;
  std::vector<double> init;
  std::vector<std::unique_ptr<RankState>> states;
  for (int r = 0; r < kSetupRepeats; ++r) {
    states.clear();
    const double t0 = now_s();
    w.ids = w.make_corpus(w.corpus_tokens(opt.seconds));
    const double t1 = now_s();
    states = make_states(w);
    const double t2 = now_s();
    setup.push_back(t2 - t0);
    init.push_back(t2 - t1);
  }

  StepGate gate(w.world);
  gate.run_for(opt.untraced_seconds(), kCheckedSteps,
               w.max_steps(opt.untraced_seconds()));
  std::vector<RankRun> untraced = run_thread_world(w, states, gate, false);
  apply_diverge(opt, untraced);
  check_finite(rec, "untraced", untraced);
  report_end_to_end(rec, w, untraced, median(setup), peak_rss_mib());
  if (!opt.trace) return;

  states.clear();
  states = make_states(w);
  gate.run_for(opt.traced_seconds(), kCheckedSteps,
               w.max_steps(opt.traced_seconds()));
  obs::trace_clear();
  obs::trace_enable(true);
  std::vector<RankRun> traced = run_thread_world(w, states, gate, true);
  obs::trace_enable(false);
  obs::write_chrome_trace_file(trace_path(opt));
  rec.note("trace", trace_path(opt));
  check_finite(rec, "traced", traced);
  check_equal(rec, "traced_equals_untraced", "traced pass", traced, untraced,
              /*whole=*/false);

  report_layers(rec, w, traced, states[0]->model->flops_per_token(),
                median_step_s(untraced));
  rec.set("nn.model_init_ms", 1e3 * median(init), "ms");
  zero_socket_layers(rec);
  zero_serve_layers(rec);
}

// ---------------------------------------------------------------------------
// word_zipf_g4
// ---------------------------------------------------------------------------

void run_word_zipf_g4(const Options& opt, Record& rec) {
  TrainWorkload w;
  w.world = 4;
  w.batch.batch_size = 32;
  w.batch.seq_len = 20;
  w.ex = ExchangeOptions{WirePrecision::FP16, 1024.0f, false};
  WordLmConfig cfg;
  cfg.vocab = 100'000;  // the paper's 100k most frequent words
  cfg.embed_dim = 128;
  cfg.hidden_dim = 512;
  cfg.proj_dim = 128;
  cfg.seed = opt.seed;
  w.make_model = [cfg] { return std::make_unique<WordLm>(cfg); };
  w.sampler.emplace(cfg.vocab, 1024, SeedPolicy::ZipfFreq, opt.seed);
  w.hash_weights = true;
  const std::uint64_t seed = opt.seed;
  const Index vocab = cfg.vocab;
  w.make_corpus = [seed, vocab](std::size_t n) {
    // Word ranks past the vocabulary map to <unk>, the last id.
    TokenStream stream(CorpusSpec::one_billion_word(), seed);
    std::vector<Index> ids;
    stream.take(n, ids);
    for (Index& id : ids) id = std::min(id, vocab - 1);
    return ids;
  };

  std::vector<double> corpus_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    w.ids = w.make_corpus(w.corpus_tokens(opt.seconds));
    corpus_s.push_back(now_s() - t0);
  }

  StepGate gate(w.world);
  gate.run_for(opt.untraced_seconds(), kCheckedSteps,
               w.max_steps(opt.untraced_seconds()));
  std::vector<SocketReport> reports =
      run_socket_world(opt, w, gate, trace_path(opt));
  if (reports.empty()) {
    rec.fail_check("socket_world", "a forked rank failed");
    return;
  }

  // Set-up: corpus, then the slowest rank's rendezvous + replica build.
  std::vector<double> rank_setup;
  std::vector<double> rendezvous;
  std::vector<double> init;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double worst = 0.0;
    double worst_rv = 0.0;
    double worst_init = 0.0;
    for (const SocketReport& r : reports) {
      const SetupSample& s = r.setup[static_cast<std::size_t>(rep)];
      worst = std::max(worst, s.rendezvous_s + s.model_init_s);
      worst_rv = std::max(worst_rv, s.rendezvous_s);
      worst_init = std::max(worst_init, s.model_init_s);
    }
    rank_setup.push_back(worst);
    rendezvous.push_back(worst_rv);
    init.push_back(worst_init);
  }

  // Peak RSS: this process before it builds the oracle (corpus and
  // bookkeeping) plus every socket rank's own peak.
  double peak_rss = peak_rss_mib();
  std::vector<RankRun> untraced;
  std::vector<RankRun> traced;
  for (SocketReport& r : reports) {
    peak_rss += r.peak_rss_mb;
    untraced.push_back(std::move(r.untraced));
    traced.push_back(std::move(r.traced));
  }
  apply_diverge(opt, untraced);
  check_finite(rec, "socket", untraced);

  // The oracle: the first kCheckedSteps steps over the shared-memory
  // CommWorld.
  std::vector<std::unique_ptr<RankState>> states = make_states(w);
  gate.run_exactly(kCheckedSteps);
  const std::vector<RankRun> oracle =
      run_thread_world(w, states, gate, false);
  check_finite(rec, "oracle", oracle);
  check_equal(rec, "socket_equals_oracle", "socket world", untraced, oracle);

  report_end_to_end(rec, w, untraced, median(corpus_s) + median(rank_setup),
                    peak_rss);
  if (!opt.trace) return;

  rec.note("trace", trace_path(opt));
  check_finite(rec, "traced", traced);
  check_equal(rec, "traced_equals_oracle", "traced socket world", traced,
              oracle);
  report_layers(rec, w, traced, states[0]->model->flops_per_token(),
                median_step_s(untraced));
  rec.set("nn.model_init_ms", 1e3 * median(init), "ms");
  rec.set("net.rendezvous_ms", 1e3 * median(rendezvous), "ms");
  rec.set("comm.shm_step_ms",
          1e3 * median_step_s(oracle), "ms");
  zero_serve_layers(rec);
}

}  // namespace zlmbench

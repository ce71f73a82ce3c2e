// Serving workload: serve_zipf.
//
// A 2-shard ShardedServer on a mid-size RHN (hidden 512 x depth 4, about
// 8 MB of weights per replica) under an open loop: one dispatcher
// thread sends each request when it is due, one collector thread polls
// for completions.  The arrival schedule is drawn from the seed before
// the server starts — Poisson arrivals at a fixed absolute rate,
// sessions by Zipf(1.2) popularity over more sessions than the session
// caches hold — so the offered load never depends on the code under
// test.
//
// Phases: a short warm-up and then the nominal rate (latency, measured
// from when each request was due), then overload (capacity: generated
// tokens per CPU second of the server, while kOverloadSessions sessions
// each send their next request the moment a reply arrives, so every
// batch runs full).  At the nominal rate a user waits for a reply
// before asking again (kThinkSeconds).  An arrival whose session is
// still busy waits in the load generator and goes out as soon as the
// reply arrives; its latency still runs from its due time.
//
// Correctness: the two hottest sessions' conversations are replayed
// offline through LmModel::step with the same per-request seeds, and
// every served token must match.

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "zipflm/data/zipf.hpp"
#include "zipflm/nn/generate.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/serve/sharded_server.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/support/thread_pool.hpp"

namespace zlmbench {

namespace {

using namespace zipflm;

/// Fixed absolute offered load of the latency phase (also stated in
/// BENCHMARK.json), req/s.
constexpr double kNominalRate = 120.0;
/// The hottest sessions, which keep a request waiting through the
/// overload phase: more than the 2 x 16 batch slots and no more than
/// the session caches hold, so every batch runs full and the phase
/// costs the same work whatever the timing.
constexpr std::size_t kOverloadSessions = 64;

constexpr std::size_t kShards = 2;
constexpr std::size_t kSessions = 128;
constexpr std::size_t kCachePerShard = 48;  ///< 96 warm of 128 sessions
constexpr double kZipfExponent = 1.2;
constexpr std::size_t kNewTokens = 8;
constexpr Index kMaxContext = 256;
constexpr std::size_t kMinPrompt = 4;
constexpr std::size_t kMaxPrompt = 64;
constexpr double kThinkSeconds = 0.4;
constexpr double kNominalShare = 0.7;  ///< of a pass; overload the rest
constexpr double kWarmupSeconds = 1.0;
constexpr int kSetupRepeats = 31;
constexpr std::size_t kReplaySessions = 2;

enum class Phase : std::uint8_t { Warmup, Nominal, Overload };

struct Arrival {
  double due = 0.0;  ///< seconds after the load starts
  std::size_t session = 0;
  Phase phase = Phase::Nominal;
};

/// Poisson arrivals at kNominalRate over [start, start + seconds).  A
/// session is not scheduled again within kThinkSeconds of its previous
/// arrival (the popularity draw is repeated instead).
void schedule(std::vector<Arrival>& out, Rng& rng, const ZipfSampler& pop,
              double start, double seconds, Phase phase,
              std::vector<double>& last_due) {
  double t = start;
  while (true) {
    t += -std::log1p(-rng.uniform()) / kNominalRate;
    if (t >= start + seconds) return;
    std::size_t sid = 0;
    for (int tries = 0; tries < 1000; ++tries) {
      sid = static_cast<std::size_t>(pop.sample(rng));
      if (t - last_due[sid] >= kThinkSeconds) break;
    }
    last_due[sid] = t;
    out.push_back({t, sid, phase});
  }
}

std::vector<Index> random_prompt(Rng& rng, std::size_t len, Index vocab) {
  std::vector<Index> p(len);
  for (Index& id : p) {
    id = static_cast<Index>(rng.uniform_index(static_cast<std::uint64_t>(vocab)));
  }
  return p;
}

/// One served request of a replayed session, as the client saw it.
struct Exchange {
  std::vector<Index> context;
  std::uint64_t seed = 0;
  std::vector<Index> tokens;  ///< context + continuation as served
};

/// An arrival that found its session busy and waits for the reply.
struct Deferred {
  double due = 0.0;  ///< absolute
  Phase phase = Phase::Nominal;
};

/// Client-side session.  busy is set by whichever thread sends a
/// request and cleared by the collector when the last reply resolves;
/// history is only touched by the side holding the session.
struct Session {
  std::mutex mutex;  ///< guards busy and deferred
  bool busy = false;
  std::deque<Deferred> deferred;
  std::vector<Index> history;
  Rng rng{0};
  std::uint64_t sent = 0;
  std::vector<Exchange> log;  ///< replayed sessions only
};

struct Outstanding {
  std::uint64_t id = 0;
  std::size_t session = 0;
  double due = 0.0;
  Phase phase = Phase::Nominal;
  serve::Request request;  ///< kept for replayed sessions only
};

/// Everything one pass measures.
struct PassResult {
  double setup_s = 0.0;
  double model_init_s = 0.0;
  std::vector<double> latency_s;  ///< nominal, served, from due time
  std::vector<double> lag_s;      ///< nominal dispatch lateness
  std::vector<double> submit_s;   ///< nominal submit() call times
  std::uint64_t nominal_scheduled = 0;
  std::uint64_t nominal_deferred = 0;  ///< session busy when due
  std::uint64_t nominal_unsent = 0;    ///< rejected (dispatcher)
  /// Rejected when sent late, expired or failed (collector).
  std::uint64_t nominal_unserved = 0;
  std::uint64_t overload_done = 0;  ///< completions inside the window
  double overload_seconds = 0.0;
  double overload_server_cpu_s = 0.0;  ///< CPU of all but the load generator
  std::uint64_t overload_tokens = 0;   ///< generated inside the window
  serve::ServeCounters before_nominal;
  serve::ServeCounters after_nominal;
  serve::ServeCounters after_overload;
  std::vector<std::vector<Exchange>> replay;  ///< hottest sessions
};

CharLmConfig model_config(std::uint64_t seed) {
  CharLmConfig c;
  c.embed_dim = 64;
  c.hidden_dim = 512;
  c.depth = 4;
  c.seed = seed;
  return c;
}

/// The server and the inputs of one pass, built by the timed set-up.
struct ServeSetup {
  std::vector<std::unique_ptr<CharLm>> replicas;
  std::unique_ptr<serve::ShardedServer> server;
  std::vector<Session> sessions;
  std::vector<Arrival> arrivals;
  double model_init_s = 0.0;

  ServeSetup(const Options& opt, double seconds) : sessions(kSessions + 1) {
    const CharLmConfig cfg = model_config(opt.seed);
    const double t = now_s();
    std::vector<LmModel*> models;
    for (std::size_t k = 0; k < kShards; ++k) {
      replicas.push_back(std::make_unique<CharLm>(cfg));
      models.push_back(replicas.back().get());
    }
    model_init_s = now_s() - t;

    serve::ShardedServeOptions sopts;
    sopts.server.max_batch = 16;
    sopts.server.queue_depth = 256;
    sopts.server.cache_capacity = kCachePerShard;
    sopts.route_capacity = kSessions * 2;
    server = std::make_unique<serve::ShardedServer>(std::move(models), sopts);

    // Sessions start mid-conversation, so the run does not open on a
    // transient of short contexts.  History lengths are spread evenly
    // over [kMinPrompt, kMaxPrompt] (the same spread for every seed);
    // the tokens come from the seed.
    for (std::size_t s = 1; s <= kSessions; ++s) {
      Session& ses = sessions[s];
      ses.rng = Rng(opt.seed * 1'000'003ull + s);
      const std::size_t len =
          kMinPrompt + (s * 37) % (kMaxPrompt - kMinPrompt + 1);
      ses.history = random_prompt(ses.rng, len, cfg.vocab);
    }

    const ZipfSampler pop(kSessions, kZipfExponent);
    Rng rng(opt.seed * 7919ull + 17);
    std::vector<double> last_due(kSessions + 1, -1e9);
    const double nominal = seconds * kNominalShare;
    schedule(arrivals, rng, pop, 0.0, kWarmupSeconds, Phase::Warmup,
             last_due);
    schedule(arrivals, rng, pop, kWarmupSeconds, nominal, Phase::Nominal,
             last_due);
    server->start();
  }
};

serve::Request make_request(Session& s, std::size_t sid, std::uint64_t seed,
                            Index vocab) {
  if (s.history.size() + kNewTokens > static_cast<std::size_t>(kMaxContext)) {
    // The conversation outgrew the window: a new one starts (and its
    // first request is a cache miss).
    s.history = random_prompt(s.rng, kMinPrompt, vocab);
  }
  serve::Request req;
  req.session_id = sid;
  req.context = s.history;
  req.new_tokens = kNewTokens;
  req.options.max_context = kMaxContext;
  req.seed = seed * 1'000'003ull + sid * 65'537ull + s.sent++;
  return req;
}

/// Sends one request of a session the caller holds (busy).  Fills `o`
/// and returns true when the server admitted it.
bool send(ServeSetup& su, std::size_t sid, double due, Phase phase,
          std::uint64_t seed, Outstanding& o, std::vector<double>* submit_s) {
  serve::Request req = make_request(su.sessions[sid], sid, seed,
                                    su.replicas[0]->vocab());
  o.session = sid;
  o.due = due;
  o.phase = phase;
  if (sid <= kReplaySessions) o.request = req;
  const double t = now_s();
  serve::Admission adm;
  {
    obs::SpanScope span("serve.submit");
    adm = su.server->submit(std::move(req));
  }
  if (submit_s != nullptr) submit_s->push_back(now_s() - t);
  o.id = adm.request_id;
  return adm.accepted;
}

/// Polls every outstanding request, timestamps completions and hands
/// each session back: to its next deferred arrival, or to the
/// dispatcher.
class Collector {
 public:
  Collector(ServeSetup& su, std::uint64_t seed, PassResult& result)
      : su_(su), seed_(seed), result_(result) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void add(Outstanding o) {
    std::lock_guard lock(mutex_);
    inbox_.push_back(std::move(o));
    ++pending_;
  }

  /// Block until every request handed over so far has resolved.
  void drain() {
    std::unique_lock lock(mutex_);
    drained_cv_.wait(lock, [&] { return pending_ == 0; });
  }

  void set_overload_window(double start, double end) {
    std::lock_guard lock(mutex_);
    window_start_ = start;
    window_end_ = end;
  }

  pthread_t native_handle() { return thread_.native_handle(); }

  void finish() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    thread_.join();
  }

 private:
  void loop() {
    obs::set_thread_lane("loadgen collector", 301);
    std::vector<Outstanding> active;
    while (true) {
      double w_start = 0.0;
      double w_end = 0.0;
      {
        std::lock_guard lock(mutex_);
        for (Outstanding& o : inbox_) active.push_back(std::move(o));
        inbox_.clear();
        if (done_ && active.empty()) return;
        w_start = window_start_;
        w_end = window_end_;
      }
      std::size_t resolved = 0;
      std::vector<Outstanding> resent;
      for (std::size_t i = 0; i < active.size();) {
        serve::Response r;
        if (!su_.server->poll(active[i].id, r)) {
          ++i;
          continue;
        }
        const double now = now_s();
        const std::size_t sid = active[i].session;
        const Phase phase = active[i].phase;
        resolve(active[i], r, now, w_start, w_end);
        release(sid, phase == Phase::Overload && now < w_end, resent);
        active[i] = std::move(active.back());
        active.pop_back();
        ++resolved;
      }
      const std::size_t added = resent.size();
      for (Outstanding& o : resent) active.push_back(std::move(o));
      if (resolved > 0) {
        std::lock_guard lock(mutex_);
        pending_ = pending_ + added - resolved;
        if (pending_ == 0) drained_cv_.notify_all();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }

  void resolve(Outstanding& o, const serve::Response& r, double now,
               double w_start, double w_end) {
    Session& s = su_.sessions[o.session];
    const bool ok = r.status == serve::ResponseStatus::Ok;
    if (ok) {
      s.history = r.tokens;
      if (o.session <= kReplaySessions) {
        s.log.push_back({std::move(o.request.context), o.request.seed,
                         r.tokens});
      }
    }
    if (o.phase == Phase::Nominal) {
      if (ok) {
        result_.latency_s.push_back(now - o.due);
      } else {
        result_.nominal_unserved += 1;
      }
    } else if (o.phase == Phase::Overload && ok && now >= w_start &&
               now < w_end) {
      result_.overload_done += 1;
    }
  }

  /// Send the session's next request (`again`: the overload loop) or
  /// its next deferred arrival, or free the session.
  void release(std::size_t sid, bool again, std::vector<Outstanding>& resent) {
    Session& s = su_.sessions[sid];
    if (again) {
      Outstanding o;
      if (send(su_, sid, now_s(), Phase::Overload, seed_, o, nullptr)) {
        resent.push_back(std::move(o));
        return;
      }
    }
    while (true) {
      Deferred d;
      {
        std::lock_guard lock(s.mutex);
        if (s.deferred.empty()) {
          s.busy = false;
          return;
        }
        d = s.deferred.front();
        s.deferred.pop_front();
      }
      Outstanding o;
      if (send(su_, sid, d.due, d.phase, seed_, o, nullptr)) {
        resent.push_back(std::move(o));
        return;
      }
      if (d.phase == Phase::Nominal) result_.nominal_unserved += 1;
    }
  }

  ServeSetup& su_;
  const std::uint64_t seed_;
  /// The collector alone writes latency_s, nominal_unserved,
  /// and overload_done; the dispatcher writes the others.
  PassResult& result_;

  std::mutex mutex_;  ///< guards inbox_, pending_, done_, window
  std::condition_variable drained_cv_;
  std::vector<Outstanding> inbox_;
  std::size_t pending_ = 0;
  bool done_ = false;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
  std::thread thread_;
};

void sleep_until(double t) {
  while (true) {
    const double left = t - now_s();
    if (left <= 0.0) return;
    if (left > 200e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 100e-6));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Send every arrival of `phase` at its due time (origin + due).  An
/// arrival whose session is busy is deferred to the reply.
void dispatch(ServeSetup& su, Collector& col, PassResult& res, Phase phase,
              double origin, std::uint64_t seed) {
  for (const Arrival& a : su.arrivals) {
    if (a.phase != phase) continue;
    const double due = origin + a.due;
    sleep_until(due);
    const bool nominal = phase == Phase::Nominal;
    if (nominal) {
      res.nominal_scheduled += 1;
      res.lag_s.push_back(now_s() - due);
    }
    Session& s = su.sessions[a.session];
    {
      std::lock_guard lock(s.mutex);
      if (s.busy) {
        s.deferred.push_back({due, phase});
        if (nominal) res.nominal_deferred += 1;
        continue;
      }
      s.busy = true;
    }
    Outstanding o;
    if (!send(su, a.session, due, phase, seed, o,
              nominal ? &res.submit_s : nullptr)) {
      if (nominal) res.nominal_unsent += 1;
      std::lock_guard lock(s.mutex);
      s.busy = false;
      continue;
    }
    col.add(std::move(o));
  }
}

/// CPU seconds used so far by every thread of this process except the
/// load generator's two (the calling dispatcher and the collector).
double server_cpu_s(Collector& col) {
  return process_cpu_s() - thread_cpu_s(::pthread_self()) -
         thread_cpu_s(col.native_handle());
}

PassResult run_pass(const Options& opt, double seconds) {
  PassResult res;
  std::vector<double> setup;
  std::vector<double> init;
  std::unique_ptr<ServeSetup> su;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (su) su->server->stop();
    su.reset();
    const double t = now_s();
    su = std::make_unique<ServeSetup>(opt, seconds);
    setup.push_back(now_s() - t);
    init.push_back(su->model_init_s);
  }
  res.setup_s = median(setup);
  res.model_init_s = median(init);

  obs::set_thread_lane("loadgen dispatcher", 300);
  Collector col(*su, opt.seed, res);
  const double origin = now_s();
  dispatch(*su, col, res, Phase::Warmup, origin, opt.seed);
  res.before_nominal = su->server->counters();
  dispatch(*su, col, res, Phase::Nominal, origin, opt.seed);
  col.drain();
  res.after_nominal = su->server->counters();

  const double overload = now_s();
  const double overload_seconds = seconds * (1.0 - kNominalShare);
  col.set_overload_window(overload, overload + overload_seconds);
  const double cpu0 = server_cpu_s(col);
  for (std::size_t sid = 1; sid <= kOverloadSessions; ++sid) {
    {
      Session& s = su->sessions[sid];
      std::lock_guard lock(s.mutex);
      s.busy = true;  // every session is free after the drain
    }
    Outstanding o;
    if (!send(*su, sid, overload, Phase::Overload, opt.seed, o, nullptr)) {
      throw std::runtime_error("overload request refused");
    }
    col.add(std::move(o));
  }
  sleep_until(overload + overload_seconds);
  res.overload_server_cpu_s = server_cpu_s(col) - cpu0;
  res.overload_tokens = su->server->counters().tokens_generated -
                        res.after_nominal.tokens_generated;
  col.drain();
  res.overload_seconds = overload_seconds;
  res.after_overload = su->server->counters();
  col.finish();
  su->server->stop();

  for (std::size_t s = 1; s <= kReplaySessions; ++s) {
    res.replay.push_back(std::move(su->sessions[s].log));
  }
  return res;
}

/// Replay one session's conversation offline: a fresh replica, one
/// carried state, the served contexts and per-request seeds.  Returns
/// "" when every served token matches.
std::string replay_session(LmModel& model, const std::vector<Exchange>& log) {
  RecurrentState state;
  std::vector<Index> fed;  // tokens already stepped into `state`
  Tensor logits;
  GenerateOptions gopt;
  gopt.max_context = kMaxContext;
  for (std::size_t q = 0; q < log.size(); ++q) {
    const Exchange& e = log[q];
    const bool continues =
        !fed.empty() && e.context.size() > fed.size() &&
        std::equal(fed.begin(), fed.end(), e.context.begin());
    if (!continues) {
      state = model.initial_state(1);
      fed.clear();
    }
    std::vector<Index> out = e.context;
    for (std::size_t i = fed.size(); i < e.context.size(); ++i) {
      const Index tok = e.context[i];
      model.step(std::span<const Index>(&tok, 1), state, logits);
      fed.push_back(tok);
    }
    Rng rng(e.seed);
    while (out.size() < e.context.size() + kNewTokens) {
      const Index next = sample_from_logits(logits.row(0), gopt, rng);
      out.push_back(next);
      if (out.size() < e.context.size() + kNewTokens) {
        model.step(std::span<const Index>(&next, 1), state, logits);
        fed.push_back(next);
      }
    }
    if (out != e.tokens) {
      return "request " + std::to_string(q) + " of " +
             std::to_string(log.size()) + " differs from its offline replay";
    }
    // The next request's context ends with the last sampled token,
    // which has not been stepped yet.
  }
  return "";
}

std::uint64_t nominal_failed(const PassResult& res) {
  return res.nominal_unsent + res.nominal_unserved;
}

/// Generated tokens completed per second over the overload phase.
double capacity(const PassResult& res) {
  return static_cast<double>(res.overload_done * kNewTokens) /
         res.overload_seconds;
}

/// Tokens generated in the overload window per CPU second the server
/// spent in it.
double capacity_per_cpu_s(const PassResult& res) {
  return static_cast<double>(res.overload_tokens) /
         res.overload_server_cpu_s;
}

/// Per-layer metrics of one pass; `untraced` is the untraced pass (the
/// same one when not tracing).
void report(Record& rec, const PassResult& res, const PassResult& untraced) {
  const serve::ServeCounters& c0 = res.before_nominal;
  const serve::ServeCounters& c1 = res.after_nominal;
  const serve::ServeCounters& c2 = res.after_overload;
  const std::vector<double>& all = res.latency_s;
  const double n = static_cast<double>(all.size());
  const double p50 = median(all);
  rec.set("serve.p50_ms", 1e3 * p50, "ms");
  rec.set("serve.p99_ms", 1e3 * quantile(all, 0.99), "ms");
  rec.set("serve.fail_ratio",
          res.nominal_scheduled == 0
              ? 0.0
              : static_cast<double>(nominal_failed(res)) /
                    static_cast<double>(res.nominal_scheduled),
          "ratio");
  rec.set("serve.submit_us", 1e6 * median(res.submit_s), "us");
  rec.set("serve.queue_ms.p50", 1e3 * c1.queue_latency.percentile(0.50), "ms");
  rec.set("serve.queue_ms.p99", 1e3 * c1.queue_latency.percentile(0.99), "ms");
  rec.set("serve.step_ms", 1e3 * c2.token_latency.percentile(0.50), "ms");
  rec.set("serve.batch_occupancy",
          c2.batch_steps == c1.batch_steps
              ? 0.0
              : static_cast<double>(c2.batched_streams - c1.batched_streams) /
                    static_cast<double>(c2.batch_steps - c1.batch_steps),
          "count");
  const double lookups = static_cast<double>(
      (c1.cache_hits - c0.cache_hits) + (c1.cache_misses - c0.cache_misses));
  rec.set("serve.cache_hit_ratio",
          lookups == 0.0
              ? 0.0
              : static_cast<double>(c1.cache_hits - c0.cache_hits) / lookups,
          "ratio");
  const double admitted =
      static_cast<double>(c1.requests_admitted - c0.requests_admitted);
  rec.set("serve.primed_tokens_per_req",
          admitted == 0.0 ? 0.0
                          : static_cast<double>(c1.context_tokens_primed -
                                                c0.context_tokens_primed) /
                                admitted,
          "tokens");
  rec.set("loadgen.lag_ms.p99", 1e3 * quantile(res.lag_s, 0.99), "ms");
  rec.set("loadgen.deferred_ratio",
          res.nominal_scheduled == 0
              ? 0.0
              : static_cast<double>(res.nominal_deferred) /
                    static_cast<double>(res.nominal_scheduled),
          "ratio");
  rec.set("nn.model_init_ms", 1e3 * res.model_init_s, "ms");
  rec.set("obs.trace_overhead_ratio",
          p50 > 0.0 ? p50 / median(untraced.latency_s) : 0.0, "ratio");
  rec.set("wall_tokens_per_s", capacity(untraced), "tokens/s");
  rec.set("support.pool_threads",
          static_cast<double>(ThreadPool::global().size()), "count");
  rec.note("serve.latency_samples", std::to_string(all.size()));
  rec.note("serve.latency_ms.quantiles", quantiles_text(all, 1e3));
  rec.note("serve.p99_supported", n >= 1000.0 ? "yes" : "no");
}

}  // namespace

void zero_serve_layers(Record& rec) {
  for (const char* name :
       {"serve.p50_ms", "serve.p99_ms", "serve.queue_ms.p50",
        "serve.queue_ms.p99", "serve.step_ms", "loadgen.lag_ms.p99"}) {
    rec.set(name, 0.0, "ms");
  }
  rec.set("serve.fail_ratio", 0.0, "ratio");
  rec.set("loadgen.deferred_ratio", 0.0, "ratio");
  rec.set("serve.submit_us", 0.0, "us");
  rec.set("serve.batch_occupancy", 0.0, "count");
  rec.set("serve.cache_hit_ratio", 0.0, "ratio");
  rec.set("serve.primed_tokens_per_req", 0.0, "tokens");
}

void run_serve_zipf(const Options& opt, Record& rec) {
  PassResult res = run_pass(opt, opt.untraced_seconds());

  // Correctness: replay the hottest sessions offline.
  CharLm model(model_config(opt.seed));
  if (opt.diverge == "replay") {
    for (auto& log : res.replay) {
      if (!log.empty()) {
        log.back().tokens.back() = (log.back().tokens.back() + 1) % model.vocab();
        break;
      }
    }
  }
  std::size_t replayed = 0;
  for (std::size_t s = 0; s < res.replay.size(); ++s) {
    const std::string err = replay_session(model, res.replay[s]);
    if (!err.empty()) {
      rec.fail_check("serve_replay",
                     "session " + std::to_string(s + 1) + ": " + err);
    }
    replayed += res.replay[s].size();
  }
  if (replayed == 0) rec.fail_check("serve_replay", "no request to replay");
  rec.note("serve.replayed_requests", std::to_string(replayed));
  double weight_bytes = 0.0;
  for (const Param* p : model.all_params()) {
    weight_bytes += static_cast<double>(p->value.bytes());
  }
  rec.note("serve.weights_mib_per_replica",
           std::to_string(weight_bytes / (1024.0 * 1024.0)));

  rec.set("setup_s", res.setup_s, "s");
  rec.set("peak_rss_mb", peak_rss_mib(), "MiB");
  rec.set("tokens_per_cpu_s", capacity_per_cpu_s(res), "tokens/cpu-s");
  rec.note("serve.wall_tokens_per_s", std::to_string(capacity(res)));
  rec.attempted = res.nominal_scheduled;
  rec.failed = nominal_failed(res);
  if (!opt.trace) {
    report(rec, res, res);
    return;
  }

  obs::trace_clear();
  obs::trace_enable(true);
  const PassResult traced = run_pass(opt, opt.traced_seconds());
  obs::trace_enable(false);
  const std::string path = opt.out_dir + "/trace_" + opt.workload + "_seed" +
                           std::to_string(opt.seed) + ".json";
  obs::write_chrome_trace_file(path);
  rec.note("trace", path);
  report(rec, traced, res);
  zero_train_layers(rec);
}

}  // namespace zlmbench

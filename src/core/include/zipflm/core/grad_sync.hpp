// Dense-parameter gradient synchronization (the vision-style ALLREDUCE
// of Section II-B), with optional FP16 compression-scaling on the wire
// (Section III-C).
//
// One path: begin_step()/notify_ready()/finish().  The dense parameters
// are grouped into fixed-byte buckets in reverse-backprop order (last
// layer first), and a bucket's collectives are handed to a per-rank
// AsyncCommEngine the moment its last parameter's backward completes,
// so wire time hides under the remaining backward compute (on a
// single-hardware-thread host the engine runs each bucket inline at
// launch).  Buckets batch the LAUNCH, not the wire: inside a bucket
// each parameter still runs its own allreduce, in plan order, so the
// reduced bytes and the collective count never depend on the bucket
// size.  Bucket boundaries depend only on the parameter list and
// bucket_bytes — never on timing.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "zipflm/comm/async_exchange.hpp"
#include "zipflm/comm/communicator.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/nn/param.hpp"
#include "zipflm/tensor/half.hpp"

namespace zipflm {

class DenseGradSync {
 public:
  /// Each bucket ALLREDUCE-sums its parameters' gradients and divides
  /// by world size (data-parallel averaging).  FP16 mode down-casts with
  /// compression-scaling before the wire and up-casts after; a gradient
  /// wire codec in the options is armed around the allreduces.
  explicit DenseGradSync(ExchangeOptions options = {}) : options_(options) {}

  /// Re-point the wire options (precision / codec / scale) for
  /// subsequent steps — the adaptive selector's hook, called per rank
  /// before begin_step.  Must not be called while a step is armed.
  void set_wire_options(const ExchangeOptions& options) noexcept {
    options_ = options;
  }

  /// Target bucket payload (bytes of FP32 gradient).  Buckets are
  /// parameter-granular: a parameter larger than the target gets its
  /// own bucket.  Takes effect at the next begin_step.
  void set_bucket_bytes(std::size_t bytes) noexcept { bucket_bytes_ = bytes; }

  /// Arm one step: (re)build the bucket plan over reverse(params) —
  /// reverse-backprop order, so bucket 0 holds the parameters whose
  /// gradients finalize first — and reset per-bucket completion counts.
  /// The engine must flush through finish() before `params` gradients
  /// are read.  The plan is cached: same parameter list, same buckets.
  void begin_step(Communicator& comm, AsyncCommEngine& engine,
                  std::span<Param* const> params);

  /// Mark one parameter's gradient final (call from the layer's
  /// backward-completion hook, on the rank's main thread).  Launches
  /// the parameter's bucket once every member has reported.  Unknown
  /// parameters (not in the armed plan) are ignored.
  void notify_ready(const Param* param);

  /// Launch any buckets still incomplete (in plan order), drain the
  /// engine, and disarm.  After this every gradient in `params` is the
  /// world-averaged value.
  void finish();

  /// Buckets in the current (cached) plan — 0 before any begin_step.
  std::size_t plan_buckets() const noexcept { return plan_.size(); }

  /// Drop the armed engine without draining it — the exception path
  /// (e.g. a rank death unwinding the epoch), where the engine is about
  /// to be destroyed anyway.  No-op when not armed.
  void disarm() noexcept { engine_ = nullptr; }

 private:
  struct Bucket {
    std::vector<Param*> params;   ///< plan order (reverse backprop)
    std::size_t floats = 0;
    std::size_t pending = 0;      ///< params not yet notified this step
    bool launched = false;
    // Persistent FP16 wire scratch so the comm thread never allocates
    // per step (a fresh multi-MiB vector per bucket per step would
    // page-fault its way through the gradient footprint every
    // iteration).
    std::vector<Half> wire;
  };

  void rebuild_plan(std::span<Param* const> params);
  void launch_bucket(std::size_t index);
  void run_bucket(Communicator& comm, std::size_t index);

  ExchangeOptions options_;
  std::size_t bucket_bytes_ = std::size_t{4} << 20;

  std::vector<Bucket> plan_;
  std::vector<Param*> plan_params_;   ///< the list the plan was built on
  std::size_t plan_bucket_bytes_ = 0;
  std::unordered_map<const Param*, std::size_t> bucket_of_;
  AsyncCommEngine* engine_ = nullptr;  ///< non-null while armed
};

}  // namespace zipflm

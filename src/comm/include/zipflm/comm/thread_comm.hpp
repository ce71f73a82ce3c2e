// In-process multi-rank runtime: one OS thread per simulated GPU rank,
// each driving a TransportComm endpoint of a per-run message-passing
// mesh (in-memory queues or a socketpair mesh).
//
// This is the substitution for the paper's 50-node MPI cluster.  The
// collectives move real data through the real ring schedule (so byte
// accounting, chunking and reduction order are faithful), while the
// CostModel converts the per-step transfer sizes into simulated seconds
// on the paper's interconnects.  There is one collective engine:
// CommWorld ranks, socketpair ranks and multi-process ProcessGroup ranks
// all run transport_comm.cpp's rings.
//
// Besides the world communicator, every rank can obtain MPI-style
// sub-communicators (Communicator::node_comm / leader_comm) spanning its
// node and the set of node leaders — the building blocks of hierarchical
// collectives (see hierarchical.hpp).  Each is an endpoint of its own
// per-run mesh, booking into the rank's ledger and fault cursor.
//
// Fault tolerance: a FaultPlan injects rank failures at a chosen
// collective call — Kill (the rank silently stops participating, like a
// crashed process), Delay (a straggler), or Corrupt (the rank's
// contribution to a floating-point allreduce is poisoned with NaNs).  A
// killed rank closes its endpoints, so it surfaces as
// CollectiveTimeoutError on every survivor at once (no collective
// timeout needed), the dead rank is retired from the world, and the
// next run() proceeds over the survivors only.  A collective timeout
// bounds the wait on a straggler.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "zipflm/comm/communicator.hpp"
#include "zipflm/comm/cost_model.hpp"

namespace zipflm {

struct TransportFault;

enum class FaultKind : std::uint8_t {
  Kill,     ///< rank stops participating (no abort, no exception escapes)
  Delay,    ///< rank sleeps delay_seconds before the collective
  /// The rank's contribution to its first floating-point allreduce (FP32
  /// or FP16 sum, or max) at or after `at_collective` is overwritten
  /// with 0xFF (NaN) bytes.  Only float payloads can carry a NaN, so a
  /// Corrupt landing on a barrier, an allgather(v), an alltoallv or a
  /// broadcast waits for the next float allreduce and leaves those
  /// collectives intact.
  Corrupt,
};

/// One injected fault: fires when `rank` enters its `at_collective`-th
/// collective call (0-based, counted per rank across the world's whole
/// lifetime, sub-communicator calls included), then disarms.  Corrupt
/// fires at the first floating-point allreduce from that call on.
struct FaultEvent {
  int rank = -1;
  FaultKind kind = FaultKind::Kill;
  std::uint64_t at_collective = 0;
  double delay_seconds = 0.0;  ///< Delay only
};

struct FaultPlan {
  std::vector<FaultEvent> events;
};

/// Internal signal thrown inside a killed rank's collective.  Not
/// derived from zipflm::Error on purpose: user code catching Error must
/// not be able to swallow a simulated process death.
struct SimulatedRankDeath {
  int rank = -1;
};

/// Which mesh carries CommWorld's collectives.  Both run the same
/// TransportComm rings, so results are bitwise identical.
enum class CommBackend : std::uint8_t {
  /// In-memory message queues (net::InProcHub): deterministic, no
  /// kernel involvement.
  InProcNet,
  /// Real socketpair fds: every collective byte crosses the kernel with
  /// genuine backpressure and partial transfers.
  Socket,
};

class CommWorld {
 public:
  struct Options {
    Topology topo;        ///< defaults to one 8-GPU node sized to world
    CostModel cost;       ///< defaults to the paper's Titan X cluster
    bool topo_set = false;
    /// Maximum wall time one collective wait may take before the rank
    /// throws CollectiveTimeoutError.  0 = wait forever.
    double collective_timeout_seconds = 0.0;
    CommBackend backend = CommBackend::InProcNet;
    Options() : cost(CostModel::titan_x_cluster()) {}
  };

  explicit CommWorld(int world_size, Options options = Options());

  CommWorld(const CommWorld&) = delete;
  CommWorld& operator=(const CommWorld&) = delete;

  /// Live (non-retired) rank count — the size every collective runs at.
  int world_size() const noexcept { return static_cast<int>(live_.size()); }
  /// Rank count the world was built with, dead ranks included.
  int total_ranks() const noexcept { return world_size_; }
  /// Global ids of the live ranks, ascending.  run() executes fn once
  /// per entry; Communicator::rank() is the dense index into this list.
  const std::vector<int>& live_ranks() const noexcept { return live_; }
  /// Global ids of ranks retired by Kill faults, in death order.
  const std::vector<int>& failed_ranks() const noexcept { return failed_; }

  const Topology& topology() const noexcept { return topo_; }
  const CostModel& cost_model() const noexcept { return cost_; }
  CommBackend backend() const noexcept { return backend_; }

  /// Arm (replacing any previous plan) the given fault schedule.  Only
  /// call between run() invocations.
  void inject_faults(FaultPlan plan);
  /// (Re)configure the collective timeout; 0 disables.  Only call
  /// between run() invocations.
  void set_collective_timeout(double seconds);
  double collective_timeout() const noexcept { return timeout_seconds_; }

  /// Execute fn(comm) concurrently on every live rank and join.  Each
  /// rank closes its endpoints when fn returns or throws, so a failing
  /// rank never leaves its peers blocked; the lowest-rank originating
  /// exception is rethrown here.  A rank killed by a FaultPlan is
  /// retired before this returns: the survivors' CollectiveTimeoutError
  /// is rethrown, and the next run() spans the remaining ranks only.
  void run(const std::function<void(Communicator&)>& fn);

  /// Per-rank traffic accounting for the most recent / cumulative runs.
  const TrafficLedger& ledger(int rank) const;
  TrafficLedger total_ledger() const;
  /// Maximum over ranks of simulated communication seconds — the
  /// critical-path figure the performance model consumes.
  double max_simulated_comm_seconds() const;
  void reset_ledgers();

 private:
  /// Advance `global_rank`'s collective counter and return the fault (if
  /// any) due at this call — the fault hook of every communicator of
  /// that rank.  Called only from the thread currently driving that
  /// rank's collectives.
  TransportFault next_fault(int global_rank, bool float_allreduce);

  /// Epilogue of run(): retire died ranks (re-forming the survivors
  /// into a flat single-node topology, as NCCL re-forms a communicator
  /// after a rank loss) and rethrow, preferring an originating error
  /// over the CollectiveTimeoutError its closed endpoints caused.
  void finish_run(std::vector<int>& died,
                  std::vector<std::exception_ptr>& errors);

  const int world_size_;
  Topology topo_;
  CostModel cost_;
  CommBackend backend_;
  double timeout_seconds_ = 0.0;
  std::vector<TrafficLedger> ledgers_;
  std::vector<int> live_;    ///< global ids, ascending
  std::vector<int> failed_;  ///< retired ranks, in death order
  FaultPlan plan_;
  /// One byte per plan_.events entry; only the event's own rank thread
  /// touches its flag during run() (next_fault filters on rank first).
  std::vector<std::uint8_t> plan_consumed_;
  std::vector<std::uint64_t> fault_cursor_;  ///< per-rank collective count
  /// Per rank: a Corrupt has fired and waits for a float allreduce.
  std::vector<std::uint8_t> corrupt_armed_;
};

}  // namespace zipflm

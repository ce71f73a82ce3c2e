#include "zipflm/comm/thread_comm.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "comm_internal.hpp"
#include "zipflm/comm/transport_comm.hpp"
#include "zipflm/net/inproc.hpp"
#include "zipflm/net/socket.hpp"
#include "zipflm/obs/trace.hpp"

namespace zipflm {

using comm_internal::CommMetrics;

namespace {

using Mesh = std::vector<std::unique_ptr<net::Transport>>;

/// One endpoint per member of a fresh fully-connected mesh of `size`.
Mesh make_mesh(CommBackend backend, int size, double timeout_seconds) {
  Mesh mesh;
  if (backend == CommBackend::Socket) {
    mesh = net::socketpair_mesh(size);
  } else {
    net::InProcHub hub(size);
    mesh.reserve(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) mesh.push_back(hub.endpoint(r));
  }
  for (auto& ep : mesh) ep->set_timeout_seconds(timeout_seconds);
  return mesh;
}

}  // namespace

CommWorld::CommWorld(int world_size, Options options)
    : world_size_(world_size),
      topo_(options.topo_set ? options.topo : Topology::for_world(world_size)),
      cost_(options.cost),
      backend_(options.backend),
      ledgers_(static_cast<std::size_t>(world_size)),
      fault_cursor_(static_cast<std::size_t>(world_size), 0),
      corrupt_armed_(static_cast<std::size_t>(world_size), 0) {
  ZIPFLM_CHECK(world_size > 0, "world size must be positive");
  ZIPFLM_CHECK(topo_.world_size() == world_size,
               "topology must match world size");
  set_collective_timeout(options.collective_timeout_seconds);
  live_.resize(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    live_[static_cast<std::size_t>(r)] = r;
  }
}

void CommWorld::inject_faults(FaultPlan plan) {
  for (const FaultEvent& e : plan.events) {
    ZIPFLM_CHECK(e.rank >= 0 && e.rank < world_size_,
                 "fault plan rank out of range");
    ZIPFLM_CHECK(e.kind != FaultKind::Delay || e.delay_seconds >= 0.0,
                 "fault delay must be non-negative");
  }
  plan_ = std::move(plan);
  plan_consumed_.assign(plan_.events.size(), 0);
  std::fill(corrupt_armed_.begin(), corrupt_armed_.end(), 0);
}

void CommWorld::set_collective_timeout(double seconds) {
  ZIPFLM_CHECK(seconds >= 0.0, "collective timeout must be non-negative");
  timeout_seconds_ = seconds;
}

TransportFault CommWorld::next_fault(int global_rank, bool float_allreduce) {
  // Only one thread at a time drives global_rank's collectives (its own,
  // or its comm thread behind the engine's queue mutex), so the per-rank
  // state needs no synchronization; the plan is immutable during run().
  const auto gr = static_cast<std::size_t>(global_rank);
  const std::uint64_t call = fault_cursor_[gr]++;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    // Filter on rank FIRST: a consumed flag is then only ever touched
    // by its own event's rank, so concurrent ranks never race.
    if (e.rank != global_rank || e.at_collective != call ||
        plan_consumed_[i] != 0) {
      continue;
    }
    plan_consumed_[i] = 1;
    if (e.kind != FaultKind::Corrupt) {
      return TransportFault{e.kind, e.delay_seconds, true};
    }
    corrupt_armed_[gr] = 1;
    break;
  }
  if (float_allreduce && corrupt_armed_[gr] != 0) {
    corrupt_armed_[gr] = 0;
    return TransportFault{FaultKind::Corrupt, 0.0, true};
  }
  return TransportFault{};
}

void CommWorld::run(const std::function<void(Communicator&)>& fn) {
  const int live = world_size();
  const int gpn = topo_.gpus_per_node;
  // Fresh meshes per run: streams poisoned by a failed or timed-out
  // previous run are discarded wholesale.  Besides the world mesh, one
  // mesh per node and, across nodes, one over the node leaders.
  Mesh world = make_mesh(backend_, live, timeout_seconds_);
  std::vector<Mesh> nodes;
  for (int n = 0; n < topo_.nodes; ++n) {
    nodes.push_back(make_mesh(backend_, gpn, timeout_seconds_));
  }
  Mesh leaders;
  if (topo_.nodes > 1) {
    leaders = make_mesh(backend_, topo_.nodes, timeout_seconds_);
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(live));
  std::vector<int> died;
  std::mutex died_mutex;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(live));
  for (int i = 0; i < live; ++i) {
    threads.emplace_back([&, i] {
      const int global = live_[static_cast<std::size_t>(i)];
#if ZIPFLM_TRACE
      // Lanes are keyed by global rank, so a rank's events land in the
      // same Perfetto track across every run() of its lifetime.
      obs::set_thread_lane("rank " + std::to_string(global), global);
#endif
      const int node = topo_.node_of(i);
      net::Transport& world_ep = *world[static_cast<std::size_t>(i)];
      net::Transport& node_ep = *nodes[static_cast<std::size_t>(node)]
                                      [static_cast<std::size_t>(i % gpn)];
      net::Transport* leader_ep =
          leaders.empty() || i % gpn != 0
              ? nullptr
              : leaders[static_cast<std::size_t>(node)].get();

      // Every communicator of the rank books into its ledger and polls
      // its fault cursor, so a FaultEvent counts sub-communicator
      // collectives too.
      TransportComm::Hooks hooks;
      hooks.ledger = &ledgers_[static_cast<std::size_t>(global)];
      hooks.cost = &cost_;
      hooks.global_rank = global;
      hooks.fault = [this, global](bool float_allreduce) {
        return next_fault(global, float_allreduce);
      };
      std::optional<TransportComm> leader_comm;
      if (leader_ep != nullptr) {
        leader_comm.emplace(*leader_ep, Topology{topo_.nodes, 1}, hooks);
      }
      TransportComm node_comm(node_ep, Topology{1, gpn}, hooks);
      hooks.node = &node_comm;
      hooks.leader = leader_comm ? &*leader_comm : nullptr;
      TransportComm comm(world_ep, topo_, std::move(hooks));
      try {
        fn(comm);
      } catch (const SimulatedRankDeath& death) {
        // A killed rank dies silently; closing its endpoints below is
        // what the survivors observe — as PeerClosedError, i.e.
        // CollectiveTimeoutError, the same signal a dead process gives
        // over a real wire.
        std::scoped_lock lock(died_mutex);
        died.push_back(death.rank);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
      // Close on every exit path: success (peers may still drain what
      // we already sent), death, and error (peers unblock instead of
      // waiting out their timeout).
      world_ep.close();
      node_ep.close();
      if (leader_ep != nullptr) leader_ep->close();
    });
  }
  for (auto& t : threads) t.join();
  finish_run(died, errors);
}

void CommWorld::finish_run(std::vector<int>& died,
                           std::vector<std::exception_ptr>& errors) {
  // Retire killed ranks before rethrowing, so the caller can roll back
  // and immediately re-run over the survivors.
  if (!died.empty()) {
    std::sort(died.begin(), died.end());
    auto& m = CommMetrics::get();
    for (const int r : died) {
      failed_.push_back(r);
      live_.erase(std::remove(live_.begin(), live_.end(), r), live_.end());
      ZIPFLM_TRACE_INSTANT("rank_retired", "rank", static_cast<double>(r));
      m.ranks_retired.add(1);
    }
    ZIPFLM_CHECK(!live_.empty(),
                 "no surviving ranks in the communicator world");
    // The survivors no longer fill whole nodes: the degraded world is
    // re-formed flat (the degraded schedule makes no locality promises).
    topo_ = Topology{1, world_size()};
    ZIPFLM_TRACE_INSTANT("world_rebuilt", "live_ranks",
                         static_cast<double>(live_.size()));
    m.world_rebuilds.add(1);
  }

  // Prefer the originating error over victims: a rank failing for any
  // reason closes its endpoints, and every peer blocked on it then
  // surfaces the loss as CollectiveTimeoutError.
  std::exception_ptr any;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!any) any = e;
    try {
      std::rethrow_exception(e);
    } catch (const CollectiveTimeoutError&) {
      // victim; keep looking for the root cause
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (any) std::rethrow_exception(any);
}

const TrafficLedger& CommWorld::ledger(int rank) const {
  ZIPFLM_CHECK(rank >= 0 && rank < world_size_, "ledger rank out of range");
  return ledgers_[static_cast<std::size_t>(rank)];
}

TrafficLedger CommWorld::total_ledger() const {
  TrafficLedger total;
  for (const auto& l : ledgers_) total += l;
  return total;
}

double CommWorld::max_simulated_comm_seconds() const {
  double mx = 0.0;
  for (const auto& l : ledgers_) {
    mx = std::max(mx, l.simulated_comm_seconds);
  }
  return mx;
}

void CommWorld::reset_ledgers() {
  for (auto& l : ledgers_) l.reset();
}

}  // namespace zipflm

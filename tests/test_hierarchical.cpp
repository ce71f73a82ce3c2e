// Sub-communicators and the two-level allreduce, on both CommWorld
// meshes (in-memory queues and socketpairs).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>

#include "zipflm/comm/hierarchical.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/support/rng.hpp"

namespace zipflm {
namespace {

CommWorld::Options single_node(CommBackend backend) {
  CommWorld::Options o;
  o.backend = backend;
  return o;
}

CommWorld::Options multi_node(CommBackend backend, int nodes,
                              int gpus_per_node) {
  CommWorld::Options o = single_node(backend);
  o.topo = Topology{nodes, gpus_per_node};
  o.topo_set = true;
  return o;
}

std::string backend_name(CommBackend backend) {
  return backend == CommBackend::Socket ? "Socket" : "InProcNet";
}

std::string backend_param_name(
    const ::testing::TestParamInfo<CommBackend>& info) {
  return backend_name(info.param);
}

const auto kBackends =
    ::testing::Values(CommBackend::InProcNet, CommBackend::Socket);

class SubComm : public ::testing::TestWithParam<CommBackend> {};
INSTANTIATE_TEST_SUITE_P(Backends, SubComm, kBackends, backend_param_name);

TEST_P(SubComm, NodeCommSpansTheNode) {
  CommWorld world(8, multi_node(GetParam(), 2, 4));
  world.run([&](Communicator& comm) {
    Communicator* node = comm.node_comm();
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->world_size(), 4);
    EXPECT_EQ(node->rank(), comm.rank() % 4);
    EXPECT_EQ(node->topology().nodes, 1);
  });
}

TEST_P(SubComm, LeaderCommOnlyOnLeaders) {
  CommWorld world(8, multi_node(GetParam(), 2, 4));
  world.run([&](Communicator& comm) {
    Communicator* leaders = comm.leader_comm();
    if (comm.rank() % 4 == 0) {
      ASSERT_NE(leaders, nullptr);
      EXPECT_EQ(leaders->world_size(), 2);
      EXPECT_EQ(leaders->rank(), comm.rank() / 4);
    } else {
      EXPECT_EQ(leaders, nullptr);
    }
  });
}

TEST_P(SubComm, SingleNodeHasNoLeaderComm) {
  CommWorld world(4, single_node(GetParam()));
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.leader_comm(), nullptr);
    ASSERT_NE(comm.node_comm(), nullptr);
    EXPECT_EQ(comm.node_comm()->world_size(), 4);
  });
}

TEST_P(SubComm, NodeAllReduceSumsWithinNodeOnly) {
  CommWorld world(8, multi_node(GetParam(), 2, 4));
  world.run([&](Communicator& comm) {
    std::vector<float> data(16, static_cast<float>(comm.rank() + 1));
    comm.node_comm()->allreduce_sum(std::span<float>(data));
    // Node 0: ranks 0-3 -> sum 10; node 1: ranks 4-7 -> sum 26.
    const float expect = comm.rank() < 4 ? 10.0f : 26.0f;
    for (float v : data) ASSERT_EQ(v, expect);
  });
}

TEST_P(SubComm, SubGroupsAreReusableAcrossSteps) {
  CommWorld world(8, multi_node(GetParam(), 2, 4));
  world.run([&](Communicator& comm) {
    for (int step = 0; step < 5; ++step) {
      std::vector<float> data(3, 1.0f);
      comm.node_comm()->allreduce_sum(std::span<float>(data));
      ASSERT_EQ(data[0], 4.0f);
    }
  });
}

using ShapeAndBackend = std::tuple<std::pair<int, int>, CommBackend>;

std::string shape_name(const ::testing::TestParamInfo<ShapeAndBackend>& info) {
  const auto [shape, backend] = info.param;
  return std::to_string(shape.first) + "x" + std::to_string(shape.second) +
         backend_name(backend);
}

class HierarchicalWorlds : public ::testing::TestWithParam<ShapeAndBackend> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchicalWorlds,
    ::testing::Combine(::testing::Values(std::pair{1, 4}, std::pair{2, 2},
                                         std::pair{2, 4}, std::pair{3, 2},
                                         std::pair{4, 4}),
                       kBackends),
    shape_name);

TEST_P(HierarchicalWorlds, MatchesFlatAllReduce) {
  const auto [shape, backend] = GetParam();
  const auto [nodes, gpn] = shape;
  const int g = nodes * gpn;
  for (const std::size_t n : {1u, 7u, 64u, 333u}) {
    std::vector<std::vector<float>> flat(static_cast<std::size_t>(g));
    std::vector<std::vector<float>> hier(static_cast<std::size_t>(g));
    for (const bool hierarchical : {false, true}) {
      CommWorld world(g, multi_node(backend, nodes, gpn));
      world.run([&](Communicator& comm) {
        std::vector<float> data(n);
        Rng rng(500 + static_cast<std::uint64_t>(comm.rank()));
        for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        if (hierarchical) {
          hierarchical_allreduce_sum(comm, std::span<float>(data));
          hier[static_cast<std::size_t>(comm.rank())] = data;
        } else {
          comm.allreduce_sum(std::span<float>(data));
          flat[static_cast<std::size_t>(comm.rank())] = data;
        }
      });
    }
    for (int r = 0; r < g; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      ASSERT_EQ(hier[ri].size(), flat[ri].size());
      for (std::size_t i = 0; i < n; ++i) {
        // Different reduction trees: tolerance, not bit equality.
        EXPECT_NEAR(hier[ri][i], flat[ri][i], 1e-4f)
            << "rank " << r << " i " << i;
      }
      // All ranks agree bitwise within one scheme.
      EXPECT_EQ(hier[ri], hier[0]);
    }
  }
}

class Hierarchical : public ::testing::TestWithParam<CommBackend> {};
INSTANTIATE_TEST_SUITE_P(Backends, Hierarchical, kBackends,
                         backend_param_name);

TEST_P(Hierarchical, Fp16VariantSums) {
  CommWorld world(4, multi_node(GetParam(), 2, 2));
  world.run([&](Communicator& comm) {
    std::vector<Half> data(10, Half(1.5f));
    hierarchical_allreduce_sum(comm, std::span<Half>(data));
    for (const Half h : data) {
      ASSERT_NEAR(static_cast<float>(h), 6.0f, 0.01f);
    }
  });
}

TEST_P(Hierarchical, WinsWhenIntraNodeLinksAreMuchFaster) {
  // The two-level scheme trades 2.5 extra intra-node passes for cutting
  // the fabric traffic from 2(G-1)/G to 2(N-1)/N of the buffer, so it
  // wins only when intra/inter bandwidth ratio is large (NVLink-class).
  // It *loses* on the paper's PCIe cluster (ratio ~2) — the ablation
  // bench quantifies the crossover; here we pin both sides.
  const std::size_t n = 1 << 18;
  auto measure = [&](double intra_Bps, bool hierarchical) {
    CommWorld::Options o = multi_node(GetParam(), 4, 4);
    o.cost.intra_node = LinkParams{3e-6, intra_Bps};
    o.cost.inter_node = LinkParams{2e-6, 6e9};
    CommWorld world(16, o);
    world.run([&](Communicator& comm) {
      std::vector<float> data(n, 1.0f);
      if (hierarchical) {
        hierarchical_allreduce_sum(comm, std::span<float>(data));
      } else {
        comm.allreduce_sum(std::span<float>(data));
      }
    });
    return world.max_simulated_comm_seconds();
  };
  // NVLink-class node (120 GB/s vs 6 GB/s fabric): hierarchy wins.
  EXPECT_LT(measure(120e9, true), measure(120e9, false));
  // PCIe-class node (12.8 GB/s): the flat ring wins on bandwidth.
  EXPECT_GT(measure(12.8e9, true), measure(12.8e9, false));
}

TEST_P(Hierarchical, FallsBackToFlatOnSingleNode) {
  CommWorld world(4, single_node(GetParam()));
  world.run([&](Communicator& comm) {
    std::vector<float> data(8, 2.0f);
    hierarchical_allreduce_sum(comm, std::span<float>(data));
    for (float v : data) ASSERT_EQ(v, 8.0f);
  });
}

TEST_P(Hierarchical, KillInNodeCollectiveRetiresRankWithoutHanging) {
  // 2 nodes x 2 GPUs.  Rank 1 (node 0, not a leader) dies at its second
  // collective — the node allreduce inside hierarchical_allreduce_sum,
  // counted on the same per-rank cursor as the world barrier before it.
  // Its closed endpoints reach every survivor: rank 0 on the node mesh,
  // rank 2 through the leader allreduce, rank 3 through the node
  // broadcast.  The timeout is only a safety net: the loss must surface
  // long before it.
  CommWorld::Options o = multi_node(GetParam(), 2, 2);
  o.collective_timeout_seconds = 60.0;
  CommWorld world(4, o);
  FaultPlan plan;
  plan.events.push_back({.rank = 1, .kind = FaultKind::Kill,
                         .at_collective = 1});
  world.inject_faults(plan);

  std::atomic<int> survivors_failed{0};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(world.run([&](Communicator& comm) {
    comm.barrier();
    std::vector<float> data(64, 1.0f);
    try {
      hierarchical_allreduce_sum(comm, std::span<float>(data));
    } catch (const CollectiveTimeoutError&) {
      survivors_failed.fetch_add(1);
      throw;
    }
  }),
               CollectiveTimeoutError);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            30.0);
  EXPECT_EQ(survivors_failed.load(), 3);
  EXPECT_EQ(world.failed_ranks(), (std::vector<int>{1}));
  EXPECT_EQ(world.live_ranks(), (std::vector<int>{0, 2, 3}));

  // The survivors form one flat node: the hierarchy falls back to the
  // flat ring and still sums exactly.
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.leader_comm(), nullptr);
    std::vector<float> data(5, 1.0f);
    hierarchical_allreduce_sum(comm, std::span<float>(data));
    for (float v : data) ASSERT_EQ(v, 3.0f);
  });
}

}  // namespace
}  // namespace zipflm

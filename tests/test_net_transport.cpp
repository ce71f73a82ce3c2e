// zipflm::net transport layer and the collectives re-plumbed over it.
//
// Three strata:
//  * Transport semantics — rendezvous handshake, nonblocking completion,
//    partial bidirectional transfers without deadlock, recv timeouts,
//    and the drain-then-PeerClosedError failure order, on both the
//    in-process oracle and the real socket backend.
//  * Collectives — a battery of every collective family run under the
//    InProcNet and Socket CommWorld backends must match the serial
//    reference (collective_reference.hpp) bitwise, with identical
//    payload ledgers and nonzero measured wire bytes on both.
//  * Trainer parity — a DistributedTrainer run over the socketpair mesh
//    reproduces the in-memory mesh's losses and weights exactly, at G in
//    {1, 4} and FP32/FP16 wire.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "zipflm/comm/process_group.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/net/inproc.hpp"
#include "zipflm/net/socket.hpp"
#include "zipflm/net/transport.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/tensor/half.hpp"

#include "collective_reference.hpp"

namespace zipflm {
namespace {

std::span<const std::byte> bytes_of(const auto& v) {
  return std::as_bytes(std::span(v));
}

std::span<std::byte> writable_bytes_of(auto& v) {
  return std::as_writable_bytes(std::span(v));
}

// -- Transport semantics: in-process oracle ---------------------------

TEST(InProcTransport, EndpointIdentityAndVacuousEmptyOps) {
  net::InProcHub hub(3);
  EXPECT_EQ(hub.world_size(), 3);
  auto ep0 = hub.endpoint(0);
  auto ep2 = hub.endpoint(2);
  EXPECT_EQ(ep0->rank(), 0);
  EXPECT_EQ(ep0->world_size(), 3);
  EXPECT_STREQ(ep0->kind(), "inproc");

  // Zero-byte messages complete vacuously, without touching a channel.
  std::vector<std::byte> empty;
  auto c = ep0->send(2, bytes_of(empty));
  EXPECT_FALSE(c.valid());
  EXPECT_TRUE(c.done());
  c.wait();  // must be a no-op
  EXPECT_EQ(ep0->stats().wire_bytes_sent, 0u);

  // Self-sends and out-of-range peers are caller bugs.
  std::vector<std::byte> one(1);
  EXPECT_THROW(ep0->send(0, bytes_of(one)), Error);
  EXPECT_THROW((void)ep2->recv(3, writable_bytes_of(one)), Error);
}

TEST(InProcTransport, NonblockingRecvCompletesWhenMessageArrives) {
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);

  // Post the receive BEFORE the send exists: completion must be deferred.
  std::vector<int> in(4, 0);
  auto recvd = ep1->recv(0, writable_bytes_of(in));
  EXPECT_FALSE(recvd.done());

  const std::vector<int> out{3, 1, 4, 1};
  ep0->send_blocking(1, bytes_of(out));
  recvd.wait();
  EXPECT_TRUE(recvd.done());
  EXPECT_EQ(in, out);
  EXPECT_EQ(ep0->stats().wire_bytes_sent, sizeof(int) * 4);
  EXPECT_EQ(ep1->stats().wire_bytes_received, sizeof(int) * 4);
}

TEST(InProcTransport, RecvTimesOut) {
  net::InProcHub hub(2);
  auto ep1 = hub.endpoint(1);
  ep1->set_timeout_seconds(0.05);
  std::vector<std::byte> in(8);
  EXPECT_THROW(ep1->recv_blocking(0, writable_bytes_of(in)),
               net::TransportTimeoutError);
}

TEST(InProcTransport, PeerCloseDrainsBufferedMessagesFirst) {
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);

  const std::vector<float> out{2.5f, -1.0f};
  ep0->send_blocking(1, bytes_of(out));
  ep0->close();

  // The message queued before the close is still delivered...
  std::vector<float> in(2, 0.0f);
  ep1->recv_blocking(0, writable_bytes_of(in));
  EXPECT_EQ(in, out);
  // ...and only then does the dead peer surface.
  EXPECT_THROW(ep1->recv_blocking(0, writable_bytes_of(in)),
               net::PeerClosedError);
  EXPECT_THROW(ep1->send_blocking(0, bytes_of(out)), net::PeerClosedError);
}

TEST(InProcTransport, SizeMismatchIsProtocolError) {
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);
  const std::vector<std::byte> eight(8);
  ep0->send_blocking(1, bytes_of(eight));
  std::vector<std::byte> four(4);
  EXPECT_THROW(ep1->recv_blocking(0, writable_bytes_of(four)),
               net::ProtocolError);
}

// -- Transport semantics: socket backend ------------------------------

TEST(SocketTransport, NonblockingCompletionOverSocketpair) {
  auto mesh = net::socketpair_mesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  EXPECT_STREQ(mesh[0]->kind(), "socket");

  std::vector<int> in(3, 0);
  auto recvd = mesh[1]->recv(0, writable_bytes_of(in));
  const std::vector<int> out{7, 8, 9};
  mesh[0]->send_blocking(1, bytes_of(out));
  recvd.wait();
  EXPECT_EQ(in, out);
  EXPECT_GE(mesh[0]->stats().wire_bytes_sent, sizeof(int) * 3);
}

TEST(SocketTransport, LargeBidirectionalPayloadsDoNotDeadlock) {
  // Both ranks push 8 MiB at each other head-to-head — far beyond any
  // kernel socket buffer, so neither side's send can finish unless its
  // wait() keeps draining the incoming stream (the partial-transfer
  // progress engine under every symmetric ring step).
  constexpr std::size_t kBytes = 8u << 20;
  auto mesh = net::socketpair_mesh(2);
  auto run = [&](int r) {
    std::vector<std::byte> out(kBytes);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(r)) &
                                      0xFF);
    }
    std::vector<std::byte> in(kBytes);
    auto sent = mesh[static_cast<std::size_t>(r)]->send(1 - r, out);
    auto recvd = mesh[static_cast<std::size_t>(r)]->recv(1 - r, in);
    sent.wait();
    recvd.wait();
    // What arrived is the peer's pattern, byte for byte.
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (in[i] != static_cast<std::byte>(
                       (i * 31 + static_cast<std::size_t>(1 - r)) & 0xFF)) {
        return false;
      }
    }
    return true;
  };
  auto f1 = std::async(std::launch::async, run, 1);
  EXPECT_TRUE(run(0));
  EXPECT_TRUE(f1.get());
  EXPECT_GE(mesh[0]->stats().wire_bytes_sent, kBytes);
  EXPECT_GE(mesh[0]->stats().wire_bytes_received, kBytes);
}

TEST(SocketTransport, RecvTimesOut) {
  auto mesh = net::socketpair_mesh(2);
  mesh[1]->set_timeout_seconds(0.05);
  std::vector<std::byte> in(16);
  EXPECT_THROW(mesh[1]->recv_blocking(0, writable_bytes_of(in)),
               net::TransportTimeoutError);
}

TEST(SocketTransport, PeerDeathDrainsThenFails) {
  auto mesh = net::socketpair_mesh(2);
  const std::vector<double> out{1.25, 2.5};
  mesh[0]->send_blocking(1, bytes_of(out));
  mesh[0]->close();

  std::vector<double> in(2, 0.0);
  mesh[1]->recv_blocking(0, writable_bytes_of(in));  // pre-close bytes
  EXPECT_EQ(in, out);
  EXPECT_THROW(mesh[1]->recv_blocking(0, writable_bytes_of(in)),
               net::PeerClosedError);
}

// -- Rendezvous protocol ----------------------------------------------

std::string test_rendezvous_prefix(const char* tag) {
  return std::string("unix:/tmp/zipflm_nt_") + tag + "." +
         std::to_string(::getpid());
}

TEST(SocketRendezvous, ThreeRanksHandshakeAndRing) {
  const std::string addr = test_rendezvous_prefix("ring");
  constexpr int kWorld = 3;
  auto join = [&](int r) {
    net::RendezvousOptions opts;
    opts.timeout_seconds = 20.0;
    auto ep = net::rendezvous(addr, r, kWorld, opts);
    EXPECT_EQ(ep->rank(), r);
    EXPECT_EQ(ep->world_size(), kWorld);
    // One ring hop: send my rank right, receive my left neighbour's.
    const int out = r;
    int in = -1;
    auto sent =
        ep->send((r + 1) % kWorld, std::as_bytes(std::span(&out, 1)));
    ep->recv_blocking((r + kWorld - 1) % kWorld,
                      std::as_writable_bytes(std::span(&in, 1)));
    sent.wait();
    return in == (r + kWorld - 1) % kWorld;
  };
  std::vector<std::future<bool>> fs;
  for (int r = 1; r < kWorld; ++r) {
    fs.push_back(std::async(std::launch::async, join, r));
  }
  EXPECT_TRUE(join(0));
  for (auto& f : fs) EXPECT_TRUE(f.get());
}

TEST(SocketRendezvous, WorldSizeMismatchIsProtocolError) {
  const std::string addr = test_rendezvous_prefix("mismatch");
  net::RendezvousOptions opts;
  opts.timeout_seconds = 5.0;
  // Rank 1 claims a 3-rank world; rank 0 expects 2.  The accepting side
  // sees the hello mismatch (ProtocolError); the dialing side sees its
  // rejected connection die (any transport error).
  auto f1 = std::async(std::launch::async, [&] {
    try {
      (void)net::rendezvous(addr, 1, 3, opts);
      return false;
    } catch (const net::TransportError&) {
      return true;
    }
  });
  EXPECT_THROW((void)net::rendezvous(addr, 0, 2, opts), net::ProtocolError);
  EXPECT_TRUE(f1.get());
}

TEST(ProcessGroup, TwoProcessesWorthOfRanksInThreads) {
  // The full ProcessGroup stack (rendezvous + TransportComm + ledger)
  // driven by two in-process ranks — what two zipflm_launch children do,
  // minus the fork.
  const std::string addr = test_rendezvous_prefix("pg");
  auto join = [&](int r) {
    ProcessGroup::Options opt;
    opt.collective_timeout_seconds = 20.0;
    auto pg = ProcessGroup::connect(addr, r, 2, opt);
    std::vector<float> buf(5, static_cast<float>(r + 1));
    pg->comm().allreduce_sum(std::span<float>(buf));
    bool ok = pg->rank() == r && pg->world_size() == 2;
    for (const float v : buf) ok = ok && v == 3.0f;
    ok = ok && pg->ledger().allreduce_calls == 1;
    ok = ok && pg->ledger().wire_bytes_sent > 0;
    return ok;
  };
  auto f1 = std::async(std::launch::async, join, 1);
  EXPECT_TRUE(join(0));
  EXPECT_TRUE(f1.get());
}

// -- Collectives against the serial reference ---------------------------

namespace ref = collective_reference;

void append_bytes(std::vector<unsigned char>& out, const void* p,
                  std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
std::vector<unsigned char> bytes_vec(const std::vector<T>& v) {
  std::vector<unsigned char> out;
  append_bytes(out, v.data(), v.size() * sizeof(T));
  return out;
}

/// Every rank's inputs to one pass of the battery, for a world of g
/// ranks and allreduce length n.  Random magnitudes spanning several
/// binades make the FP sums order-sensitive, so a changed fold shows.
struct BatteryInputs {
  ref::PerRank<float> sum, max;
  ref::PerRank<Half> half;
  ref::PerRank<int> block;      ///< allgather: n % 3 ints per rank
  ref::PerRank<double> vblock;  ///< allgatherv: (r + n) % 3 per rank
  ref::PerRank<float> bcast;    ///< broadcast from rank g - 1
  ref::PerRank<std::int32_t> a2a;
  std::vector<std::vector<std::size_t>> a2a_counts;  ///< [src][dst]

  BatteryInputs(int g, std::size_t n) {
    const auto gs = static_cast<std::size_t>(g);
    for (int r = 0; r < g; ++r) {
      Rng rng(4000 + 97 * static_cast<std::uint64_t>(g) + n * 13 +
              static_cast<std::uint64_t>(r));
      auto wild = [&rng] {
        return static_cast<float>(rng.uniform(-1.0, 1.0) *
                                  std::ldexp(1.0, static_cast<int>(
                                                      rng.uniform_index(24))));
      };
      std::vector<float> s(n), m(n), b(n);
      std::vector<Half> h(n);
      for (std::size_t j = 0; j < n; ++j) {
        s[j] = wild();
        m[j] = static_cast<float>(rng.uniform_index(9)) - 4.0f;
        h[j] = Half(static_cast<float>(rng.uniform(-4.0, 4.0)));
        b[j] = wild();
      }
      sum.push_back(s);
      max.push_back(m);
      half.push_back(h);
      bcast.push_back(b);
      block.emplace_back(n % 3, r * 10 + 1);
      vblock.emplace_back((static_cast<std::size_t>(r) + n) % 3,
                          1.5 * r - 0.25);
      std::vector<std::size_t> counts(gs);
      std::vector<std::int32_t> send;
      for (int d = 0; d < g; ++d) {
        counts[static_cast<std::size_t>(d)] =
            (static_cast<std::size_t>(r + d) + n) % 3;
        for (std::size_t j = 0; j < counts[static_cast<std::size_t>(d)]; ++j) {
          send.push_back(r * 100 + d * 10 + static_cast<std::int32_t>(j));
        }
      }
      a2a.push_back(send);
      a2a_counts.push_back(counts);
    }
  }
};

/// Every collective's result on one rank, and the rank's ledger.
struct RankOutcome {
  std::vector<float> sum, max, bcast;
  std::vector<Half> half;
  std::vector<int> gathered;
  std::vector<double> vgathered;
  std::vector<std::size_t> vcounts;
  std::vector<std::int32_t> a2a;
  std::vector<std::size_t> a2a_counts;
  TrafficLedger ledger;
};

/// One pass through every collective family.
std::vector<RankOutcome> run_battery(CommBackend backend,
                                     const BatteryInputs& in) {
  const int gpus = static_cast<int>(in.sum.size());
  CommWorld::Options wopt;
  wopt.backend = backend;
  CommWorld world(gpus, wopt);
  std::vector<RankOutcome> outs(static_cast<std::size_t>(gpus));
  world.run([&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    RankOutcome& o = outs[r];
    comm.barrier();
    o.sum = in.sum[r];
    comm.allreduce_sum(std::span<float>(o.sum));
    o.half = in.half[r];
    comm.allreduce_sum(std::span<Half>(o.half));
    o.max = in.max[r];
    comm.allreduce_max(std::span<float>(o.max));
    comm.allgather(std::span<const int>(in.block[r]), o.gathered);
    comm.allgatherv(std::span<const double>(in.vblock[r]), o.vgathered,
                    &o.vcounts);
    o.bcast = in.bcast[r];
    comm.broadcast(std::span<float>(o.bcast), comm.world_size() - 1);
    comm.alltoallv(std::span<const std::int32_t>(in.a2a[r]),
                   in.a2a_counts[r], o.a2a, o.a2a_counts);
    comm.barrier();
  });
  for (int r = 0; r < gpus; ++r) {
    outs[static_cast<std::size_t>(r)].ledger = world.ledger(r);
  }
  return outs;
}

void expect_payload_ledgers_equal(const TrafficLedger& a,
                                  const TrafficLedger& b) {
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.allreduce_calls, b.allreduce_calls);
  EXPECT_EQ(a.allgather_calls, b.allgather_calls);
  EXPECT_EQ(a.alltoall_calls, b.alltoall_calls);
  EXPECT_EQ(a.broadcast_calls, b.broadcast_calls);
  EXPECT_EQ(a.barrier_calls, b.barrier_calls);
  EXPECT_EQ(a.max_allreduce_payload_bytes, b.max_allreduce_payload_bytes);
  EXPECT_EQ(a.max_allgather_payload_bytes, b.max_allgather_payload_bytes);
  EXPECT_EQ(a.max_alltoall_payload_bytes, b.max_alltoall_payload_bytes);
  EXPECT_EQ(a.max_broadcast_payload_bytes, b.max_broadcast_payload_bytes);
  EXPECT_EQ(a.simulated_comm_seconds, b.simulated_comm_seconds);
}

TEST(TransportCommParity, CollectivesMatchSerialReference) {
  // Lengths cover empty payloads, fewer elements than ranks (empty ring
  // chunks), and lengths no world size divides.
  for (const int g : {1, 2, 3, 4, 8}) {
    for (const std::size_t n : {0u, 1u, 7u, 41u}) {
      const BatteryInputs in(g, n);
      const auto want_sum = bytes_vec(ref::allreduce_sum(in.sum));
      const auto want_half = bytes_vec(ref::allreduce_sum(in.half));
      const auto want_max = bytes_vec(ref::allreduce_max(in.max));
      const auto want_gathered = ref::allgather(in.block);
      const auto want_vgathered = ref::allgather(in.vblock);
      std::vector<RankOutcome> inproc;
      for (const CommBackend backend :
           {CommBackend::InProcNet, CommBackend::Socket}) {
        const auto got = run_battery(backend, in);
        for (int r = 0; r < g; ++r) {
          SCOPED_TRACE(::testing::Message()
                       << (backend == CommBackend::Socket ? "Socket"
                                                          : "InProcNet")
                       << " G=" << g << " n=" << n << " rank " << r);
          const auto& o = got[static_cast<std::size_t>(r)];
          EXPECT_EQ(bytes_vec(o.sum), want_sum);
          EXPECT_EQ(bytes_vec(o.half), want_half);
          EXPECT_EQ(bytes_vec(o.max), want_max);
          EXPECT_EQ(o.gathered, want_gathered);
          EXPECT_EQ(bytes_vec(o.vgathered), bytes_vec(want_vgathered));
          for (int s = 0; s < g; ++s) {
            EXPECT_EQ(o.vcounts[static_cast<std::size_t>(s)],
                      in.vblock[static_cast<std::size_t>(s)].size());
            EXPECT_EQ(o.a2a_counts[static_cast<std::size_t>(s)],
                      in.a2a_counts[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(r)]);
          }
          EXPECT_EQ(bytes_vec(o.bcast),
                    bytes_vec(in.bcast[static_cast<std::size_t>(g - 1)]));
          EXPECT_EQ(o.a2a, ref::alltoallv(in.a2a, in.a2a_counts, r));
          if (backend == CommBackend::Socket) {
            // Same payload accounting on both meshes.
            expect_payload_ledgers_equal(
                inproc[static_cast<std::size_t>(r)].ledger, o.ledger);
          }
          // Real wire traffic whenever there is a peer to talk to.
          if (g > 1) {
            EXPECT_GT(o.ledger.wire_bytes_sent, 0u);
            EXPECT_GT(o.ledger.real_comm_seconds, 0.0);
          } else {
            EXPECT_EQ(o.ledger.wire_bytes_sent, 0u);
          }
        }
        if (backend == CommBackend::InProcNet) inproc = got;
      }
    }
  }
}

TEST(TransportCommParity, SerialReferenceSeesTheFoldOrder) {
  // The reference is only a check if these inputs make the addition
  // order observable: a left-to-right sum by rank must differ from the
  // ring fold somewhere.
  const BatteryInputs in(4, 41);
  const auto fold = ref::allreduce_sum(in.sum);
  bool differs = false;
  for (std::size_t j = 0; j < fold.size(); ++j) {
    float serial = 0.0f;
    for (const auto& x : in.sum) serial += x[j];
    differs = differs || serial != fold[j];
  }
  EXPECT_TRUE(differs);
}

// -- Trainer parity: in-memory vs socketpair meshes -------------------

std::vector<Index> tiny_corpus(Index vocab, std::size_t n,
                               std::uint64_t seed) {
  ZipfSampler sampler(static_cast<std::uint64_t>(vocab), 1.1);
  Rng rng(seed);
  std::vector<Index> ids(n);
  for (auto& id : ids) id = static_cast<Index>(sampler.sample(rng) - 1);
  return ids;
}

DistributedTrainer::ModelFactory tiny_word_factory(Index vocab) {
  return [vocab](int /*rank*/) -> std::unique_ptr<LmModel> {
    WordLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 12;
    cfg.proj_dim = 8;
    cfg.seed = 1234;
    return std::make_unique<WordLm>(cfg);
  };
}

TrainerOptions tiny_options() {
  TrainerOptions opt;
  opt.batch = BatchSpec{2, 6};
  opt.base_lr = 0.2f;
  opt.lr_decay = 1.0f;
  opt.clip = 5.0f;
  opt.charge_static_memory = false;
  return opt;
}

/// Every parameter tensor of every replica, as raw bytes.
std::vector<unsigned char> model_bytes(DistributedTrainer& trainer) {
  std::vector<unsigned char> out;
  for (Param* p : trainer.model(0).all_params()) {
    const auto data = p->value.data();
    append_bytes(out, data.data(), data.size() * sizeof(float));
  }
  return out;
}

/// Trains the same model on an in-memory mesh and a socketpair mesh;
/// the socket run must land on the in-memory run's bits.
void expect_socket_matches_inproc(int gpus, WirePrecision wire) {
  const Index vocab = 50;
  const auto train = tiny_corpus(vocab, 2400, 7);
  const auto valid = tiny_corpus(vocab, 400, 8);

  std::vector<unsigned char> reference;
  double ref_train = 0.0, ref_valid = 0.0;
  TrafficLedger ref_ledger;
  for (const CommBackend backend :
       {CommBackend::InProcNet, CommBackend::Socket}) {
    CommWorld::Options wopt;
    wopt.backend = backend;
    CommWorld world(gpus, wopt);
    TrainerOptions opt = tiny_options();
    opt.samples_per_rank = 16;
    opt.wire = wire;
    DistributedTrainer trainer(world, tiny_word_factory(vocab), opt);

    EpochStats last{};
    for (int e = 0; e < 2; ++e) last = trainer.run_epoch(train, valid, e);
    EXPECT_TRUE(trainer.replicas_in_sync());

    const auto bytes = model_bytes(trainer);
    const TrafficLedger total = world.total_ledger();
    if (backend == CommBackend::InProcNet) {
      reference = bytes;
      ref_train = last.train_loss;
      ref_valid = last.valid_loss;
      ref_ledger = total;
      continue;
    }
    // Bitwise: the losses are exact doubles and the weights exact bytes.
    EXPECT_EQ(last.train_loss, ref_train);
    EXPECT_EQ(last.valid_loss, ref_valid);
    ASSERT_EQ(bytes.size(), reference.size());
    EXPECT_EQ(0, std::memcmp(bytes.data(), reference.data(), bytes.size()))
        << "socketpair mesh diverged from the in-memory mesh at G=" << gpus;
    // Same payload accounting, plus real wire traffic on top.
    expect_payload_ledgers_equal(ref_ledger, total);
    if (gpus > 1) {
      EXPECT_GT(total.wire_bytes_sent, 0u);
    }
  }
}

TEST(TransportTrainer, MatchesThreadBitwiseG1Fp32) {
  expect_socket_matches_inproc(1, WirePrecision::FP32);
}

TEST(TransportTrainer, MatchesThreadBitwiseG4Fp32) {
  expect_socket_matches_inproc(4, WirePrecision::FP32);
}

TEST(TransportTrainer, MatchesThreadBitwiseG4Fp16) {
  expect_socket_matches_inproc(4, WirePrecision::FP16);
}

}  // namespace
}  // namespace zipflm

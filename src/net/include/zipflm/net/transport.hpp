// zipflm::net — the point-to-point transport layer under the collectives.
//
// A Transport is one rank's endpoint into a fully-connected world of
// `world_size` peers.  It moves raw byte messages with nonblocking
// send/recv calls that return Completion handles; the collective
// algorithms in comm/transport_comm.cpp are written purely against this
// interface, so the same ring schedules run over any backend:
//
//  * InProcHub (inproc.hpp)  — N endpoints in one process connected by
//    in-memory message queues.  No kernel involved: the deterministic
//    test oracle the socket backend is diffed against.
//  * Socket (socket.hpp)     — real file descriptors: a socketpair mesh
//    for in-process worlds, or UNIX-domain / TCP sockets joined through
//    the rendezvous protocol for true multi-process worlds
//    (zipflm_launch).
//
// Threading contract: a Transport is driven by ONE thread at a time —
// the same exclusivity the Communicator already demands (the
// AsyncCommEngine's flush() rule).  Progress is made inside wait(): a
// pending send keeps draining while the caller waits on a recv, so the
// symmetric send-right/recv-left ring steps cannot deadlock on full
// kernel buffers.
//
// Failure model: a dead peer surfaces as PeerClosedError (EOF,
// ECONNRESET, or a closed in-memory channel) on every operation that
// touches it — already-delivered messages are still readable first.  A
// configured timeout turns an indefinite wait into
// TransportTimeoutError.  The comm layer maps both onto
// CollectiveTimeoutError, which drives CommWorld's rank-retire /
// world-rebuild path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "zipflm/support/error.hpp"

namespace zipflm::net {

/// Base of every transport-layer failure.
class TransportError : public Error {
 public:
  explicit TransportError(const std::string& what) : Error(what) {}
};

/// The peer's endpoint is gone: EOF / ECONNRESET on a socket, or a
/// closed in-memory channel.  Messages sent before the close are still
/// delivered; this fires only once the stream is drained (recv) or the
/// kernel refuses the write (send).
class PeerClosedError : public TransportError {
 public:
  explicit PeerClosedError(const std::string& what) : TransportError(what) {}
};

/// A wait() exceeded the endpoint's configured timeout.
class TransportTimeoutError : public TransportError {
 public:
  explicit TransportTimeoutError(const std::string& what)
      : TransportError(what) {}
};

/// The wire protocol was violated: bad hello magic, mismatched
/// world-size handshake, or a message whose size does not match the
/// posted receive.
class ProtocolError : public TransportError {
 public:
  explicit ProtocolError(const std::string& what) : TransportError(what) {}
};

/// Per-endpoint accounting of what actually crossed the wire — framing
/// included, unlike the TrafficLedger's payload-only view.  The comm
/// layer snapshots deltas of this into the ledger's wire_bytes_* and
/// the "comm/net_*" metrics so simulated and real seconds stay
/// distinguishable.
struct NetStats {
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
  std::uint64_t send_ops = 0;
  std::uint64_t recv_ops = 0;
  double send_wait_seconds = 0.0;  ///< blocked in wait() on sends
  double recv_wait_seconds = 0.0;  ///< blocked in wait() on recvs
};

class Transport;

/// Handle for one nonblocking operation.  Default-constructed handles
/// are vacuously complete (used for zero-byte messages).  wait() drives
/// the owning endpoint's progress engine until the operation finishes,
/// the endpoint's timeout elapses (TransportTimeoutError), or the peer
/// dies (PeerClosedError).
class Completion {
 public:
  /// One pending operation.  State transitions happen only on the
  /// (single) driving thread, inside post / progress.
  struct Op {
    enum class State : std::uint8_t { Pending, Done, Failed };
    State state = State::Pending;
    bool is_send = false;
    int peer = -1;
    /// Send: source bytes (caller keeps them alive until wait()).
    /// Recv: destination bytes.
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t transferred = 0;
    std::exception_ptr error;  ///< set when state == Failed

    bool done() const noexcept { return state != State::Pending; }
  };

  Completion() = default;
  Completion(Transport* transport, std::shared_ptr<Op> op)
      : transport_(transport), op_(std::move(op)) {}

  bool valid() const noexcept { return op_ != nullptr; }
  bool done() const noexcept { return op_ == nullptr || op_->done(); }

  /// Block (making progress) until the operation completes; rethrows
  /// the operation's failure.  Idempotent once complete.
  void wait();

 private:
  Transport* transport_ = nullptr;
  std::shared_ptr<Op> op_;
};

class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual int rank() const noexcept = 0;
  virtual int world_size() const noexcept = 0;
  /// Backend identifier for metrics/labels: "inproc" or "socket".
  virtual const char* kind() const noexcept = 0;

  /// Post a nonblocking send of `data` to `peer`.  The bytes must stay
  /// valid and unmodified until the returned completion is waited.
  Completion send(int peer, std::span<const std::byte> data);
  /// Post a nonblocking receive of exactly `into.size()` bytes from
  /// `peer`.  Matching is FIFO per (peer -> this) direction.
  Completion recv(int peer, std::span<std::byte> into);

  /// Convenience: post and wait.
  void send_blocking(int peer, std::span<const std::byte> data) {
    send(peer, data).wait();
  }
  void recv_blocking(int peer, std::span<std::byte> into) {
    recv(peer, into).wait();
  }

  /// Drive I/O for up to `max_wait_seconds` without requiring any
  /// particular operation to finish — the building block for event
  /// loops that multiplex many peers (the serve socket frontend).
  /// Completes whatever pending operations it can, then returns; unlike
  /// wait(), hitting the time bound is normal and never fails an
  /// operation, so stream framing survives.  Same threading contract as
  /// wait(): only the endpoint's single driving thread may call it.
  virtual void progress(double max_wait_seconds) = 0;

  /// Deadline applied to each wait() call; 0 (default) waits forever.
  void set_timeout_seconds(double seconds) { timeout_seconds_ = seconds; }
  double timeout_seconds() const noexcept { return timeout_seconds_; }

  /// Tear the endpoint down: local pending operations fail, and peers
  /// observe PeerClosedError once they drain what was already sent.
  /// Idempotent; also called by destructors.
  virtual void close() = 0;

  const NetStats& stats() const noexcept { return stats_; }

 protected:
  Transport() = default;

  friend class Completion;
  /// Drive I/O until `op` completes or the timeout elapses.  Called
  /// only from the endpoint's single driving thread, via wait().
  virtual void progress_until(Completion::Op& op) = 0;

  virtual std::shared_ptr<Completion::Op> post_send(
      int peer, std::span<const std::byte> data) = 0;
  virtual std::shared_ptr<Completion::Op> post_recv(
      int peer, std::span<std::byte> into) = 0;

  void check_peer(int peer) const;

  NetStats stats_;
  double timeout_seconds_ = 0.0;
};

}  // namespace zipflm::net

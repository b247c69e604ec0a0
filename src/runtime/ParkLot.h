//===- runtime/ParkLot.h - per-node doorbells for parked vprocs ----------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one signaling path every blocking site in the runtime goes
/// through. A ParkLot owns one *doorbell* per NUMA node -- a futex-style
/// atomic epoch word plus a waiter count -- and a global *broadcast*
/// word for whole-machine rendezvous (global-GC entry, run-epoch
/// turnover). Idle vprocs, blocked channel senders/receivers, and
/// selectRecv waiters park on their node's doorbell; whoever makes their
/// condition true rings that node (or broadcasts) instead of letting the
/// sleeper run out a blind timeout.
///
/// Parking protocol (lost-wakeup-free):
///
///   1. prepare(N) increments the node's waiter count (seq_cst) and then
///      snapshots the node and broadcast epochs.
///   2. The caller re-checks its wake condition. If it already holds, it
///      cancel()s; otherwise it park()s with the token.
///   3. park() re-reads both epochs and sleeps on the node word only if
///      neither moved since the snapshot, with a bounded timeout as a
///      backstop.
///
/// ring(N) always bumps the node epoch (seq_cst) *after* the caller
/// published whatever made the condition true, then wakes the futex when
/// waiters are present. The seq_cst pairing makes the race two-sided: a
/// ringer either observes the waiter count (and wakes the futex), or the
/// parker observes the bumped epoch (and never sleeps). A ring that
/// lands between the parker's condition re-check and its futex wait
/// fails the futex's value comparison, so no interleaving sleeps through
/// a ring.
///
/// The doorbell carries no data: every happens-before edge for the
/// *condition* (queue depths, mailbox state, channel Ready flags, the
/// global-GC pending flag) still comes from that state's own atomics.
/// The ParkLot only decides who sleeps and who is woken; a missed ring
/// costs at most one bounded backstop, never correctness.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_PARKLOT_H
#define MANTI_RUNTIME_PARKLOT_H

#include "numa/Topology.h"
#include "support/Compiler.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace manti {

class ParkLot {
public:
  explicit ParkLot(unsigned NumNodes);

  ParkLot(const ParkLot &) = delete;
  ParkLot &operator=(const ParkLot &) = delete;

  /// Epoch snapshot taken by prepare(); consumed by cancel()/park().
  struct Token {
    uint32_t NodeEpoch;
    uint32_t BroadcastEpoch;
  };

  /// Parker side, step 1: registers the caller as a waiter on node \p N
  /// and snapshots the epochs. Must be followed by exactly one cancel()
  /// or park() on the same node with the returned token.
  Token prepare(NodeId N);

  /// Parker side, step 2a: the wake condition already holds; deregister
  /// without sleeping.
  void cancel(NodeId N, Token T);

  /// Parker side, step 2b: sleeps until the node is rung, a broadcast
  /// lands, or \p MaxWait elapses (the bounded backstop). \returns true
  /// when ended by a ring, false on a clean timeout. When woken by a
  /// ring and \p RingLatencyNanos is non-null, it receives the elapsed
  /// time since that ring was sent (a wake-up-latency sample).
  bool park(NodeId N, Token T, std::chrono::microseconds MaxWait,
            uint64_t *RingLatencyNanos = nullptr);

  /// Ringer side: wakes ONE vproc parked on node \p N (one unit of work
  /// wants one worker; the woken vproc re-rings when it finds more, and
  /// waking a whole node per spawn would stampede an oversubscribed
  /// host). Call *after* publishing whatever made the condition true.
  /// \returns the number of waiters registered at ring time (0 = the
  /// ring was wasted).
  unsigned ring(NodeId N);

  /// Rings the broadcast word and every node doorbell: the global-GC
  /// rendezvous path (every parked vproc must reach its safe point now).
  void ringBroadcast();

  /// Waiters currently registered on node \p N (racy snapshot; ring
  /// policy uses it to skip futex syscalls for empty nodes).
  unsigned parkedOn(NodeId N) const {
    return Bells[N].Waiters.load(std::memory_order_seq_cst);
  }

  unsigned numNodes() const { return NumNodes; }

private:
  /// One doorbell: padded to a cache line so parkers on different nodes
  /// never ping-pong a shared line.
  struct alignas(CacheLineSize) Doorbell {
    std::atomic<uint32_t> Epoch{0};   ///< bumped by every ring
    std::atomic<uint32_t> Waiters{0}; ///< vprocs between prepare and wake
    std::atomic<uint64_t> LastRingNanos{0}; ///< steady-clock ring stamp
  };

  unsigned NumNodes;
  std::unique_ptr<Doorbell[]> Bells;
  Doorbell Broadcast;
};

} // namespace manti

#endif // MANTI_RUNTIME_PARKLOT_H

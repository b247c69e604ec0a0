//===- runtime/ParkLot.cpp -------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "runtime/ParkLot.h"

#include "support/Assert.h"

#include <algorithm>
#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#endif

using namespace manti;

namespace {

uint64_t steadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// How a futexWait ended, for wake classification: a parker that ran
/// out its timeout is a Timeout even when a (wake-one) ring it was not
/// the target of moved the epoch meanwhile.
enum class WaitEnd { Woken, ValueChanged, Timeout };

#if defined(__linux__)

/// Sleeps on \p Word while it still holds \p Expected, for at most
/// \p MaxWait. The kernel re-checks the word under its own lock, so a
/// ring's epoch bump between our caller's re-check and this wait makes
/// the syscall return immediately (EAGAIN) instead of sleeping.
WaitEnd futexWait(std::atomic<uint32_t> &Word, uint32_t Expected,
                  std::chrono::microseconds MaxWait) {
  static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
                "futex word must be exactly 32 bits");
  struct timespec Ts;
  Ts.tv_sec = static_cast<time_t>(MaxWait.count() / 1000000);
  Ts.tv_nsec = static_cast<long>((MaxWait.count() % 1000000) * 1000);
  long Rc = syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word),
                    FUTEX_WAIT_PRIVATE, Expected, &Ts, nullptr, 0);
  if (Rc == 0)
    return WaitEnd::Woken;
  if (errno == EAGAIN)
    return WaitEnd::ValueChanged;
  // ETIMEDOUT and (rare) EINTR: treat both as a timeout; the caller's
  // condition re-check is what matters either way.
  return WaitEnd::Timeout;
}

void futexWake(std::atomic<uint32_t> &Word, int Count) {
  syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word),
          FUTEX_WAKE_PRIVATE, Count, nullptr, nullptr, 0);
}

#else

/// Portable fallback: poll the word in short sleeps. Latency is worse
/// than a real futex (and wake-one degrades to wake-all), but the
/// protocol and the bounded backstop are identical.
WaitEnd futexWait(std::atomic<uint32_t> &Word, uint32_t Expected,
                  std::chrono::microseconds MaxWait) {
  auto Deadline = std::chrono::steady_clock::now() + MaxWait;
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Word.load(std::memory_order_seq_cst) != Expected)
      return WaitEnd::ValueChanged;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return WaitEnd::Timeout;
}

void futexWake(std::atomic<uint32_t> &, int) {}

#endif

} // namespace

ParkLot::ParkLot(unsigned NumNodes)
    : NumNodes(NumNodes), Bells(new Doorbell[NumNodes]) {
  MANTI_CHECK(NumNodes >= 1, "a ParkLot needs at least one node");
}

ParkLot::Token ParkLot::prepare(NodeId N) {
  Doorbell &B = Bells[N];
  // Waiter registration must be seq_cst-ordered *before* the epoch
  // snapshot: a ringer bumps the epoch and then loads the waiter count,
  // so one side of every race is always observed (see the file comment
  // in ParkLot.h).
  B.Waiters.fetch_add(1, std::memory_order_seq_cst);
  Token T;
  T.NodeEpoch = B.Epoch.load(std::memory_order_seq_cst);
  T.BroadcastEpoch = Broadcast.Epoch.load(std::memory_order_seq_cst);
  return T;
}

void ParkLot::cancel(NodeId N, Token) {
  Bells[N].Waiters.fetch_sub(1, std::memory_order_seq_cst);
}

bool ParkLot::park(NodeId N, Token T, std::chrono::microseconds MaxWait,
                   uint64_t *RingLatencyNanos) {
  Doorbell &B = Bells[N];
  auto EpochMoved = [&] {
    return B.Epoch.load(std::memory_order_seq_cst) != T.NodeEpoch ||
           Broadcast.Epoch.load(std::memory_order_seq_cst) !=
               T.BroadcastEpoch;
  };
  WaitEnd End = WaitEnd::ValueChanged; // pre-wait epoch movement = rung
  if (!EpochMoved())
    End = futexWait(B.Epoch, T.NodeEpoch, MaxWait);
  // A parker that ran out its backstop reports a timeout even when a
  // wake-one ring aimed at a *different* waiter moved the epoch while
  // it slept; Woken and ValueChanged are the real ring deliveries.
  bool Rung = End != WaitEnd::Timeout && EpochMoved();
  B.Waiters.fetch_sub(1, std::memory_order_seq_cst);
  if (Rung && RingLatencyNanos) {
    uint64_t Now = steadyNanos();
    uint64_t RingAt =
        std::max(B.LastRingNanos.load(std::memory_order_relaxed),
                 Broadcast.LastRingNanos.load(std::memory_order_relaxed));
    *RingLatencyNanos = Now > RingAt ? Now - RingAt : 0;
  }
  return Rung;
}

unsigned ParkLot::ring(NodeId N) {
  Doorbell &B = Bells[N];
  B.LastRingNanos.store(steadyNanos(), std::memory_order_relaxed);
  // Always bump, even with no visible waiter: a parker between its
  // waiter registration and its epoch snapshot is invisible to our
  // waiter-count load, but its snapshot then sees this bump.
  B.Epoch.fetch_add(1, std::memory_order_seq_cst);
  unsigned W = B.Waiters.load(std::memory_order_seq_cst);
  if (W > 0) {
    // Wake ONE waiter (parking-lot style): one unit of work wants one
    // worker, and the woken vproc re-rings if it finds more (batch
    // steals ring their own node). Waking the whole node on every spawn
    // stampedes an oversubscribed host.
    futexWake(B.Epoch, 1);
  }
  return W;
}

void ParkLot::ringBroadcast() {
  Broadcast.LastRingNanos.store(steadyNanos(), std::memory_order_relaxed);
  Broadcast.Epoch.fetch_add(1, std::memory_order_seq_cst);
  for (unsigned N = 0; N < NumNodes; ++N) {
    Doorbell &B = Bells[N];
    B.LastRingNanos.store(steadyNanos(), std::memory_order_relaxed);
    B.Epoch.fetch_add(1, std::memory_order_seq_cst);
    // A broadcast is a rendezvous (GC entry, epoch turnover): every
    // parked vproc must wake, so this is the one wake-all path.
    if (B.Waiters.load(std::memory_order_seq_cst) > 0)
      futexWake(B.Epoch, INT32_MAX);
  }
}

//===- workloads/Quicksort.cpp ---------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "workloads/Quicksort.h"

#include "gc/Handles.h"
#include "runtime/Rope.h"
#include "support/XorShift.h"

#include <algorithm>
#include <chrono>
#include <vector>

using namespace manti;
using namespace manti::workloads;

namespace {

/// Shared state for one spawned sub-sort.
struct SortSplit {
  Runtime *RT;
  int64_t Cutoff;
  ResultCell *Cell;
  JoinCounter Join{1};
};

void sortTask(Runtime &RT, VProc &VP, Task T) {
  auto &Split = *static_cast<SortSplit *>(T.Ctx);
  // runTask roots the environment; quicksort roots its own copy before
  // it allocates.
  Value Sorted = quicksort(RT, VP, T.Env, Split.Cutoff);
  Split.Cell->fill(VP, Sorted);
  Split.Join.sub();
}

/// Sequential base case: materialize, std::sort, rebuild.
Value sortLeaf(VProc &VP, Value R) {
  int64_t N = rope::length(R);
  std::vector<uint64_t> Buf(static_cast<std::size_t>(N));
  rope::toArray(R, Buf.data());
  std::sort(Buf.begin(), Buf.end(), [](uint64_t A, uint64_t B) {
    return static_cast<int64_t>(A) < static_cast<int64_t>(B);
  });
  return rope::fromArray(VP.heap(), Buf.data(), N);
}

} // namespace

Value manti::workloads::quicksort(Runtime &RT, VProc &VP, Value R,
                                  int64_t Cutoff) {
  int64_t N = rope::length(R);
  if (N <= Cutoff)
    return sortLeaf(VP, R);

  RootScope S(VP.heap());
  // The input is rooted only until it has been copied out, and the
  // scratch buffer lives only through the partition step: a frame that
  // kept either across its recursive call and join would pin one input
  // per level of the spine, on every vproc that runs a spine.
  Ref<> In = S.root(R);
  Ref<> LessRope = S.root(Value::nil());
  Ref<> EqualRope = S.root(Value::nil());
  Ref<> GreaterRope = S.root(Value::nil());
  {
    // NESL-style three-way partition on a median-of-three pivot, done in
    // place: less | equal | greater.
    std::vector<uint64_t> Buf(static_cast<std::size_t>(N));
    rope::toArray(In, Buf.data());
    In = Value::nil(); // through the handle: the deletion barrier sees it
    auto AsInt = [](uint64_t W) { return static_cast<int64_t>(W); };
    int64_t A = AsInt(Buf.front());
    int64_t B = AsInt(Buf[static_cast<std::size_t>(N / 2)]);
    int64_t C = AsInt(Buf.back());
    int64_t Pivot = std::max(std::min(A, B), std::min(std::max(A, B), C));

    uint64_t *Lo = Buf.data(), *End = Lo + N;
    uint64_t *Mid =
        std::partition(Lo, End, [&](uint64_t W) { return AsInt(W) < Pivot; });
    uint64_t *Hi = std::partition(
        Mid, End, [&](uint64_t W) { return AsInt(W) == Pivot; });
    LessRope = rope::fromArray(VP.heap(), Lo, Mid - Lo);
    EqualRope = rope::fromArray(VP.heap(), Mid, Hi - Mid);
    GreaterRope = rope::fromArray(VP.heap(), Hi, End - Hi);
  }

  // Fork: sort the greater partition as a stealable task whose
  // environment is the rope itself; sort the lesser partition here.
  ResultCell Cell(VP);
  SortSplit Split{&RT, Cutoff, &Cell};
  VP.spawn({sortTask, &Split, GreaterRope, 0, 0});
  GreaterRope = Value::nil(); // the queued task roots it now
  // Hand the lesser partition over: the callee roots it before its
  // first allocation and drops it once copied out.
  Value Lesser = LessRope;
  LessRope = Value::nil();
  Ref<> SortedLess = S.root(quicksort(RT, VP, Lesser, Cutoff));
  VP.joinWait(Split.Join);
  Ref<> SortedGreater = S.root(Cell.take());

  Ref<> Front = rope::concat(S, SortedLess, EqualRope);
  return rope::concat(VP.heap(), Front, SortedGreater);
}

QuicksortResult manti::workloads::runQuicksort(Runtime &RT, VProc &VP,
                                               const QuicksortParams &P) {
  RootScope S(VP.heap());
  XorShift64 Rng(P.Seed);
  uint64_t CheckIn = 0;
  std::vector<uint64_t> Input(static_cast<std::size_t>(P.NumElements));
  for (auto &W : Input) {
    W = Rng.next() >> 8; // keep values positive as int64
    CheckIn += W;
  }
  Ref<> R = rope::fromArray(S, Input.data(),
                            static_cast<int64_t>(Input.size()));

  auto Start = std::chrono::steady_clock::now();
  Ref<> Sorted = S.root(quicksort(RT, VP, R, P.Cutoff));
  auto End = std::chrono::steady_clock::now();

  QuicksortResult Res;
  Res.Length = rope::length(Sorted);
  Res.Seconds = std::chrono::duration<double>(End - Start).count();
  std::vector<uint64_t> Out(static_cast<std::size_t>(Res.Length));
  rope::toArray(Sorted, Out.data());
  Res.Sorted = std::is_sorted(Out.begin(), Out.end(),
                              [](uint64_t A, uint64_t B) {
                                return static_cast<int64_t>(A) <
                                       static_cast<int64_t>(B);
                              });
  for (uint64_t W : Out)
    Res.Checksum += W;
  Res.Sorted = Res.Sorted && Res.Checksum == CheckIn &&
               Res.Length == P.NumElements;
  return Res;
}

//===- workloads/Quicksort.cpp ---------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
//
// Each frame copies its input rope into a flat C++ buffer and picks a
// median-of-three pivot. The three-way partition is then a
// parallelReduce over the buffer, as NESL's {x in a | x < p} filters are
// data-parallel: every leaf partitions its own slice of the buffer into
// that slice's (less, equal, greater) ropes, and the combine concatenates
// the triples component-wise. Thieves read only the C++ buffer, never
// the frame's local heap; their triples come back through
// parallelReduce's ResultCells, which promote them.
//
//===----------------------------------------------------------------------===//

#include "workloads/Quicksort.h"

#include "gc/Handles.h"
#include "runtime/Parallel.h"
#include "runtime/Rope.h"
#include "support/XorShift.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

using namespace manti;
using namespace manti::workloads;

namespace {

int64_t asInt(uint64_t W) { return static_cast<int64_t>(W); }

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

/// Scratch for \p N scalars that the caller overwrites in full, so it is
/// not zero-filled first.
std::unique_ptr<uint64_t[]> scratch(int64_t N) {
  return std::unique_ptr<uint64_t[]>(new uint64_t[static_cast<std::size_t>(N)]);
}

/// Sequential base case: materialize, std::sort, rebuild.
Value sortLeaf(VProc &VP, Value R) {
  int64_t N = rope::length(R);
  std::unique_ptr<uint64_t[]> Buf = scratch(N);
  rope::toArray(R, Buf.get());
  std::sort(Buf.get(), Buf.get() + N,
            [](uint64_t A, uint64_t B) { return asInt(A) < asInt(B); });
  return rope::fromArray(VP.heap(), Buf.get(), N);
}

/// One frame's partition step: its flat copy of the input and the pivot.
struct PartitionCtx {
  const uint64_t *Buf;
  int64_t Pivot;
};

/// Leaf: three-way partitions Buf[Lo, Hi) into less | equal | greater
/// and returns the slice's three ropes as a 3-slot vector. The partition
/// is stable, as NESL's filters are, so concatenating the leaves'
/// triples in slice order gives the same partition whatever the split:
/// sorted and reverse-sorted inputs stay monotone at every level and the
/// median-of-three pivot keeps halving them. (An unstable in-place
/// partition per slice, concatenated, makes reverse-sorted input a
/// median-of-three killer: quadratic.) The scatter has no branch: an
/// element's class (x >= p) + (x > p) picks its destination cursor, so a
/// random input costs no mispredictions.
Ref<> partitionLeaf(Runtime &, VProc &, RootScope &S, int64_t Lo, int64_t Hi,
                    void *CtxP) {
  auto &Ctx = *static_cast<PartitionCtx *>(CtxP);
  int64_t Pivot = Ctx.Pivot;
  const uint64_t *First = Ctx.Buf + Lo, *End = Ctx.Buf + Hi;
  int64_t NumLess = 0, NumEqual = 0;
  for (const uint64_t *P = First; P != End; ++P) {
    NumLess += asInt(*P) < Pivot;
    NumEqual += asInt(*P) == Pivot;
  }
  std::unique_ptr<uint64_t[]> Out = scratch(Hi - Lo);
  uint64_t *Dst[3] = {Out.get(), Out.get() + NumLess,
                      Out.get() + NumLess + NumEqual};
  for (const uint64_t *P = First; P != End; ++P) {
    uint64_t X = *P;
    *Dst[(asInt(X) >= Pivot) + (asInt(X) > Pivot)]++ = X;
  }
  Ref<> Less = rope::fromArray(S, Out.get(), NumLess);
  Ref<> Equal = rope::fromArray(S, Out.get() + NumLess, NumEqual);
  Ref<> Greater = rope::fromArray(S, Out.get() + NumLess + NumEqual,
                                  Hi - Lo - NumLess - NumEqual);
  return allocVectorOf(S, Less, Equal, Greater);
}

/// Combine: concatenates two (less, equal, greater) triples
/// component-wise, left slice first.
Ref<> concatTriples(Runtime &, VProc &, RootScope &S, const Ref<> &A,
                    const Ref<> &B, void *) {
  auto Join = [&](uint64_t I) {
    Ref<> L = S.root(vectorGet(A, I));
    Ref<> R = S.root(vectorGet(B, I));
    return rope::concat(S, L, R);
  };
  Ref<> Less = Join(0);
  Ref<> Equal = Join(1);
  Ref<> Greater = Join(2);
  return allocVectorOf(S, Less, Equal, Greater);
}

} // namespace

Value manti::workloads::quicksort(Runtime &RT, VProc &VP, Value R,
                                  int64_t Cutoff) {
  int64_t N = rope::length(R);
  if (N <= Cutoff)
    return sortLeaf(VP, R);

  RootScope S(VP.heap());
  // The input is rooted only until it has been copied out, the scratch
  // buffer lives only through the partition step, and the partition's
  // triple only until its ropes are extracted: a frame that kept any of
  // them across its recursive call and join would pin one input per
  // level of the spine, on every vproc that runs a spine.
  Ref<> In = S.root(R);
  Ref<> LessRope = S.root(Value::nil());
  Ref<> EqualRope = S.root(Value::nil());
  Ref<> GreaterRope = S.root(Value::nil());
  {
    std::unique_ptr<uint64_t[]> Buf = scratch(N);
    rope::toArray(In, Buf.get());
    In = Value::nil(); // through the handle: the deletion barrier sees it
    int64_t A = asInt(Buf[0]);
    int64_t B = asInt(Buf[N / 2]);
    int64_t C = asInt(Buf[N - 1]);
    int64_t Pivot = std::max(std::min(A, B), std::min(std::max(A, B), C));

    // A frame no larger than the grain makes a single leaf call: the
    // sequential partition.
    PartitionCtx Ctx{Buf.get(), Pivot};
    Ref<> Parts = parallelReduce(S, RT, VP, 0, N, QuicksortPartitionGrain,
                                 partitionLeaf, concatTriples, &Ctx);
    LessRope = vectorGet(Parts, 0);
    EqualRope = vectorGet(Parts, 1);
    GreaterRope = vectorGet(Parts, 2);
    Parts = Value::nil();
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
  Res.Sorted = std::is_sorted(
      Out.begin(), Out.end(),
      [](uint64_t A, uint64_t B) { return asInt(A) < asInt(B); });
  for (uint64_t W : Out)
    Res.Checksum += W;
  Res.Sorted = Res.Sorted && Res.Checksum == CheckIn &&
               Res.Length == P.NumElements;
  return Res;
}

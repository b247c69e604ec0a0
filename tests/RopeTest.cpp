//===- tests/RopeTest.cpp - rope tests ------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"
#include "runtime/Rope.h"
#include "support/MathExtras.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

using namespace manti;
using namespace manti::test;

namespace {

struct RopeWorld : TestWorld {
  RopeWorld() { registerRopeDescriptors(World); }
};

/// The scalars First, First + 1, ..., First + N - 1.
std::vector<uint64_t> iota(int64_t N, uint64_t First = 0) {
  std::vector<uint64_t> V(static_cast<std::size_t>(N));
  std::iota(V.begin(), V.end(), First);
  return V;
}

/// A rope over iota(N, First).
Value iotaRope(VProcHeap &H, int64_t N, uint64_t First = 0) {
  std::vector<uint64_t> V = iota(N, First);
  return rope::fromArray(H, V.data(), N);
}

} // namespace

TEST(Rope, EmptyRopeIsNil) {
  RopeWorld TW;
  Value R = iotaRope(TW.heap(), 0);
  EXPECT_TRUE(R.isNil());
  EXPECT_EQ(rope::length(R), 0);
}

TEST(Rope, SingleLeaf) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  Ref<> R = Scope.root(iotaRope(TW.heap(), 100));
  EXPECT_EQ(rope::length(R), 100);
  EXPECT_EQ(rope::depth(R), 0);
  for (int64_t I = 0; I < 100; I += 7)
    EXPECT_EQ(rope::getInt(R, I), I);
}

TEST(Rope, MultiLeafBalanced) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  const int64_t N = rope::LeafElems * 9 + 17;
  Ref<> R = Scope.root(iotaRope(TW.heap(), N));
  EXPECT_EQ(rope::length(R), N);
  EXPECT_LE(rope::depth(R), 5) << "10 leaves need depth <= ceil(log2(10))+1";
  for (int64_t I = 0; I < N; I += 997)
    EXPECT_EQ(rope::getInt(R, I), I);
  EXPECT_EQ(rope::getInt(R, N - 1), N - 1);
}

TEST(Rope, FromToArrayRoundTrip) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  std::vector<uint64_t> In(5000);
  for (std::size_t I = 0; I < In.size(); ++I)
    In[I] = I * 3 + 1;
  Ref<> R = Scope.root(
      rope::fromArray(TW.heap(), In.data(), static_cast<int64_t>(In.size())));
  std::vector<uint64_t> Out(In.size());
  rope::toArray(R, Out.data());
  EXPECT_EQ(In, Out);
}

TEST(Rope, FromArrayLeafBoundaries) {
  // Each leaf is one copy out of the buffer: a wrong offset or length at
  // a leaf boundary shows as a wrong first/last element of some leaf.
  RopeWorld TW;
  VProcHeap &H = TW.heap();
  const int64_t L = rope::LeafElems;
  for (int64_t N : {int64_t(0), int64_t(1), L - 1, L, L + 1, 16 * L + 3}) {
    RootScope Scope(H);
    std::vector<uint64_t> In = iota(N, 1000);
    Ref<> R = Scope.root(rope::fromArray(H, In.data(), N));
    EXPECT_EQ(rope::length(R), N) << "N = " << N;
    std::vector<uint64_t> Out(In.size());
    rope::toArray(R, Out.data());
    EXPECT_EQ(In, Out) << "N = " << N;
    int64_t Leaves = static_cast<int64_t>(
        divideCeil(static_cast<uint64_t>(N), static_cast<uint64_t>(L)));
    for (int64_t Leaf = 0; Leaf < Leaves; ++Leaf) {
      int64_t First = Leaf * L, Last = std::min(N, First + L) - 1;
      EXPECT_EQ(rope::get(R, First), In[First]) << "N = " << N;
      EXPECT_EQ(rope::get(R, Last), In[Last]) << "N = " << N;
    }
    int64_t MaxDepth =
        Leaves <= 1 ? 0 : log2Floor(nextPowerOf2(static_cast<uint64_t>(Leaves)));
    EXPECT_LE(rope::depth(R), MaxDepth) << "N = " << N;
    verifyHeap(H);
  }
}

TEST(Rope, ConcatPreservesOrder) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  Ref<> A = Scope.root(iotaRope(TW.heap(), 1500));
  Ref<> B = Scope.root(iotaRope(TW.heap(), 700, 1500));
  Ref<> C = Scope.root(rope::concat(TW.heap(), A, B));
  EXPECT_EQ(rope::length(C), 2200);
  for (int64_t I = 0; I < 2200; I += 101)
    EXPECT_EQ(rope::getInt(C, I), I);
}

TEST(Rope, ConcatWithNil) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  Ref<> A = Scope.root(iotaRope(TW.heap(), 10));
  EXPECT_EQ(rope::concat(TW.heap(), Value::nil(), A), A);
  EXPECT_EQ(rope::concat(TW.heap(), A, Value::nil()), A);
}

TEST(Rope, RepeatedConcatStaysShallow) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  Ref<> R = Scope.root(Value::nil());
  // Worst-case skew: append single elements one at a time.
  for (int64_t I = 0; I < 400; ++I) {
    uint64_t Elem = static_cast<uint64_t>(I);
    RootScope Inner(TW.heap());
    Ref<> Leaf = Inner.root(rope::fromArray(TW.heap(), &Elem, 1));
    R = rope::concat(TW.heap(), R, Leaf);
  }
  EXPECT_EQ(rope::length(R), 400);
  EXPECT_LE(rope::depth(R), 24) << "rebuild must bound the spine depth";
  for (int64_t I = 0; I < 400; I += 13)
    EXPECT_EQ(rope::getInt(R, I), I);
}

TEST(Rope, DoubleRopes) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  std::vector<uint64_t> In(512);
  for (std::size_t I = 0; I < In.size(); ++I)
    In[I] = rope::packDouble(0.5 * static_cast<double>(I));
  Ref<> R = Scope.root(rope::fromArray(TW.heap(), In.data(), 512));
  EXPECT_DOUBLE_EQ(rope::getDouble(R, 100), 50.0);
  EXPECT_DOUBLE_EQ(rope::getDouble(R, 511), 255.5);
}

TEST(Rope, SurvivesCollections) {
  RopeWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Scope(H);
  const int64_t N = 4000;
  Ref<> R = Scope.root(iotaRope(H, N));
  allocGarbage(H, 500);
  H.minorGC();
  for (int64_t I = 0; I < N; I += 371)
    ASSERT_EQ(rope::getInt(R, I), I);
  H.majorGC();
  H.majorGC(); // push it to the global heap
  for (int64_t I = 0; I < N; I += 371)
    ASSERT_EQ(rope::getInt(R, I), I);
  verifyHeap(H);
}

TEST(Rope, SurvivesPromotionAndGlobalGC) {
  RopeWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Scope(H);
  Ref<> R = Scope.root(iotaRope(H, 2500));
  R = H.promote(R);
  TW.World.requestGlobalGC();
  H.safePoint();
  EXPECT_EQ(rope::length(R), 2500);
  for (int64_t I = 0; I < 2500; I += 203)
    ASSERT_EQ(rope::getInt(R, I), I);
}

TEST(Rope, IsRopePredicate) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  Ref<> R = Scope.root(iotaRope(TW.heap(), 2048));
  EXPECT_TRUE(rope::isRope(TW.World, R));
  EXPECT_TRUE(rope::isRope(TW.World, Value::nil()));
  EXPECT_FALSE(rope::isRope(TW.World, Value::fromInt(3)));
  Ref<> V = Scope.root(TW.heap().allocVector(nullptr, 3));
  EXPECT_FALSE(rope::isRope(TW.World, V));
}

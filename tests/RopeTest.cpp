//===- tests/RopeTest.cpp - rope tests ------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"
#include "runtime/Rope.h"

#include <gtest/gtest.h>

#include <vector>

using namespace manti;
using namespace manti::test;

namespace {

struct RopeWorld : TestWorld {
  RopeWorld() { registerRopeDescriptors(World); }
};

uint64_t identity(int64_t I, void *) { return static_cast<uint64_t>(I); }

} // namespace

TEST(Rope, EmptyRopeIsNil) {
  RopeWorld TW;
  Value R = rope::fromFunction(TW.heap(), 0, identity, nullptr);
  EXPECT_TRUE(R.isNil());
  EXPECT_EQ(rope::length(R), 0);
}

TEST(Rope, SingleLeaf) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  Ref<> R = Scope.root(rope::fromFunction(TW.heap(), 100, identity, nullptr));
  EXPECT_EQ(rope::length(R), 100);
  EXPECT_EQ(rope::depth(R), 0);
  for (int64_t I = 0; I < 100; I += 7)
    EXPECT_EQ(rope::getInt(R, I), I);
}

TEST(Rope, MultiLeafBalanced) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  const int64_t N = rope::LeafElems * 9 + 17;
  Ref<> R = Scope.root(rope::fromFunction(TW.heap(), N, identity, nullptr));
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

TEST(Rope, ConcatPreservesOrder) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  Ref<> A = Scope.root(rope::fromFunction(TW.heap(), 1500, identity, nullptr));
  Ref<> B = Scope.root(rope::fromFunction(
      TW.heap(), 700, [](int64_t I, void *) { return uint64_t(I + 1500); },
      nullptr));
  Ref<> C = Scope.root(rope::concat(TW.heap(), A, B));
  EXPECT_EQ(rope::length(C), 2200);
  for (int64_t I = 0; I < 2200; I += 101)
    EXPECT_EQ(rope::getInt(C, I), I);
}

TEST(Rope, ConcatWithNil) {
  RopeWorld TW;
  RootScope Scope(TW.heap());
  Ref<> A = Scope.root(rope::fromFunction(TW.heap(), 10, identity, nullptr));
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
  Ref<> R = Scope.root(rope::fromFunction(
      TW.heap(), 512,
      [](int64_t I, void *) {
        return rope::packDouble(0.5 * static_cast<double>(I));
      },
      nullptr));
  EXPECT_DOUBLE_EQ(rope::getDouble(R, 100), 50.0);
  EXPECT_DOUBLE_EQ(rope::getDouble(R, 511), 255.5);
}

TEST(Rope, SurvivesCollections) {
  RopeWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Scope(H);
  const int64_t N = 4000;
  Ref<> R = Scope.root(rope::fromFunction(H, N, identity, nullptr));
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
  Ref<> R = Scope.root(rope::fromFunction(H, 2500, identity, nullptr));
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
  Ref<> R = Scope.root(rope::fromFunction(TW.heap(), 2048, identity, nullptr));
  EXPECT_TRUE(rope::isRope(TW.World, R));
  EXPECT_TRUE(rope::isRope(TW.World, Value::nil()));
  EXPECT_FALSE(rope::isRope(TW.World, Value::fromInt(3)));
  Ref<> V = Scope.root(TW.heap().allocVector(nullptr, 3));
  EXPECT_FALSE(rope::isRope(TW.World, V));
}

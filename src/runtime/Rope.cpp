//===- runtime/Rope.cpp ----------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Rope.h"

#include "support/Assert.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <vector>

using namespace manti;
using namespace manti::rope;

// Rope nodes are the typed RopeNode layout (Rope.h): two scanned
// subrope fields plus raw length and depth, registered through
// ObjectType<RopeNode>.
namespace {

using Node = ObjectType<RopeNode>;

bool isLeaf(Value Rope) { return objectId(Rope) == IdRaw; }

int64_t leafLen(Value Leaf) {
  return static_cast<int64_t>(objectLenWords(Leaf));
}

Value makeNode(VProcHeap &H, Value Left, Value Right) {
  MANTI_CHECK(H.world().RopeNodeId != 0,
              "rope descriptors not registered with this world");
  RootScope S(H);
  Ref<RopeNode> N = alloc<RopeNode>(
      S, RopeNode{Left, Right, length(Left) + length(Right),
                  std::max(depth(Left), depth(Right)) + 1});
  return N.value();
}

/// Builds a balanced rope over Data[Lo, Hi); each leaf is one copy.
Value buildBalanced(VProcHeap &H, const uint64_t *Data, int64_t Lo,
                    int64_t Hi) {
  int64_t N = Hi - Lo;
  if (N <= LeafElems)
    return H.allocRaw(Data + Lo, static_cast<std::size_t>(N) * 8);
  // Split on a leaf-aligned midpoint for a balanced tree.
  int64_t Leaves = divideCeil(static_cast<uint64_t>(N), LeafElems);
  int64_t Mid = Lo + (Leaves / 2) * LeafElems;
  RootScope S(H);
  Ref<> Left = S.root(buildBalanced(H, Data, Lo, Mid));
  Ref<> Right = S.root(buildBalanced(H, Data, Mid, Hi));
  return makeNode(H, Left, Right);
}

} // namespace

void manti::registerRopeDescriptors(GCWorld &World) {
  MANTI_CHECK(World.RopeNodeId == 0, "rope descriptors already registered");
  World.RopeNodeId = Node::registerWith(World);
}

int64_t manti::rope::length(Value Rope) {
  if (Rope.isNil())
    return 0;
  if (isLeaf(Rope))
    return leafLen(Rope);
  return Node::get<&RopeNode::Len>(Rope);
}

int64_t manti::rope::depth(Value Rope) {
  if (Rope.isNil() || isLeaf(Rope))
    return 0;
  return Node::get<&RopeNode::Depth>(Rope);
}

Value manti::rope::fromArray(VProcHeap &H, const uint64_t *Data, int64_t N) {
  if (N <= 0)
    return Value::nil();
  return buildBalanced(H, Data, 0, N);
}

uint64_t manti::rope::get(Value Rope, int64_t Index) {
  assert(Index >= 0 && Index < length(Rope) && "rope index out of range");
  while (!isLeaf(Rope)) {
    Value Left = Node::get<&RopeNode::Left>(Rope);
    int64_t LeftLen = length(Left);
    if (Index < LeftLen) {
      Rope = Left;
    } else {
      Index -= LeftLen;
      Rope = Node::get<&RopeNode::Right>(Rope);
    }
  }
  return static_cast<uint64_t *>(rawData(Rope))[Index];
}

int64_t manti::rope::getInt(Value Rope, int64_t Index) {
  return static_cast<int64_t>(get(Rope, Index));
}

double manti::rope::getDouble(Value Rope, int64_t Index) {
  return unpackDouble(get(Rope, Index));
}

void manti::rope::toArray(Value Rope, uint64_t *Out) {
  if (Rope.isNil())
    return;
  // Iterative traversal: explicit stack avoids deep recursion on skewed
  // ropes.
  std::vector<Value> Stack{Rope};
  int64_t Pos = 0;
  // Depth-first, left to right. Pop order: process node by pushing
  // right then left.
  while (!Stack.empty()) {
    Value Cur = Stack.back();
    Stack.pop_back();
    if (isLeaf(Cur)) {
      int64_t N = leafLen(Cur);
      const uint64_t *Data = static_cast<const uint64_t *>(rawData(Cur));
      std::copy(Data, Data + N, Out + Pos);
      Pos += N;
      continue;
    }
    Stack.push_back(Node::get<&RopeNode::Right>(Cur));
    Stack.push_back(Node::get<&RopeNode::Left>(Cur));
  }
}

Value manti::rope::concat(VProcHeap &H, Value Left, Value Right) {
  if (Left.isNil())
    return Right;
  if (Right.isNil())
    return Left;
  RootScope S(H);
  Ref<> Joined = S.root(makeNode(H, Left, Right));

  // Keep depth logarithmic: when the spine grows far beyond what a
  // balanced tree of this size needs, rebuild. Rebuilding is O(n) but
  // amortizes across the O(n) concats that caused the skew.
  int64_t Len = length(Joined);
  int64_t Leaves = std::max<int64_t>(
      1, static_cast<int64_t>(divideCeil(static_cast<uint64_t>(Len),
                                         LeafElems)));
  int64_t Budget = 2 * static_cast<int64_t>(log2Floor(
                           nextPowerOf2(static_cast<uint64_t>(Leaves)))) +
                   8;
  if (depth(Joined) <= Budget)
    return Joined.value();
  std::vector<uint64_t> Tmp(static_cast<std::size_t>(Len));
  toArray(Joined, Tmp.data());
  return fromArray(H, Tmp.data(), Len);
}

bool manti::rope::isRope(GCWorld &W, Value V) {
  if (V.isNil())
    return true;
  if (!V.isPtr())
    return false;
  uint16_t Id = objectId(V);
  return Id == IdRaw || (W.RopeNodeId != 0 && Id == W.RopeNodeId);
}

//===- runtime/Rope.h - immutable segmented sequences ---------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ropes: immutable sequences represented as balanced concatenation
/// trees over fixed-size leaves, the standard bulk-data representation
/// for parallel functional languages (Manticore's parallel arrays use
/// the same idea). Leaves are raw objects holding packed 64-bit scalars
/// (int64 or double bit patterns), so leaves are never scanned; interior
/// nodes are mixed objects with two pointer fields and two raw fields
/// (length, depth) dispatched through the object-descriptor table.
///
/// Leaves are sized to stay well under a local heap's large-object
/// bound, keeping rope construction in the nurseries where allocation is
/// a bump -- exactly the allocation profile the paper's collector is
/// designed around. There is one builder, fromArray over a flat buffer:
/// it splits on leaf-aligned midpoints and builds each leaf with a single
/// copy into its freshly bumped object, so a leaf's scalars are written
/// once (no zero-fill, no per-element call).
///
/// All operations are pure: building, concatenating, mapping, and
/// updating produce new ropes.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_ROPE_H
#define MANTI_RUNTIME_ROPE_H

#include "gc/Handles.h"
#include "gc/Heap.h"

#include <cstdint>

namespace manti {

class Runtime;
class VProc;

/// Interior rope node: two scanned subrope fields plus the cached scalar
/// count and depth. Registered through the typed-handle layer
/// (ObjectType<RopeNode>); exposed so clients can use typed accessors on
/// rope values they know are interior nodes.
struct RopeNode {
  Value Left;
  Value Right;
  int64_t Len;
  int64_t Depth;
  static constexpr const char *GcName = "rope-node";
  static constexpr auto GcPtrFields =
      ptrFields(&RopeNode::Left, &RopeNode::Right);
};

/// Registers the rope node descriptor with \p World. Runtime's
/// constructor calls this; standalone GCWorld users (tests) call it
/// directly. Idempotent per world is NOT required -- call once.
void registerRopeDescriptors(GCWorld &World);

namespace rope {

/// Maximum scalars per leaf.
inline constexpr int64_t LeafElems = 1024;

/// Builds a balanced rope from \p N packed scalars (nil when N <= 0).
/// Each leaf is one copy of up to LeafElems scalars out of \p Data, which
/// must be C++ memory: a collection during the build would move heap
/// memory.
Value fromArray(VProcHeap &H, const uint64_t *Data, int64_t N);

/// Number of scalars in the rope.
int64_t length(Value Rope);

/// Tree depth (leaves have depth 0).
int64_t depth(Value Rope);

/// Element access (O(depth)).
uint64_t get(Value Rope, int64_t Index);

/// Convenience accessors for typed ropes.
int64_t getInt(Value Rope, int64_t Index);
double getDouble(Value Rope, int64_t Index);

/// Concatenates two ropes (O(1) plus rebalancing of shallow spines).
Value concat(VProcHeap &H, Value Left, Value Right);

/// Copies the rope's scalars into \p Out (length() elements).
void toArray(Value Rope, uint64_t *Out);

/// \returns true if \p V is a rope leaf or node.
bool isRope(GCWorld &W, Value V);

//===----------------------------------------------------------------------===//
// Handle-aware faces: same operations, but results come back rooted in
// the caller's RootScope. These are the entry points workloads use; the
// Value-level functions above remain for allocation-free traversal
// (length, get, toArray) where no rooting is needed.
//===----------------------------------------------------------------------===//

inline Ref<Object> fromArray(RootScope &S, const uint64_t *Data, int64_t N) {
  return S.root(fromArray(S.heap(), Data, N));
}

inline Ref<Object> concat(RootScope &S, const Ref<> &Left,
                          const Ref<> &Right) {
  return S.root(concat(S.heap(), Left.value(), Right.value()));
}

/// Packing helpers for double-valued ropes.
inline uint64_t packDouble(double D) {
  uint64_t Bits;
  __builtin_memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}
inline double unpackDouble(uint64_t Bits) {
  double D;
  __builtin_memcpy(&D, &Bits, sizeof(D));
  return D;
}

} // namespace rope
} // namespace manti

#endif // MANTI_RUNTIME_ROPE_H

//===- gc/HeapInternal.h - raw Value-level heap surface -------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector-internal allocation surface: the raw mixed-object
/// allocators. Only translation units that define MANTI_GC_INTERNAL may
/// include this header -- the heap itself (gc/Heap.cpp), the handle
/// layer (gc/Handles.cpp), collector tests, and gc_microbench.
/// Everything else programs against gc/Handles.h (RootScope / Ref<T> /
/// alloc<T>), which makes the rooting discipline impossible to get
/// wrong by construction. Roots are registered through RootScope here
/// too; there is no second rooting face.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_GC_HEAPINTERNAL_H
#define MANTI_GC_HEAPINTERNAL_H

#ifndef MANTI_GC_INTERNAL
#error "gc/HeapInternal.h is collector-internal: define MANTI_GC_INTERNAL "    \
       "before including it, or use the public gc/Handles.h API instead"
#endif

#include "gc/Heap.h"

namespace manti {
namespace gcinternal {

/// Befriended gateway into VProcHeap's private allocation machinery.
/// Static methods are defined in Heap.cpp next to the fast paths they
/// wrap; use the free-function faces below.
struct HeapAccess {
  static Value allocMixed(VProcHeap &H, uint16_t Id, const Word *Fields);
  static Value allocMixedRooted(VProcHeap &H, uint16_t Id,
                                const Word *RawFields,
                                Value *const *PtrFieldSlots);
};

/// Allocates a mixed-type object of registered type \p Id. \p Fields
/// supplies the object's SizeWords initial words verbatim. CAUTION: the
/// allocation may collect, moving any objects \p Fields points at; only
/// use this when the pointer fields are nil/ints or when no collection
/// can intervene.
inline Value allocMixed(VProcHeap &H, uint16_t Id, const Word *Fields) {
  return HeapAccess::allocMixed(H, Id, Fields);
}

/// Collection-safe mixed allocation: \p RawFields supplies every word,
/// then each descriptor pointer field is overwritten by re-reading the
/// corresponding entry of \p PtrFieldSlots (rooted Value slots, in
/// descriptor offset order) *after* the allocation, so a collection
/// triggered by the allocation cannot leave stale pointers behind.
inline Value allocMixedRooted(VProcHeap &H, uint16_t Id,
                              const Word *RawFields,
                              Value *const *PtrFieldSlots) {
  return HeapAccess::allocMixedRooted(H, Id, RawFields, PtrFieldSlots);
}

} // namespace gcinternal

} // namespace manti

#endif // MANTI_GC_HEAPINTERNAL_H

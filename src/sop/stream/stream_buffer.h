// The shared sliding store of alive points.
//
// Every detector sees the stream through a StreamBuffer owned by the
// driver: points are appended in arrival order and expired from the front
// once they fall out of the largest (swift) window. Points are addressed by
// their global arrival sequence number, which stays valid until expiry.

#ifndef SOP_STREAM_STREAM_BUFFER_H_
#define SOP_STREAM_STREAM_BUFFER_H_

#include <cstddef>
#include <cstdint>

#include "sop/common/check.h"
#include "sop/common/column_store.h"
#include "sop/common/point.h"
#include "sop/stream/window.h"

namespace sop {

/// Sliding buffer of alive points, indexed by arrival sequence number: a
/// ColumnStore plus the window type that turns seqs into window keys.
///
/// Invariants: the first appended point fixes where the seqs start (a
/// detector's first batch may start mid-stream: a history replay after
/// trimming, a resumed run); every later one has seq == next_seq(). Keys
/// are non-decreasing; expiry only moves forward. Not thread-safe.
class StreamBuffer : private ColumnStore {
 public:
  explicit StreamBuffer(WindowType type) : type_(type) {}

  // The store's read side. Load copies an alive point into a caller-owned
  // Point, reusing its `values` capacity: a reused scratch Point never
  // allocates.
  using ColumnStore::Contains;
  using ColumnStore::empty;
  using ColumnStore::first_seq;
  using ColumnStore::Load;
  using ColumnStore::MemoryBytes;
  using ColumnStore::next_seq;
  using ColumnStore::size;

  /// Appends a point. Unless it is the first point of a buffer that was
  /// never ResetTo, its seq must equal next_seq(); its key must be >= the
  /// previous point's key.
  void Append(Point p);

  /// Re-bases an empty buffer at `first_seq` (checkpoint restore).
  void ResetTo(Seq first_seq) {
    ColumnStore::ResetTo(first_seq);
    based_ = true;
  }

  /// Drops all points whose key is < `min_key`. Returns how many were
  /// dropped.
  size_t ExpireBefore(int64_t min_key);

  /// Key of alive point `seq` under this buffer's window type.
  int64_t KeyOf(Seq seq) const {
    SOP_DCHECK(Contains(seq));
    return type_ == WindowType::kCount ? static_cast<int64_t>(seq)
                                       : TimeOf(seq);
  }

  /// Smallest alive sequence number whose key is >= `min_key` (binary
  /// search; keys are non-decreasing). Returns next_seq() if none.
  Seq LowerBoundKey(int64_t min_key) const;

  /// The alive points' columns — the batch distance kernel
  /// (common/dist_kernel.h) reads attributes through them.
  const ColumnStore& columns() const { return *this; }

 private:
  WindowType type_;
  bool based_ = false;  // seqs start fixed, by ResetTo or the first Append
};

}  // namespace sop

#endif  // SOP_STREAM_STREAM_BUFFER_H_

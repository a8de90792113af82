#ifndef EPFIS_BUFFER_LRU_REPLACER_H_
#define EPFIS_BUFFER_LRU_REPLACER_H_

#include <cstdint>
#include <vector>

#include "buffer/replacer.h"

namespace epfis {

/// Strict least-recently-used replacement: victims are chosen in order of
/// least recent access among evictable frames.
///
/// The recency order is an intrusive doubly linked list threaded through a
/// frame-indexed node array, so RecordAccess, SetEvictable and Remove are
/// O(1) and allocate nothing once the array covers every frame (it grows
/// to the highest frame id seen; a BufferPool's ids are dense). Evict walks
/// from the LRU end past pinned frames, so it costs O(1) plus the pinned
/// frames it skips.
class LruReplacer final : public Replacer {
 public:
  LruReplacer() = default;

  void RecordAccess(FrameId frame) override;
  void SetEvictable(FrameId frame, bool evictable) override;
  std::optional<FrameId> Evict() override;
  void Remove(FrameId frame) override;

  size_t num_tracked() const { return num_tracked_; }

 private:
  static constexpr FrameId kNil = SIZE_MAX;

  struct Node {
    FrameId prev = kNil;  // Toward the LRU end.
    FrameId next = kNil;  // Toward the MRU end.
    bool tracked = false;
    bool evictable = false;
  };

  bool Tracked(FrameId frame) const {
    return frame < nodes_.size() && nodes_[frame].tracked;
  }
  void Unlink(FrameId frame);
  void PushMru(FrameId frame);

  std::vector<Node> nodes_;  // Indexed by frame id.
  FrameId lru_ = kNil;       // Least recently used tracked frame.
  FrameId mru_ = kNil;       // Most recently used tracked frame.
  size_t num_tracked_ = 0;
};

}  // namespace epfis

#endif  // EPFIS_BUFFER_LRU_REPLACER_H_

#include "buffer/lru_replacer.h"

namespace epfis {

void LruReplacer::Unlink(FrameId frame) {
  Node& node = nodes_[frame];
  (node.prev == kNil ? lru_ : nodes_[node.prev].next) = node.next;
  (node.next == kNil ? mru_ : nodes_[node.next].prev) = node.prev;
  node.prev = kNil;
  node.next = kNil;
}

void LruReplacer::PushMru(FrameId frame) {
  Node& node = nodes_[frame];
  node.prev = mru_;
  node.next = kNil;
  (mru_ == kNil ? lru_ : nodes_[mru_].next) = frame;
  mru_ = frame;
}

void LruReplacer::RecordAccess(FrameId frame) {
  if (Tracked(frame)) {
    if (frame != mru_) {
      Unlink(frame);
      PushMru(frame);
    }
    return;
  }
  if (frame >= nodes_.size()) nodes_.resize(frame + 1);
  nodes_[frame].tracked = true;
  nodes_[frame].evictable = false;
  PushMru(frame);
  ++num_tracked_;
}

void LruReplacer::SetEvictable(FrameId frame, bool evictable) {
  // Unknown frame: treat as an access first so SetEvictable is safe to
  // call in any order.
  if (!Tracked(frame)) RecordAccess(frame);
  nodes_[frame].evictable = evictable;
}

std::optional<FrameId> LruReplacer::Evict() {
  for (FrameId frame = lru_; frame != kNil; frame = nodes_[frame].next) {
    if (nodes_[frame].evictable) {
      Remove(frame);
      return frame;
    }
  }
  return std::nullopt;
}

void LruReplacer::Remove(FrameId frame) {
  if (!Tracked(frame)) return;
  Unlink(frame);
  nodes_[frame].tracked = false;
  nodes_[frame].evictable = false;
  --num_tracked_;
}

}  // namespace epfis

#include "buffer/buffer_pool.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "buffer/lru_replacer.h"

namespace epfis {
namespace {

/// Bytes of a `pool_size`-frame arena. Throws instead of letting an absurd
/// size wrap to a small allocation.
size_t ArenaBytes(size_t pool_size) {
  if (pool_size > SIZE_MAX / kPageSize) {
    throw std::length_error("BufferPool: " + std::to_string(pool_size) +
                            " frames overflow the frame arena size");
  }
  return pool_size * kPageSize;
}

}  // namespace

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      page_id_(other.page_id_),
      frame_(other.frame_),
      data_(other.data_),
      dirty_(other.dirty_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_id_ = other.page_id_;
    frame_ = other.frame_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

char* PageGuard::mutable_data() {
  dirty_ = true;
  return data_;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, dirty_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t pool_size,
                       std::unique_ptr<Replacer> replacer)
    : disk_(disk),
      replacer_(std::move(replacer)),
      // Uninitialized: FetchPage copies a whole page in and NewPage zeroes
      // its frame, so no frame is read before it is written.
      arena_(std::make_unique_for_overwrite<char[]>(ArenaBytes(pool_size))),
      frames_(pool_size),
      page_table_(pool_size) {
  if (replacer_ == nullptr) replacer_ = std::make_unique<LruReplacer>();
  free_list_.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    // Hand out low frame indices first.
    free_list_.push_back(pool_size - 1 - i);
  }
}

BufferPool::~BufferPool() {
  // Best-effort flush so tests that re-open data through a fresh pool see
  // the latest contents.
  (void)FlushAll();
}

Result<FrameId> BufferPool::GetVictimFrame() {
  if (!free_list_.empty()) {
    FrameId frame = free_list_.back();
    free_list_.pop_back();
    return frame;
  }
  std::optional<FrameId> victim = replacer_->Evict();
  if (!victim.has_value()) {
    return Status::ResourceExhausted("all buffer frames are pinned");
  }
  Frame& frame = frames_[*victim];
  ++stats_.evictions;
  if (frame.dirty) {
    EPFIS_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, FrameData(*victim)));
    ++stats_.writebacks;
    frame.dirty = false;
  }
  page_table_.Erase(frame.page_id);
  frame.page_id = kInvalidPageId;
  return *victim;
}

PageGuard BufferPool::PinNewFrame(FrameId frame_id, PageId page_id,
                                  bool dirty) {
  Frame& frame = frames_[frame_id];
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = dirty;
  page_table_.TryEmplace(page_id, frame_id);
  replacer_->RecordAccess(frame_id);
  replacer_->SetEvictable(frame_id, false);
  return PageGuard(this, page_id, frame_id, FrameData(frame_id));
}

Result<PageGuard> BufferPool::FetchPage(PageId page_id) {
  ++stats_.requests;
  // Reject an id the disk does not hold before the lookup and before a
  // victim is chosen, so a failed fetch evicts nothing. This also keeps
  // kInvalidPageId, the page table's empty-slot key, out of the table.
  if (page_id >= disk_->num_pages()) {
    return Status::OutOfRange("FetchPage: page " + std::to_string(page_id) +
                              " beyond disk size " +
                              std::to_string(disk_->num_pages()));
  }
  if (const FrameId* hit = page_table_.Find(page_id)) {
    ++stats_.hits;
    FrameId frame_id = *hit;
    ++frames_[frame_id].pin_count;
    replacer_->RecordAccess(frame_id);
    replacer_->SetEvictable(frame_id, false);
    return PageGuard(this, page_id, frame_id, FrameData(frame_id));
  }

  EPFIS_ASSIGN_OR_RETURN(FrameId frame_id, GetVictimFrame());
  Status read = disk_->ReadPage(page_id, FrameData(frame_id));
  if (!read.ok()) {
    free_list_.push_back(frame_id);
    return read;
  }
  ++stats_.fetches;
  return PinNewFrame(frame_id, page_id, /*dirty=*/false);
}

Result<PageGuard> BufferPool::NewPage() {
  EPFIS_ASSIGN_OR_RETURN(FrameId frame_id, GetVictimFrame());
  PageId page_id = disk_->AllocatePage();
  std::memset(FrameData(frame_id), 0, kPageSize);
  // Dirty: a new page must be written back even if never modified again.
  return PinNewFrame(frame_id, page_id, /*dirty=*/true);
}

void BufferPool::Unpin(FrameId frame_id, bool dirty) {
  Frame& frame = frames_[frame_id];
  if (frame.pin_count == 0) return;
  frame.dirty = frame.dirty || dirty;
  if (--frame.pin_count == 0) {
    replacer_->SetEvictable(frame_id, true);
  }
}

Status BufferPool::FlushAll() {
  for (FrameId i = 0; i < frames_.size(); ++i) {
    Frame& frame = frames_[i];
    if (frame.page_id != kInvalidPageId && frame.dirty) {
      EPFIS_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, FrameData(i)));
      ++stats_.writebacks;
      frame.dirty = false;
    }
  }
  return Status::Ok();
}

size_t BufferPool::num_pinned() const {
  size_t pinned = 0;
  for (const Frame& frame : frames_) {
    if (frame.page_id != kInvalidPageId && frame.pin_count > 0) ++pinned;
  }
  return pinned;
}

}  // namespace epfis

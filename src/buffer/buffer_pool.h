#ifndef EPFIS_BUFFER_BUFFER_POOL_H_
#define EPFIS_BUFFER_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/replacer.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/flat_hash.h"
#include "util/result.h"

namespace epfis {

class BufferPool;

/// RAII pin on a buffered page. While alive, the page stays in its frame;
/// destruction unpins it. Move-only.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  const char* data() const { return data_; }
  /// Mutable access marks the page dirty (it will be written back on
  /// eviction or flush).
  char* mutable_data();

  /// Explicitly releases the pin early.
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, PageId page_id, FrameId frame, char* data)
      : pool_(pool), page_id_(page_id), frame_(frame), data_(data) {}

  BufferPool* pool_ = nullptr;
  PageId page_id_ = kInvalidPageId;
  FrameId frame_ = 0;  // The pinned frame, so unpinning needs no lookup.
  char* data_ = nullptr;
  bool dirty_ = false;
};

/// Counters describing buffer pool traffic. `fetches` is the paper's F: the
/// number of physical page reads issued to the disk manager.
struct BufferPoolStats {
  uint64_t requests = 0;  // Logical page accesses (A counts distinct pages).
  uint64_t hits = 0;      // Requests satisfied from the pool.
  uint64_t fetches = 0;   // Physical reads (misses).
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
};

/// A classic pin/unpin buffer pool over a DiskManager with a pluggable
/// replacement policy (LRU by default). This is the system the paper
/// assumes: an LRU-managed pool of B page slots; the measured "number of
/// page fetches" for a scan is exactly `stats().fetches`.
///
/// The frames are carved out of one uninitialized arena of
/// `pool_size * kPageSize` bytes, and the page table is a flat
/// open-addressing map keyed by PageId, sized for the pool. With the
/// default LruReplacer, a page request allocates nothing once every frame
/// has been used.
class BufferPool {
 public:
  /// Creates a pool of `pool_size` frames. If `replacer` is null an
  /// LruReplacer is used. Throws std::length_error if the frame arena's
  /// size overflows size_t.
  BufferPool(DiskManager* disk, size_t pool_size,
             std::unique_ptr<Replacer> replacer = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `page_id`, reading it from disk on a miss. Fails if every frame
  /// is pinned, or with OutOfRange if the page does not exist; an id the
  /// disk does not hold is rejected before any victim is chosen, so only
  /// `requests` counts the failed call.
  Result<PageGuard> FetchPage(PageId page_id);

  /// Allocates a new page on disk and pins it (counted as neither hit nor
  /// fetch: no read happens).
  Result<PageGuard> NewPage();

  /// Writes back every dirty page (pages stay resident).
  Status FlushAll();

  size_t pool_size() const { return frames_.size(); }
  const BufferPoolStats& stats() const { return stats_; }

  /// Number of currently pinned pages (for tests).
  size_t num_pinned() const;

 private:
  friend class PageGuard;

  struct Frame {
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
  };

  char* FrameData(FrameId frame) const {
    return arena_.get() + frame * kPageSize;
  }
  /// Pins the just-filled `frame` for `page_id` and registers it.
  PageGuard PinNewFrame(FrameId frame, PageId page_id, bool dirty);
  void Unpin(FrameId frame, bool dirty);
  Result<FrameId> GetVictimFrame();

  DiskManager* disk_;
  std::unique_ptr<Replacer> replacer_;
  std::unique_ptr<char[]> arena_;  // pool_size frames of kPageSize bytes.
  std::vector<Frame> frames_;
  std::vector<FrameId> free_list_;
  // kInvalidPageId is the empty-slot key: it must never be looked up or
  // inserted, which FetchPage's bound check guarantees.
  FlatHashMap<PageId, FrameId, kInvalidPageId> page_table_;
  BufferPoolStats stats_;
};

}  // namespace epfis

#endif  // EPFIS_BUFFER_BUFFER_POOL_H_

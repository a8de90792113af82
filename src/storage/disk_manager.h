#ifndef EPFIS_STORAGE_DISK_MANAGER_H_
#define EPFIS_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace epfis {

/// In-memory simulated disk: a growable array of kPageSize pages with read
/// and write counters. All experiments in this repository measure *page
/// fetches*, i.e. reads issued here by the buffer pool; the counters are the
/// ground truth that estimates are compared against.
///
/// The paper's testbed used real disks, but every reported quantity is a
/// count of fetches, not a latency, so an in-memory disk with counters
/// reproduces the measurements exactly.
class DiskManager {
 public:
  DiskManager() = default;
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a new zero-filled page and returns its id.
  PageId AllocatePage();

  /// Copies the page contents into `out` (kPageSize bytes) and bumps the
  /// read counter.
  Status ReadPage(PageId page_id, char* out);

  /// Copies `data` (kPageSize bytes) into the page and bumps the write
  /// counter.
  Status WritePage(PageId page_id, const char* data);

  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  uint64_t num_reads() const { return num_reads_; }
  uint64_t num_writes() const { return num_writes_; }

 private:
  std::vector<std::unique_ptr<char[]>> pages_;
  uint64_t num_reads_ = 0;
  uint64_t num_writes_ = 0;
};

}  // namespace epfis

#endif  // EPFIS_STORAGE_DISK_MANAGER_H_

#include "storage/disk_manager.h"

#include <cstring>

namespace epfis {

PageId DiskManager::AllocatePage() {
  auto page = std::make_unique<char[]>(kPageSize);
  std::memset(page.get(), 0, kPageSize);
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

Status DiskManager::ReadPage(PageId page_id, char* out) {
  if (page_id >= pages_.size()) {
    return Status::OutOfRange("ReadPage: page " + std::to_string(page_id) +
                              " beyond disk size " +
                              std::to_string(pages_.size()));
  }
  std::memcpy(out, pages_[page_id].get(), kPageSize);
  ++num_reads_;
  return Status::Ok();
}

Status DiskManager::WritePage(PageId page_id, const char* data) {
  if (page_id >= pages_.size()) {
    return Status::OutOfRange("WritePage: page " + std::to_string(page_id) +
                              " beyond disk size " +
                              std::to_string(pages_.size()));
  }
  std::memcpy(pages_[page_id].get(), data, kPageSize);
  ++num_writes_;
  return Status::Ok();
}

}  // namespace epfis

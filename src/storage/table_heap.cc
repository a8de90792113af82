#include "storage/table_heap.h"

#include "storage/slotted_page.h"

namespace epfis {

TableHeap::TableHeap(BufferPool* pool, Schema schema, std::string name,
                     uint32_t max_records_per_page)
    : pool_(pool),
      schema_(std::move(schema)),
      name_(std::move(name)),
      max_records_per_page_(max_records_per_page) {}

Result<PageId> TableHeap::PageAt(uint32_t ordinal) const {
  if (ordinal >= pages_.size()) {
    return Status::OutOfRange("page ordinal " + std::to_string(ordinal) +
                              " out of range");
  }
  return pages_[ordinal];
}

Result<uint32_t> TableHeap::AppendPage() {
  EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
  SlottedPage::Format(guard.mutable_data());
  pages_.push_back(guard.page_id());
  return static_cast<uint32_t>(pages_.size() - 1);
}

Result<Rid> TableHeap::InsertIntoPage(uint32_t ordinal,
                                      const Record& record) {
  if (ordinal >= pages_.size()) {
    return Status::OutOfRange("page ordinal " + std::to_string(ordinal) +
                              " out of range");
  }
  EPFIS_ASSIGN_OR_RETURN(std::string bytes, record.Serialize(schema_));
  EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pages_[ordinal]));
  SlottedPage page(guard.mutable_data());
  if (max_records_per_page_ > 0 &&
      page.num_slots() >= max_records_per_page_) {
    return Status::ResourceExhausted("page at records-per-page cap");
  }
  EPFIS_ASSIGN_OR_RETURN(uint16_t slot, page.Insert(bytes));
  ++num_records_;
  return Rid{pages_[ordinal], slot};
}

Result<Rid> TableHeap::Insert(const Record& record) {
  for (uint32_t ordinal = first_nonfull_;
       ordinal < static_cast<uint32_t>(pages_.size()); ++ordinal) {
    auto rid = InsertIntoPage(ordinal, record);
    if (rid.ok()) return rid;
    if (rid.status().code() != StatusCode::kResourceExhausted) return rid;
    first_nonfull_ = ordinal + 1;
  }
  EPFIS_ASSIGN_OR_RETURN(uint32_t ordinal, AppendPage());
  return InsertIntoPage(ordinal, record);
}

Result<Record> TableHeap::Get(const Rid& rid) const {
  EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page_id));
  SlottedPage page(const_cast<char*>(guard.data()));
  EPFIS_ASSIGN_OR_RETURN(std::string_view bytes, page.Get(rid.slot));
  return Record::Deserialize(schema_, bytes);
}

}  // namespace epfis

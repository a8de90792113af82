#include "storage/record.h"

#include <cstring>

namespace epfis {
namespace {

Status CheckSerializedSize(const Schema& schema, std::string_view data) {
  if (data.size() != schema.record_size()) {
    return Status::Corruption("serialized record has size " +
                              std::to_string(data.size()) + ", expected " +
                              std::to_string(schema.record_size()));
  }
  return Status::Ok();
}

}  // namespace

Result<std::string> Record::Serialize(const Schema& schema) const {
  if (values_.size() != schema.num_columns()) {
    return Status::InvalidArgument("record arity does not match schema");
  }
  std::string out(schema.record_size(), '\0');
  for (size_t i = 0; i < values_.size(); ++i) {
    std::memcpy(out.data() + i * sizeof(int64_t), &values_[i],
                sizeof(int64_t));
  }
  return out;
}

Result<Record> Record::Deserialize(const Schema& schema,
                                   std::string_view data) {
  EPFIS_RETURN_IF_ERROR(CheckSerializedSize(schema, data));
  std::vector<int64_t> values(schema.num_columns());
  for (size_t i = 0; i < values.size(); ++i) {
    std::memcpy(&values[i], data.data() + i * sizeof(int64_t),
                sizeof(int64_t));
  }
  return Record(std::move(values));
}

Result<int64_t> Record::DeserializeValue(const Schema& schema,
                                         std::string_view data,
                                         size_t column) {
  EPFIS_RETURN_IF_ERROR(CheckSerializedSize(schema, data));
  int64_t value;
  std::memcpy(&value, data.data() + column * sizeof(int64_t),
              sizeof(int64_t));
  return value;
}

}  // namespace epfis

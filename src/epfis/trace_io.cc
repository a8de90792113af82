#include "epfis/trace_io.h"

#include <fstream>
#include <memory>
#include <string>

#include "epfis/trace_source.h"
#include "util/fault.h"

namespace epfis {
namespace {

Status WriteHeader(std::ofstream& out, uint64_t count) {
  out.write(kPageTraceMagic, 8);
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  return out.good() ? Status::Ok() : Status::IoError("trace header write");
}

Status WriteBody(std::ofstream& out, const void* data, size_t len,
                 const std::string& path) {
  uint64_t want = len;
  FaultIoOutcome fault = FaultIoPoint("trace.save.write", &want);
  if (!fault.status.ok()) return fault.status;
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(len));
  if (!out.good()) return Status::IoError("trace write to " + path + " failed");
  return Status::Ok();
}

}  // namespace

Status SavePageTrace(const std::vector<PageId>& trace,
                     const std::string& path) {
  EPFIS_RETURN_IF_ERROR(FaultPoint("trace.save.open"));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  EPFIS_RETURN_IF_ERROR(WriteHeader(out, trace.size()));
  if (!trace.empty()) {
    EPFIS_RETURN_IF_ERROR(
        WriteBody(out, trace.data(), trace.size() * sizeof(PageId), path));
  }
  return out.good() ? Status::Ok() : Status::IoError("trace write failed");
}

Result<std::vector<PageId>> LoadPageTrace(const std::string& path) {
  EPFIS_ASSIGN_OR_RETURN(std::unique_ptr<TraceSource> source,
                         OpenTraceSource(path));
  // Both file sources check the count against the file size at Open, so
  // the hint is exact and safe to size from.
  std::vector<PageId> trace(source->size_hint().value_or(0));
  size_t filled = 0;
  while (filled < trace.size()) {
    EPFIS_ASSIGN_OR_RETURN(
        size_t got, source->Next(trace.data() + filled, trace.size() - filled));
    if (got == 0) return Status::Corruption("trace file: truncated body");
    filled += got;
  }
  return trace;
}

}  // namespace epfis

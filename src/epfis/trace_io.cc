#include "epfis/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "util/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#define EPFIS_TRACE_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#endif

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

// ---------------------------------------------------------------------------
// PageTraceReader::Impl — raw-descriptor backend with EINTR retry and
// short-read continuation.
// ---------------------------------------------------------------------------

class PageTraceReader::Impl {
 public:
  static Result<std::unique_ptr<Impl>> Open(const std::string& path) {
    EPFIS_RETURN_IF_ERROR(FaultPoint("trace.open"));
    auto impl = std::unique_ptr<Impl>(new Impl);
    impl->path_ = path;
#ifdef EPFIS_TRACE_POSIX_IO
    impl->fd_ = ::open(path.c_str(), O_RDONLY);
    if (impl->fd_ < 0) return Status::IoError("cannot open " + path);
#else
    impl->file_ = std::fopen(path.c_str(), "rb");
    if (impl->file_ == nullptr) return Status::IoError("cannot open " + path);
#endif
    return impl;
  }

  ~Impl() {
#ifdef EPFIS_TRACE_POSIX_IO
    if (fd_ >= 0) ::close(fd_);
#else
    if (file_ != nullptr) std::fclose(file_);
#endif
  }

  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  /// Reads until `len` bytes arrive or EOF, retrying interrupted calls and
  /// continuing after short reads. Returns the bytes actually read (< len
  /// only at EOF). `point` names the fault-injection point consulted
  /// before every underlying read.
  Result<size_t> ReadFull(void* buffer, size_t len, const char* point) {
    char* out = static_cast<char*>(buffer);
    size_t got = 0;
    int eintr_budget = kDefaultEintrRetryBudget;
    auto exhausted = [this, &eintr_budget] {
      return Status::IoError(
          "read of " + path_ + " interrupted too many times (" +
          std::to_string(kDefaultEintrRetryBudget - eintr_budget) +
          " of " + std::to_string(kDefaultEintrRetryBudget) +
          " retries consumed)");
    };
    while (got < len) {
      uint64_t want = len - got;
      FaultIoOutcome fault = FaultIoPoint(point, &want);
      if (!fault.status.ok()) return fault.status;
      if (fault.eintr) {
        // Injected interrupted syscall: consume retry budget without
        // touching the descriptor, exactly like the errno path below.
        if (--eintr_budget <= 0) return exhausted();
        continue;
      }
#ifdef EPFIS_TRACE_POSIX_IO
      ssize_t n = ::read(fd_, out + got, static_cast<size_t>(want));
      if (n < 0) {
        if (errno == EINTR) {
          if (--eintr_budget > 0) continue;
          return exhausted();
        }
        return Status::IoError("read of " + path_ + " failed");
      }
      if (n == 0) break;  // EOF.
      got += static_cast<size_t>(n);
#else
      size_t n = std::fread(out + got, 1, static_cast<size_t>(want), file_);
      if (n == 0) {
        if (std::ferror(file_)) {
          return Status::IoError("read of " + path_ + " failed");
        }
        break;  // EOF.
      }
      got += n;
#endif
    }
    return got;
  }

  Status Seek(uint64_t offset) {
#ifdef EPFIS_TRACE_POSIX_IO
    if (::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
      return Status::IoError("trace file: rewind failed");
    }
#else
    if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
      return Status::IoError("trace file: rewind failed");
    }
#endif
    return Status::Ok();
  }

 private:
  Impl() = default;

  std::string path_;
#ifdef EPFIS_TRACE_POSIX_IO
  int fd_ = -1;
#else
  std::FILE* file_ = nullptr;
#endif
};

PageTraceReader::PageTraceReader(std::unique_ptr<Impl> impl, uint64_t count)
    : impl_(std::move(impl)), count_(count) {}

PageTraceReader::PageTraceReader(PageTraceReader&&) noexcept = default;
PageTraceReader& PageTraceReader::operator=(PageTraceReader&&) noexcept =
    default;
PageTraceReader::~PageTraceReader() = default;

Result<PageTraceReader> PageTraceReader::Open(const std::string& path) {
  EPFIS_ASSIGN_OR_RETURN(std::unique_ptr<Impl> impl, Impl::Open(path));
  char header[kPageTraceHeaderSize];
  EPFIS_ASSIGN_OR_RETURN(
      size_t got, impl->ReadFull(header, sizeof(header), "trace.read.header"));
  // Taxonomy shared with MmapTraceSource: a file too short to hold the 8
  // magic bytes (or holding the wrong ones) is "bad magic"; a good magic
  // with a truncated count is "truncated header".
  if (got < 8 || std::memcmp(header, kPageTraceMagic, 8) != 0) {
    return Status::Corruption("trace file: bad magic");
  }
  if (got < sizeof(header)) {
    return Status::Corruption("trace file: truncated header");
  }
  uint64_t count = 0;
  std::memcpy(&count, header + 8, sizeof(count));
  return PageTraceReader(std::move(impl), count);
}

Result<size_t> PageTraceReader::Read(PageId* buffer, size_t capacity) {
  if (consumed_ >= count_ || capacity == 0) {
    if (consumed_ >= count_ && capacity > 0) {
      // Exhausted: the body must end exactly here.
      char extra;
      EPFIS_ASSIGN_OR_RETURN(
          size_t got, impl_->ReadFull(&extra, 1, "trace.read.body"));
      if (got != 0) return Status::Corruption("trace file: trailing bytes");
    }
    return size_t{0};
  }
  uint64_t want64 = std::min<uint64_t>(capacity, count_ - consumed_);
  size_t want = static_cast<size_t>(want64);
  EPFIS_ASSIGN_OR_RETURN(
      size_t got, impl_->ReadFull(buffer, want * sizeof(PageId),
                                  "trace.read.body"));
  if (got != want * sizeof(PageId)) {
    return Status::Corruption("trace file: truncated body");
  }
  consumed_ += want;
  return want;
}

Status PageTraceReader::Reset() {
  EPFIS_RETURN_IF_ERROR(impl_->Seek(kPageTraceHeaderSize));
  consumed_ = 0;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Whole-trace helpers.
// ---------------------------------------------------------------------------

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
  // Route the bulk load through the hardened incremental reader so it
  // shares the EINTR/short-read handling and fault points.
  EPFIS_ASSIGN_OR_RETURN(PageTraceReader reader, PageTraceReader::Open(path));
  // The count is untrusted: allocate only once the file is known to hold
  // that many entries (compared by division, as MmapTraceSource does, so
  // a hostile count cannot overflow).
  std::error_code size_error;
  uint64_t file_bytes = std::filesystem::file_size(path, size_error);
  if (size_error) return Status::IoError("cannot stat " + path);
  if (file_bytes < kPageTraceHeaderSize ||
      reader.count() >
          (file_bytes - kPageTraceHeaderSize) / sizeof(PageId)) {
    return Status::Corruption("trace file: truncated body");
  }
  std::vector<PageId> trace(reader.count());
  size_t filled = 0;
  while (filled < trace.size()) {
    EPFIS_ASSIGN_OR_RETURN(
        size_t got, reader.Read(trace.data() + filled, trace.size() - filled));
    if (got == 0) break;
    filled += got;
  }
  if (filled != trace.size()) {
    return Status::Corruption("trace file: truncated body");
  }
  // One extra read validates there are no trailing bytes.
  PageId sentinel;
  EPFIS_ASSIGN_OR_RETURN(size_t extra, reader.Read(&sentinel, 1));
  if (extra != 0) return Status::Corruption("trace file: trailing bytes");
  return trace;
}

}  // namespace epfis

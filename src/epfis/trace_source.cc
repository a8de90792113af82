#include "epfis/trace_source.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#define EPFIS_HAS_MMAP 1  // POSIX: raw descriptors and mmap.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace epfis {
namespace {

// Ceiling on consecutive interrupted reads (EINTR) the streaming reader
// retries before failing with IoError. Real EINTR storms resolve in a
// handful of retries; the bound exists so an injected `eintr` schedule (or
// a pathological signal load) turns into a clean error instead of an
// unbounded spin.
constexpr int kEintrRetryBudget = 100;

// The one format check behind both file sources' Open: `header` holds the
// file's first `got` bytes (at most kPageTraceHeaderSize) and `file_size`
// is its length. A file too short to hold the 8 magic bytes, or holding
// the wrong ones, is "bad magic"; a good magic with a truncated count is
// "truncated header"; a body shorter than the count says is "truncated
// body" and a longer one "trailing bytes". Returns the entry count.
Result<uint64_t> CheckTraceFile(const char* header, size_t got,
                                uint64_t file_size) {
  if (got < 8 || std::memcmp(header, kPageTraceMagic, 8) != 0) {
    return Status::Corruption("trace file: bad magic");
  }
  if (got < kPageTraceHeaderSize || file_size < kPageTraceHeaderSize) {
    return Status::Corruption("trace file: truncated header");
  }
  uint64_t count;
  std::memcpy(&count, header + 8, sizeof(count));
  uint64_t body = file_size - kPageTraceHeaderSize;
  // Compare via division so a hostile count cannot overflow count * 4.
  if (count > body / sizeof(PageId)) {
    return Status::Corruption("trace file: truncated body");
  }
  if (body > count * sizeof(PageId)) {
    return Status::Corruption("trace file: trailing bytes");
  }
  return count;
}

}  // namespace

Result<size_t> VectorTraceSource::Next(PageId* buffer, size_t capacity) {
  size_t n = std::min(capacity, data_->size() - pos_);
  if (n > 0) {
    std::memcpy(buffer, data_->data() + pos_, n * sizeof(PageId));
    pos_ += n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// FileTraceSource::Impl — raw-descriptor backend with EINTR retry and
// short-read continuation.
// ---------------------------------------------------------------------------

class FileTraceSource::Impl {
 public:
  static Result<std::unique_ptr<Impl>> Open(const std::string& path) {
    EPFIS_RETURN_IF_ERROR(FaultPoint("trace.open"));
    auto impl = std::unique_ptr<Impl>(new Impl);
    impl->path_ = path;
#ifdef EPFIS_HAS_MMAP
    impl->fd_ = ::open(path.c_str(), O_RDONLY);
    if (impl->fd_ < 0) return Status::IoError("cannot open " + path);
#else
    impl->file_ = std::fopen(path.c_str(), "rb");
    if (impl->file_ == nullptr) return Status::IoError("cannot open " + path);
#endif
    return impl;
  }

  ~Impl() {
#ifdef EPFIS_HAS_MMAP
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
    int eintr_budget = kEintrRetryBudget;
    auto exhausted = [this, &eintr_budget] {
      return Status::IoError(
          "read of " + path_ + " interrupted too many times (" +
          std::to_string(kEintrRetryBudget - eintr_budget) + " of " +
          std::to_string(kEintrRetryBudget) + " retries consumed)");
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
#ifdef EPFIS_HAS_MMAP
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
#ifdef EPFIS_HAS_MMAP
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
#ifdef EPFIS_HAS_MMAP
  int fd_ = -1;
#else
  std::FILE* file_ = nullptr;
#endif
};

FileTraceSource::FileTraceSource(std::unique_ptr<Impl> impl, uint64_t count)
    : impl_(std::move(impl)), count_(count) {}

FileTraceSource::FileTraceSource(FileTraceSource&&) noexcept = default;
FileTraceSource& FileTraceSource::operator=(FileTraceSource&&) noexcept =
    default;
FileTraceSource::~FileTraceSource() = default;

Result<FileTraceSource> FileTraceSource::Open(const std::string& path) {
  EPFIS_ASSIGN_OR_RETURN(std::unique_ptr<Impl> impl, Impl::Open(path));
  char header[kPageTraceHeaderSize];
  EPFIS_ASSIGN_OR_RETURN(
      size_t got, impl->ReadFull(header, sizeof(header), "trace.read.header"));
  std::error_code size_error;
  uint64_t file_size = std::filesystem::file_size(path, size_error);
  if (size_error) return Status::IoError("cannot stat " + path);
  EPFIS_ASSIGN_OR_RETURN(uint64_t count,
                         CheckTraceFile(header, got, file_size));
  static Counter file_opens =
      MetricsRegistry::Global().GetCounter("trace.file_opens");
  file_opens.Increment();
  return FileTraceSource(std::move(impl), count);
}

Result<size_t> FileTraceSource::Next(PageId* buffer, size_t capacity) {
  size_t want =
      static_cast<size_t>(std::min<uint64_t>(capacity, count_ - consumed_));
  if (want == 0) return size_t{0};
  EPFIS_ASSIGN_OR_RETURN(
      size_t got,
      impl_->ReadFull(buffer, want * sizeof(PageId), "trace.read.body"));
  // Open saw the whole body, so a short read means the file shrank since.
  if (got != want * sizeof(PageId)) {
    return Status::Corruption("trace file: truncated body");
  }
  consumed_ += want;
  return want;
}

Status FileTraceSource::Reset() {
  EPFIS_RETURN_IF_ERROR(impl_->Seek(kPageTraceHeaderSize));
  consumed_ = 0;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// MmapTraceSource.
// ---------------------------------------------------------------------------

bool MmapTraceSource::Supported() {
#ifdef EPFIS_HAS_MMAP
  return true;
#else
  return false;
#endif
}

#ifdef EPFIS_HAS_MMAP

Result<MmapTraceSource> MmapTraceSource::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat " + path);
  }
  size_t file_size = static_cast<size_t>(st.st_size);
  char header[kPageTraceHeaderSize];
  ssize_t got = ::pread(fd, header, sizeof(header), 0);
  if (got < 0) {
    ::close(fd);
    return Status::IoError("cannot read " + path);
  }
  // Checked before mmap, so a zero-length or sub-header file never
  // reaches it: mapping 0 bytes is EINVAL on Linux (and UB to dereference
  // anywhere).
  Result<uint64_t> count =
      CheckTraceFile(header, static_cast<size_t>(got), file_size);
  if (!count.ok()) {
    ::close(fd);
    return count.status();
  }
  // Injected map failures take the same exit as a real mmap failure so
  // the OpenTraceSource degrade-to-streaming path can be drilled.
  Status map_fault = FaultPoint("trace.mmap.map");
  if (!map_fault.ok()) {
    ::close(fd);
    return map_fault;
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return Status::IoError("cannot mmap " + path);
  }

  const char* bytes = static_cast<const char*>(map);
  // 16-byte header keeps the entries PageId-aligned within the
  // page-aligned mapping.
  const PageId* entries =
      reinterpret_cast<const PageId*>(bytes + kPageTraceHeaderSize);
  // Consumption is one front-to-back pass (Next) or a sharded sweep that
  // is sequential per worker: tell readahead so, and pull the first
  // window in eagerly so the simulator's opening chunks never fault.
  // Purely advisory — failure changes nothing but timing.
#ifdef MADV_SEQUENTIAL
  (void)::madvise(map, file_size, MADV_SEQUENTIAL);
#endif
#ifdef MADV_WILLNEED
  constexpr size_t kWillNeedWindow = size_t{4} << 20;
  (void)::madvise(map, std::min(file_size, kWillNeedWindow), MADV_WILLNEED);
#endif
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter mmap_opens = registry.GetCounter("trace.mmap_opens");
  static Counter mmap_bytes = registry.GetCounter("trace.mmap_bytes_mapped");
  mmap_opens.Increment();
  mmap_bytes.Increment(file_size);
  return MmapTraceSource(fd, map, file_size, entries, *count);
}

MmapTraceSource::~MmapTraceSource() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  if (fd_ >= 0) ::close(fd_);
}

#else  // !EPFIS_HAS_MMAP

Result<MmapTraceSource> MmapTraceSource::Open(const std::string& path) {
  (void)path;
  return Status::FailedPrecondition("mmap unavailable on this platform");
}

MmapTraceSource::~MmapTraceSource() = default;

#endif  // EPFIS_HAS_MMAP

MmapTraceSource::MmapTraceSource(MmapTraceSource&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      entries_(std::exchange(other.entries_, nullptr)),
      count_(std::exchange(other.count_, 0)),
      pos_(std::exchange(other.pos_, 0)) {}

MmapTraceSource& MmapTraceSource::operator=(MmapTraceSource&& other) noexcept {
  if (this != &other) {
#ifdef EPFIS_HAS_MMAP
    if (map_ != nullptr) ::munmap(map_, map_len_);
    if (fd_ >= 0) ::close(fd_);
#endif
    fd_ = std::exchange(other.fd_, -1);
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    entries_ = std::exchange(other.entries_, nullptr);
    count_ = std::exchange(other.count_, 0);
    pos_ = std::exchange(other.pos_, 0);
  }
  return *this;
}

Result<size_t> MmapTraceSource::Next(PageId* buffer, size_t capacity) {
  size_t n = static_cast<size_t>(
      std::min<uint64_t>(capacity, count_ - pos_));
  if (n > 0) {
#ifdef EPFIS_HAS_MMAP
    // Open saw the whole body, but the file may have shrunk since, and
    // copying from a page it no longer backs raises SIGBUS.
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IoError("trace file: stat failed");
    }
    if (static_cast<uint64_t>(st.st_size) <
        kPageTraceHeaderSize + (pos_ + n) * sizeof(PageId)) {
      return Status::Corruption("trace file: truncated body");
    }
#endif
    std::memcpy(buffer, entries_ + pos_, n * sizeof(PageId));
    pos_ += n;
  }
  return n;
}

Result<std::unique_ptr<TraceSource>> OpenTraceSource(const std::string& path) {
  static Counter fallbacks =
      MetricsRegistry::Global().GetCounter("trace.mmap_fallbacks");
  if (MmapTraceSource::Supported()) {
    Result<MmapTraceSource> source = MmapTraceSource::Open(path);
    if (source.ok()) {
      return std::unique_ptr<TraceSource>(
          new MmapTraceSource(std::move(*source)));
    }
    // Corruption is a property of the file, not the access path — both
    // readers would reject it, so propagate rather than paper over it.
    // An I/O-level mmap failure (e.g. a filesystem that cannot back
    // MAP_PRIVATE) may still stream fine, so fall through.
    if (source.status().code() != StatusCode::kIoError) {
      return source.status();
    }
    fallbacks.Increment();
  } else {
    fallbacks.Increment();
  }
  // Last resort is the streaming reader.
  EPFIS_ASSIGN_OR_RETURN(FileTraceSource source, FileTraceSource::Open(path));
  return std::unique_ptr<TraceSource>(new FileTraceSource(std::move(source)));
}

}  // namespace epfis

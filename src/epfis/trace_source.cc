#include "epfis/trace_source.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#define EPFIS_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace epfis {

Result<size_t> VectorTraceSource::Next(PageId* buffer, size_t capacity) {
  size_t n = std::min(capacity, data_->size() - pos_);
  if (n > 0) {
    std::memcpy(buffer, data_->data() + pos_, n * sizeof(PageId));
    pos_ += n;
  }
  return n;
}

Result<FileTraceSource> FileTraceSource::Open(const std::string& path) {
  EPFIS_ASSIGN_OR_RETURN(PageTraceReader reader, PageTraceReader::Open(path));
  static Counter file_opens =
      MetricsRegistry::Global().GetCounter("trace.file_opens");
  file_opens.Increment();
  return FileTraceSource(std::move(reader));
}

Result<size_t> FileTraceSource::Next(PageId* buffer, size_t capacity) {
  return reader_.Read(buffer, capacity);
}

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
  if (file_size < kPageTraceHeaderSize) {
    // Never reaches mmap: mapping 0 bytes is EINVAL on Linux (and UB to
    // dereference anywhere), and a sub-header file has nothing valid to
    // map anyway. Mirror the streaming reader's taxonomy exactly: a file
    // too short to hold the 8 magic bytes (or holding the wrong ones) is
    // "bad magic"; a good magic with a truncated count is "truncated
    // header".
    char magic[8];
    bool magic_ok = file_size >= sizeof(magic) &&
                    ::pread(fd, magic, sizeof(magic), 0) ==
                        static_cast<ssize_t>(sizeof(magic)) &&
                    std::memcmp(magic, kPageTraceMagic, 8) == 0;
    ::close(fd);
    return magic_ok ? Status::Corruption("trace file: truncated header")
                    : Status::Corruption("trace file: bad magic");
  }
  // Injected map failures take the same exit as a real mmap failure so
  // the OpenTraceSource degrade-to-streaming path can be drilled.
  Status map_fault = FaultPoint("trace.mmap.map");
  if (!map_fault.ok()) {
    ::close(fd);
    return map_fault;
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (map == MAP_FAILED) return Status::IoError("cannot mmap " + path);

  const char* bytes = static_cast<const char*>(map);
  if (std::memcmp(bytes, kPageTraceMagic, 8) != 0) {
    ::munmap(map, file_size);
    return Status::Corruption("trace file: bad magic");
  }
  uint64_t count;
  std::memcpy(&count, bytes + 8, sizeof(count));
  uint64_t body = file_size - kPageTraceHeaderSize;
  // Compare via division so a hostile count cannot overflow count * 4.
  if (count > body / sizeof(PageId)) {
    ::munmap(map, file_size);
    return Status::Corruption("trace file: truncated body");
  }
  if (body > count * sizeof(PageId)) {
    ::munmap(map, file_size);
    return Status::Corruption("trace file: trailing bytes");
  }
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
  return MmapTraceSource(map, file_size, entries, count);
}

MmapTraceSource::~MmapTraceSource() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

#else  // !EPFIS_HAS_MMAP

Result<MmapTraceSource> MmapTraceSource::Open(const std::string& path) {
  (void)path;
  return Status::FailedPrecondition("mmap unavailable on this platform");
}

MmapTraceSource::~MmapTraceSource() = default;

#endif  // EPFIS_HAS_MMAP

MmapTraceSource::MmapTraceSource(MmapTraceSource&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      entries_(std::exchange(other.entries_, nullptr)),
      count_(std::exchange(other.count_, 0)),
      pos_(std::exchange(other.pos_, 0)) {}

MmapTraceSource& MmapTraceSource::operator=(MmapTraceSource&& other) noexcept {
  if (this != &other) {
#ifdef EPFIS_HAS_MMAP
    if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
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

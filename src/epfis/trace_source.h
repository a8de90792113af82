#ifndef EPFIS_EPFIS_TRACE_SOURCE_H_
#define EPFIS_EPFIS_TRACE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "epfis/trace_io.h"
#include "storage/page.h"
#include "util/result.h"

namespace epfis {

/// Pull-based producer of an index reference string.
///
/// §4.1's statistics scan emits one data-page reference per index entry in
/// key order; at production scale that trace is too large to require a
/// materialized std::vector<PageId>. A TraceSource lets LRU-Fit and the
/// stack-distance simulators consume the trace in chunks, whether it lives
/// in memory, in a trace_io file, or is produced online by a scan.
///
/// The contract mirrors a chunked read(2): Next fills up to `capacity`
/// references and returns the number written, 0 at end of trace. Reset
/// rewinds so the source can be consumed again (LRU-Fit needs one pass;
/// benchmarks and the baselines may replay).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Pulls up to `capacity` references into `buffer` in trace order.
  /// Returns the count written; 0 means the trace is exhausted.
  virtual Result<size_t> Next(PageId* buffer, size_t capacity) = 0;

  /// Rewinds to the first reference.
  virtual Status Reset() = 0;

  /// Total reference count when known up front (used to pre-size the
  /// simulators); nullopt for unbounded or online sources.
  virtual std::optional<uint64_t> size_hint() const { return std::nullopt; }
};

/// TraceSource over an in-memory reference string. Owns its storage when
/// constructed from a vector rvalue; the View factory borrows instead
/// (caller keeps the vector alive).
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<PageId> trace)
      : owned_(std::move(trace)), data_(&owned_) {}

  /// Borrowing view; `trace` must outlive the source.
  static VectorTraceSource View(const std::vector<PageId>& trace) {
    return VectorTraceSource(&trace);
  }

  // In the owning case data_ points into this object, so a copy or move
  // would dangle; construction goes through prvalues (guaranteed elision).
  VectorTraceSource(const VectorTraceSource&) = delete;
  VectorTraceSource& operator=(const VectorTraceSource&) = delete;

  Result<size_t> Next(PageId* buffer, size_t capacity) override;
  Status Reset() override {
    pos_ = 0;
    return Status::Ok();
  }
  std::optional<uint64_t> size_hint() const override {
    return static_cast<uint64_t>(data_->size());
  }

 private:
  explicit VectorTraceSource(const std::vector<PageId>* trace)
      : data_(trace) {}

  std::vector<PageId> owned_;
  const std::vector<PageId>* data_;
  size_t pos_ = 0;
};

/// TraceSource over a SavePageTrace file, streamed in caller-sized chunks
/// through a raw descriptor (POSIX fd where available) — the whole trace
/// is never resident. Move-only.
///
/// Open checks the whole file as MmapTraceSource::Open does, with the same
/// Status taxonomy: Corruption for bad magic, a truncated header, a count
/// the file cannot hold or trailing bytes. So size_hint() is the exact
/// entry count, and the path must name a file with a size (a pipe fails
/// with IoError). A file that shrinks after Open fails Next with the
/// Corruption "trace file: truncated body".
///
/// Reads retry interrupted system calls (EINTR) up to 100 times in a row
/// and continue after short reads, so a signal-heavy host never surfaces
/// as spurious Corruption. An exhausted
/// budget fails with IoError reporting how many retries were consumed.
/// The I/O boundary carries the `trace.open` / `trace.read.header` /
/// `trace.read.body` fault-injection points (util/fault.h).
class FileTraceSource final : public TraceSource {
 public:
  static Result<FileTraceSource> Open(const std::string& path);

  FileTraceSource(FileTraceSource&&) noexcept;
  FileTraceSource& operator=(FileTraceSource&&) noexcept;
  ~FileTraceSource() override;

  Result<size_t> Next(PageId* buffer, size_t capacity) override;
  Status Reset() override;
  std::optional<uint64_t> size_hint() const override { return count_; }

 private:
  class Impl;

  FileTraceSource(std::unique_ptr<Impl> impl, uint64_t count);

  std::unique_ptr<Impl> impl_;
  uint64_t count_ = 0;
  uint64_t consumed_ = 0;
};

/// TraceSource over a SavePageTrace file mapped read-only into the address
/// space: the kernel's page cache backs the trace directly, so Next is a
/// straight memcpy out of the mapping with no ifstream buffering between
/// the file and the simulator. Move-only; unmaps and closes the file on
/// destruction.
///
/// Open validates the file exactly as FileTraceSource::Open does, with the
/// same Status for every malformed file. Zero-length and sub-header files
/// are rejected before mmap is ever attempted (mapping 0 bytes is EINVAL).
/// The descriptor stays open so that every Next can fstat it before its
/// copy: a file that shrinks after Open fails Next with the Corruption
/// "trace file: truncated body", as FileTraceSource does, instead of the
/// copy faulting (SIGBUS) on pages the file no longer backs.
///
/// On platforms without mmap, Open fails with FailedPrecondition (see
/// Supported()); OpenTraceSource below falls back to FileTraceSource.
class MmapTraceSource final : public TraceSource {
 public:
  static Result<MmapTraceSource> Open(const std::string& path);

  /// Whether this build can mmap at all.
  static bool Supported();

  MmapTraceSource(MmapTraceSource&& other) noexcept;
  MmapTraceSource& operator=(MmapTraceSource&& other) noexcept;
  ~MmapTraceSource() override;

  Result<size_t> Next(PageId* buffer, size_t capacity) override;
  Status Reset() override {
    pos_ = 0;
    return Status::Ok();
  }
  std::optional<uint64_t> size_hint() const override { return count_; }

 private:
  MmapTraceSource(int fd, void* map, size_t map_len, const PageId* entries,
                  uint64_t count)
      : fd_(fd),
        map_(map),
        map_len_(map_len),
        entries_(entries),
        count_(count) {}

  int fd_ = -1;
  void* map_ = nullptr;
  size_t map_len_ = 0;
  const PageId* entries_ = nullptr;
  uint64_t count_ = 0;
  uint64_t pos_ = 0;
};

/// Opens the fastest available TraceSource for a SavePageTrace file:
/// MmapTraceSource where mmap exists, else FileTraceSource. Format errors
/// propagate from whichever reader sees the file first (no silent
/// fallback on a corrupt file — both reject it with the same taxonomy);
/// an access-path failure — a filesystem that cannot back the mapping —
/// degrades to the streaming reader and bumps trace.mmap_fallbacks.
Result<std::unique_ptr<TraceSource>> OpenTraceSource(const std::string& path);

}  // namespace epfis

#endif  // EPFIS_EPFIS_TRACE_SOURCE_H_

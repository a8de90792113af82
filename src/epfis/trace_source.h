#ifndef EPFIS_EPFIS_TRACE_SOURCE_H_
#define EPFIS_EPFIS_TRACE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "epfis/trace_io.h"
#include "storage/page.h"
#include "util/cancel.h"
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

/// Robustness controls shared by every file-backed source.
struct TraceOpenOptions {
  /// Cooperative cancellation for the source's read loop: every Next
  /// polls the token first and returns Status::Cancelled once it fires,
  /// so a consumer never sits in a stuck read. The default null token
  /// costs one branch per Next.
  CancellationToken cancel;
};

/// TraceSource over a SavePageTrace file, read in chunks through
/// PageTraceReader — the whole trace is never resident. Move-only.
class FileTraceSource final : public TraceSource {
 public:
  static Result<FileTraceSource> Open(const std::string& path);
  static Result<FileTraceSource> Open(const std::string& path,
                                      const TraceOpenOptions& options);

  FileTraceSource(FileTraceSource&&) = default;
  FileTraceSource& operator=(FileTraceSource&&) = default;

  Result<size_t> Next(PageId* buffer, size_t capacity) override;
  Status Reset() override { return reader_.Reset(); }
  std::optional<uint64_t> size_hint() const override {
    return reader_.count();
  }

 private:
  explicit FileTraceSource(PageTraceReader reader)
      : reader_(std::move(reader)) {}

  PageTraceReader reader_;
  CancellationToken cancel_;
};

/// TraceSource over a SavePageTrace file mapped read-only into the address
/// space: the kernel's page cache backs the trace directly, so Next is a
/// straight memcpy out of the mapping with no ifstream buffering between
/// the file and the simulator, and `entries()` exposes the whole trace
/// zero-copy for consumers that can read in place. Move-only; unmaps on
/// destruction.
///
/// Open validates the same format PageTraceReader does and uses the same
/// Status taxonomy — Corruption for bad magic, a truncated header or body,
/// or trailing bytes — except the body errors surface eagerly at Open
/// (the file length already betrays them) rather than during Read.
/// Zero-length and sub-header files are rejected before mmap is ever
/// attempted (mapping 0 bytes is EINVAL), with the identical Status the
/// streaming reader would produce for the same file.
///
/// On platforms without mmap, Open fails with FailedPrecondition (see
/// Supported()); OpenTraceSource below falls back to FileTraceSource.
class MmapTraceSource final : public TraceSource {
 public:
  static Result<MmapTraceSource> Open(const std::string& path);
  static Result<MmapTraceSource> Open(const std::string& path,
                                      const TraceOpenOptions& options);

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

  /// The whole trace, resident via the mapping (zero-copy consumption).
  const PageId* entries() const { return entries_; }
  uint64_t count() const { return count_; }

 private:
  MmapTraceSource(void* map, size_t map_len, const PageId* entries,
                  uint64_t count)
      : map_(map), map_len_(map_len), entries_(entries), count_(count) {}

  void* map_ = nullptr;
  size_t map_len_ = 0;
  const PageId* entries_ = nullptr;
  uint64_t count_ = 0;
  uint64_t pos_ = 0;
  CancellationToken cancel_;
};

/// Opens the fastest available TraceSource for a SavePageTrace file:
/// MmapTraceSource where mmap exists, else FileTraceSource. Format errors
/// propagate from whichever reader sees the file first (no silent
/// fallback on a corrupt file — both reject it with the same taxonomy);
/// an access-path failure — a filesystem that cannot back the mapping —
/// degrades to the streaming reader and bumps trace.mmap_fallbacks.
Result<std::unique_ptr<TraceSource>> OpenTraceSource(
    const std::string& path, const TraceOpenOptions& options = {});

}  // namespace epfis

#endif  // EPFIS_EPFIS_TRACE_SOURCE_H_

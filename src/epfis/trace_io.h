#ifndef EPFIS_EPFIS_TRACE_IO_H_
#define EPFIS_EPFIS_TRACE_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/page.h"
#include "util/result.h"

namespace epfis {

/// Binary (de)serialization of index reference traces.
///
/// §4.1 notes that "a scan of the index for index statistics collection
/// has exactly these characteristics" — in a production deployment the
/// statistics scan and the LRU modeling can run at different times (or on
/// a different host). These helpers persist the trace the statistics scan
/// produces so LRU-Fit can be replayed offline.
///
/// Format: 8-byte magic, u64 count, then fixed-width little-endian
/// entries. Load validates magic and length and fails with Corruption on
/// truncated or foreign files.

/// Magic bytes opening every SavePageTrace file.
inline constexpr char kPageTraceMagic[8] = {'E', 'P', 'F', 'T',
                                            'R', 'C', '0', '1'};

/// Header size of a SavePageTrace file: magic plus the u64 entry count.
inline constexpr size_t kPageTraceHeaderSize = 8 + sizeof(uint64_t);

/// Ceiling on consecutive interrupted reads (EINTR) the reader retries
/// before failing with IoError. Real EINTR storms resolve in a handful of
/// retries; the bound exists so an injected `eintr` schedule (or a
/// pathological signal load) turns into a clean error instead of an
/// unbounded spin.
inline constexpr int kDefaultEintrRetryBudget = 100;

/// Saves a plain data-page trace (what RunLruFit consumes).
Status SavePageTrace(const std::vector<PageId>& trace,
                     const std::string& path);

/// Loads a plain data-page trace. The header's count is untrusted: it is
/// checked against the file's size before anything is allocated, so a
/// count the file cannot hold fails with the Corruption "trace file:
/// truncated body" that OpenTraceSource gives for the same file.
Result<std::vector<PageId>> LoadPageTrace(const std::string& path);

/// Incremental reader over a SavePageTrace file: validates the header on
/// Open, then streams entries in caller-sized chunks so a trace never has
/// to be materialized whole (FileTraceSource builds on this). Move-only.
///
/// Reads go through a raw-descriptor backend (POSIX fd where available)
/// that retries interrupted system calls (EINTR) up to
/// kDefaultEintrRetryBudget times and transparently continues after short
/// reads, so a signal-heavy host or a pipe-backed file never surfaces as
/// spurious Corruption. An exhausted budget fails with IoError reporting
/// how many retries were consumed. The I/O boundary carries the
/// `trace.open` / `trace.read.header` / `trace.read.body`
/// fault-injection points (util/fault.h).
class PageTraceReader {
 public:
  static Result<PageTraceReader> Open(const std::string& path);

  PageTraceReader(PageTraceReader&&) noexcept;
  PageTraceReader& operator=(PageTraceReader&&) noexcept;
  ~PageTraceReader();

  /// Entry count from the header.
  uint64_t count() const { return count_; }

  /// Reads up to `capacity` entries into `buffer`; returns the number read,
  /// 0 once the trace is exhausted. Fails with Corruption on a truncated
  /// body or trailing bytes.
  Result<size_t> Read(PageId* buffer, size_t capacity);

  /// Rewinds to the first entry.
  Status Reset();

 private:
  class Impl;

  PageTraceReader(std::unique_ptr<Impl> impl, uint64_t count);

  std::unique_ptr<Impl> impl_;
  uint64_t count_ = 0;
  uint64_t consumed_ = 0;
};

}  // namespace epfis

#endif  // EPFIS_EPFIS_TRACE_IO_H_

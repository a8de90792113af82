#ifndef EPFIS_EPFIS_TRACE_IO_H_
#define EPFIS_EPFIS_TRACE_IO_H_

#include <cstdint>
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
/// entries. The file sources in epfis/trace_source.h read it back; they
/// validate magic and length and fail with Corruption on truncated or
/// foreign files.

/// Magic bytes opening every SavePageTrace file.
inline constexpr char kPageTraceMagic[8] = {'E', 'P', 'F', 'T',
                                            'R', 'C', '0', '1'};

/// Header size of a SavePageTrace file: magic plus the u64 entry count.
inline constexpr size_t kPageTraceHeaderSize = 8 + sizeof(uint64_t);

/// Saves a plain data-page trace (what RunLruFit consumes).
Status SavePageTrace(const std::vector<PageId>& trace,
                     const std::string& path);

/// Loads a plain data-page trace by draining OpenTraceSource, so it gives
/// the same Status as that factory for every malformed file. The header's
/// count is checked against the file's size at Open, before anything is
/// sized from it.
Result<std::vector<PageId>> LoadPageTrace(const std::string& path);

}  // namespace epfis

#endif  // EPFIS_EPFIS_TRACE_IO_H_

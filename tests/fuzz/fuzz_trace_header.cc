// Fuzz target: the trace file check and the streaming body reader. The
// input bytes are staged into a scratch file (the reader is fd-based) and
// opened; a malformed header or body length must fail with
// Corruption/IoError and a well-formed one must stream without overrunning
// the buffer.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "epfis/trace_source.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string path = "/tmp/epfis_fuzz_trace_" +
                                  std::to_string(::getpid()) + ".bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  auto source = epfis::FileTraceSource::Open(path);
  if (source.ok()) {
    epfis::PageId buf[256];
    for (int i = 0; i < 64; ++i) {
      auto n = source->Next(buf, 256);
      if (!n.ok() || *n == 0) break;
    }
  }
  std::remove(path.c_str());
  return 0;
}

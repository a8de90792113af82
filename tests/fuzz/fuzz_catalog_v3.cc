// Fuzz target: the v3 binary catalog reader, through the strict and the
// recovering load (the snapshot open shares the same reader). The reader
// consumes attacker-controlled length/offset fields, so this is the
// highest-value parser to fuzz: every out-of-bounds knot count or
// overlapping string table must surface as Corruption, not a wild read.
#include <cstddef>
#include <cstdint>
#include <string>

#include "catalog/stats_catalog.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string image(reinterpret_cast<const char*>(data), size);
  epfis::StatsCatalog strict;
  (void)strict.LoadFromString(image);
  epfis::StatsCatalog recovering;
  (void)recovering.RecoverFromString(image);
  return 0;
}

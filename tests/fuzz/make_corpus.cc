// Seed-corpus generator: writes well-formed inputs for each fuzz target
// into a directory (argv[1], default "fuzz_corpus") using the real
// encoders, plus truncated variants of each and two hand-edited catalog
// images. Valid seeds let a fuzzer reach the deep per-entry parsing
// immediately instead of spending its budget rediscovering the magic and
// framing.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "../catalog/catalog_v3_images.h"
#include "catalog/catalog_v3.h"
#include "epfis/index_stats.h"
#include "epfis/trace_io.h"

using namespace epfis;

namespace {

IndexStats MakeStats(const std::string& name, uint64_t pages) {
  IndexStats stats;
  stats.index_name = name;
  stats.table_pages = pages;
  stats.table_records = pages * 40;
  stats.distinct_keys = pages * 2;
  stats.pages_accessed = pages;
  stats.b_min = 12;
  stats.b_max = pages;
  stats.f_min = static_cast<double>(pages) * 1.2;
  stats.clustering = 0.5;
  stats.fpf =
      PiecewiseLinear::FromKnots({{12, static_cast<double>(pages) * 30},
                                  {static_cast<double>(pages) * 0.2,
                                   static_cast<double>(pages) * 8},
                                  {static_cast<double>(pages),
                                   static_cast<double>(pages) * 1.2}})
          .value();
  return stats;
}

bool WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "fuzz_corpus";
  std::filesystem::create_directories(dir);

  std::map<std::string, IndexStats> entries;
  entries.emplace("seed_a.key", MakeStats("seed_a.key", 900));
  entries.emplace("seed_b.key", MakeStats("seed_b.key", 3000));

  const std::string v3 = CatalogV3::Encode(entries);

  std::vector<PageId> trace;
  for (uint64_t i = 0; i < 500; ++i) {
    trace.push_back(static_cast<PageId>((i * 17) % 97));
  }
  const std::string trace_path = dir + "/trace_valid.seed";
  if (Status s = SavePageTrace(trace, trace_path); !s.ok()) {
    std::cerr << s.ToString() << '\n';
    return 1;
  }
  std::ifstream trace_in(trace_path, std::ios::binary);
  std::string trace_bytes((std::istreambuf_iterator<char>(trace_in)),
                          std::istreambuf_iterator<char>());
  trace_in.close();

  // Two images the writer never produces, so the fuzzer starts at the
  // reader's repeated-name check and its knot rule.
  const std::string repeated_name = RepeatedNameV3Image(
      MakeStats("aa", 900), MakeStats("aa", 3000), /*reseal=*/true);
  const std::string bad_knots =
      DecreasingKnotsV3Image(MakeStats("seed_k.key", 900));

  bool ok = WriteBytes(dir + "/catalog_v3_valid.seed", v3) &&
            WriteBytes(dir + "/catalog_v3_truncated.seed",
                       v3.substr(0, v3.size() / 2)) &&
            WriteBytes(dir + "/catalog_v3_repeated_name.seed",
                       repeated_name) &&
            WriteBytes(dir + "/catalog_v3_bad_knots.seed", bad_knots) &&
            WriteBytes(dir + "/trace_truncated.seed",
                       trace_bytes.substr(0, trace_bytes.size() / 2));
  if (!ok) {
    std::cerr << "failed writing seeds under " << dir << '\n';
    return 1;
  }
  std::cout << "wrote 6 seeds to " << dir << '\n';
  return 0;
}

#include "catalog/stats_catalog.h"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "catalog/catalog_v3.h"
#include "util/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#define EPFIS_CATALOG_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace epfis {

void StatsCatalog::Put(IndexStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  quarantined_.erase(stats.index_name);
  entries_[stats.index_name] = std::move(stats);
}

Result<IndexStats> StatsCatalog::Get(const std::string& index_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto q = quarantined_.find(index_name);
  if (q != quarantined_.end()) {
    return Status::Corruption("statistics for index " + index_name +
                              " are quarantined: " + q->second);
  }
  auto it = entries_.find(index_name);
  if (it == entries_.end()) {
    return Status::NotFound("no statistics for index " + index_name);
  }
  return it->second;
}

bool StatsCatalog::Contains(const std::string& index_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(index_name) > 0;
}

void StatsCatalog::Remove(const std::string& index_name) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(index_name);
  quarantined_.erase(index_name);
}

size_t StatsCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::string> StatsCatalog::IndexNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, stats] : entries_) names.push_back(name);
  return names;
}

bool StatsCatalog::IsQuarantined(const std::string& index_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.count(index_name) > 0;
}

Status StatsCatalog::Publish() {
  std::map<std::string, IndexStats> entries;
  std::map<std::string, std::string> quarantined;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries = entries_;
    quarantined = quarantined_;
    generation = ++publish_generation_;
  }
  // Snapshot construction happens outside the lock: a big catalog copy
  // must not stall concurrent Put/Get, and readers are untouched either
  // way (they only see the final swap).
  std::shared_ptr<const CatalogSnapshot> snapshot = CatalogSnapshot::Build(
      std::move(entries), std::move(quarantined), generation);
  // The swap boundary: a fault here fails the publish with the previous
  // snapshot still current — refresh failures must never leave readers
  // with a half-published view.
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.publish.swap"));
  snapshot_.store(std::move(snapshot), std::memory_order_release);
  return Status::Ok();
}

std::shared_ptr<const CatalogSnapshot> StatsCatalog::snapshot() const {
  return snapshot_.load(std::memory_order_acquire);
}

std::string StatsCatalog::SaveToStringV3() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CatalogV3::Encode(entries_);
}

Status StatsCatalog::LoadFromString(const std::string& bytes) {
  Result<CatalogLoadReport> report = LoadImpl(bytes, /*recover=*/false);
  return report.ok() ? Status::Ok() : report.status();
}

Result<CatalogLoadReport> StatsCatalog::RecoverFromString(
    const std::string& bytes) {
  return LoadImpl(bytes, /*recover=*/true);
}

Result<CatalogLoadReport> StatsCatalog::LoadImpl(const std::string& bytes,
                                                 bool recover) {
  EPFIS_ASSIGN_OR_RETURN(CatalogV3::Contents contents,
                         CatalogV3::Read(bytes.data(), bytes.size()));
  std::map<std::string, IndexStats> entries;
  std::map<std::string, std::string> quarantined;
  CatalogLoadReport report;
  for (const CatalogSnapshot::Entry& entry : contents.entries) {
    if (!entry.quarantined) {
      entries.emplace(entry.name, CatalogSnapshot::Materialize(entry));
      continue;
    }
    if (!recover) {
      return Status::Corruption(std::string(entry.quarantine_reason));
    }
    report.quarantine_reasons.emplace_back(entry.quarantine_reason);
    if (!entry.name.empty()) {
      quarantined.emplace(entry.name, entry.quarantine_reason);
    }
  }
  report.entries_loaded = entries.size();
  report.entries_quarantined = report.quarantine_reasons.size();
  report.checksum_failures = contents.checksum_failures;
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(entries);
  quarantined_ = std::move(quarantined);
  return report;
}

namespace {

#ifdef EPFIS_CATALOG_POSIX_IO

// Crash-safe byte-image write: tmp file + fsync + rename, catalog.save.*
// fault points throughout.
Status WriteCatalogFileAtomic(const std::string& path,
                              const std::string& data) {
  const std::string tmp = path + ".tmp";

  // Crash safety: never truncate the destination in place. The new
  // catalog is staged in a tmp file, made durable with fsync, and
  // atomically renamed over the old one — a failure (or injected fault)
  // at any step leaves the previous on-disk catalog intact, and the tmp
  // file is always unlinked on the error paths.
  Status open_fault = FaultPoint("catalog.save.open");
  int fd = -1;
  if (open_fault.ok()) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  if (!open_fault.ok() || fd < 0) {
    return open_fault.ok()
               ? Status::IoError("cannot open " + tmp + " for writing")
               : open_fault;
  }
  auto fail = [&](Status status) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };

  size_t off = 0;
  int eintr_budget = 100;
  while (off < data.size()) {
    uint64_t want = data.size() - off;
    FaultIoOutcome fault = FaultIoPoint("catalog.save.write", &want);
    if (!fault.status.ok()) return fail(fault.status);
    ssize_t n = fault.eintr
                    ? -1
                    : ::write(fd, data.data() + off,
                              static_cast<size_t>(want));
    if (n < 0) {
      if ((fault.eintr || errno == EINTR) && --eintr_budget > 0) continue;
      return fail(Status::IoError("write to " + tmp + " failed"));
    }
    off += static_cast<size_t>(n);
  }

  EPFIS_RETURN_IF_ERROR([&] {
    Status fault = FaultPoint("catalog.save.fsync");
    if (!fault.ok()) return fail(fault);
    if (::fsync(fd) != 0) {
      return fail(Status::IoError("fsync of " + tmp + " failed"));
    }
    if (::close(fd) != 0) {
      fd = -1;
      return fail(Status::IoError("close of " + tmp + " failed"));
    }
    fd = -1;
    return Status::Ok();
  }());

  Status rename_fault = FaultPoint("catalog.save.rename");
  if (!rename_fault.ok()) return fail(rename_fault);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(Status::IoError("rename " + tmp + " -> " + path + " failed"));
  }
  return Status::Ok();
}

#else  // !EPFIS_CATALOG_POSIX_IO

// Portable fallback: still staged through a tmp file and renamed so the
// previous catalog survives a failed write, but without fsync durability.
Status WriteCatalogFileAtomic(const std::string& path,
                              const std::string& data) {
  const std::string tmp = path + ".tmp";
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.save.open"));
  std::ofstream out(tmp, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    return Status::IoError("cannot open " + tmp + " for writing");
  }
  auto fail = [&](Status status) {
    out.close();
    std::remove(tmp.c_str());
    return status;
  };
  uint64_t want = data.size();
  FaultIoOutcome fault = FaultIoPoint("catalog.save.write", &want);
  if (!fault.status.ok()) return fail(fault.status);
  out << data;
  out.flush();
  if (!out.good()) return fail(Status::IoError("write to " + tmp + " failed"));
  EPFIS_RETURN_IF_ERROR([&] {
    Status fsync_fault = FaultPoint("catalog.save.fsync");
    return fsync_fault.ok() ? Status::Ok() : fail(fsync_fault);
  }());
  out.close();
  Status rename_fault = FaultPoint("catalog.save.rename");
  if (!rename_fault.ok()) return fail(rename_fault);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(Status::IoError("rename " + tmp + " -> " + path + " failed"));
  }
  return Status::Ok();
}

#endif  // EPFIS_CATALOG_POSIX_IO

// Shared file slurp for the strict and recovering loads, with the
// catalog.load.* fault points applied.
Result<std::string> ReadCatalogFile(const std::string& path) {
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.load.open"));
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open " + path + " for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("read of " + path + " failed");
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.load.read"));
  return buf.str();
}

}  // namespace

Status StatsCatalog::SaveToFileV3(const std::string& path) const {
  // Serialize before touching the filesystem so a slow disk never holds
  // the catalog mutex.
  return WriteCatalogFileAtomic(path, SaveToStringV3());
}

Status StatsCatalog::LoadFromFile(const std::string& path) {
  EPFIS_ASSIGN_OR_RETURN(std::string bytes, ReadCatalogFile(path));
  return LoadFromString(bytes);
}

Result<CatalogLoadReport> StatsCatalog::RecoverFromFile(
    const std::string& path) {
  EPFIS_ASSIGN_OR_RETURN(std::string bytes, ReadCatalogFile(path));
  return RecoverFromString(bytes);
}

}  // namespace epfis

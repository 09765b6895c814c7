#include "privelet/storage/session_io.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "privelet/common/residency.h"

namespace privelet::query {

// Defined here rather than in publishing_session.cc: this member is the
// only place the query layer touches storage types, and keeping its
// definition in storage/ preserves the one-way layer order.
Result<PublishingSession> PublishingSession::FromMapped(
    std::shared_ptr<const storage::MappedSnapshot> mapped,
    common::ThreadPool* pool) {
  if (mapped == nullptr) {
    return Status::InvalidArgument("FromMapped requires a mapped snapshot");
  }
  ReleaseMetadata metadata{mapped->mechanism(), mapped->epsilon(),
                           mapped->plan()};
  // The schema lives inside the mapped snapshot; the aliasing constructor
  // shares its lifetime without a copy.
  std::shared_ptr<const data::Schema> schema(mapped, &mapped->schema());
  auto table = std::make_shared<const matrix::PrefixSumTable>(
      matrix::PrefixSumTable::View(mapped->dims(), mapped->prefix_table()));
  return PublishingSession(std::move(schema), std::move(table),
                           std::move(metadata), pool, std::move(mapped));
}

}  // namespace privelet::query

namespace privelet::storage {

Status SaveSession(const std::string& path,
                   const query::PublishingSession& session) {
  const query::ReleaseMetadata& metadata = session.metadata();
  SnapshotStreamWriter writer;
  PRIVELET_RETURN_IF_ERROR(writer.Begin(
      path, {&session.schema(), metadata.mechanism, metadata.epsilon,
             metadata.plan.has_value() ? &*metadata.plan : nullptr}));
  // Streamed in fixed chunks. Under a scratch table's budget the pages
  // already written are released behind the cursor; an in-core table has
  // no budget, so nothing is released. Chunking cannot change the file
  // bytes (SnapshotStreamWriter's contract).
  const matrix::PrefixSumTable& table = session.prefix_table();
  const std::span<const double> sums = table.raw_sums();
  constexpr std::size_t kStreamChunkCells = std::size_t{1} << 16;
  common::ResidencyGovernor governor(table.budget().max_memory_bytes,
                                     [&] { table.ReleaseResidency(); });
  for (std::size_t i = 0; i < sums.size(); i += kStreamChunkCells) {
    const std::size_t count = std::min(kStreamChunkCells, sums.size() - i);
    PRIVELET_RETURN_IF_ERROR(writer.AppendTableEntries(sums.subspan(i, count)));
    governor.OnBytesProcessed(count * sizeof(double));
  }
  return writer.Finish();
}

Result<query::PublishingSession> LoadSession(const std::string& path,
                                             common::ThreadPool* pool) {
  PRIVELET_ASSIGN_OR_RETURN(MappedSnapshot mapped, MappedSnapshot::Open(path));
  // Copied out, not viewed: the session owns its table past the mapping.
  const std::span<const double> entries = mapped.prefix_table();
  auto sums = matrix::FrequencyMatrix::Uninitialized(mapped.dims());
  std::copy(entries.begin(), entries.end(), sums.values().begin());
  return query::PublishingSession::FromParts(
      mapped.schema(), matrix::PrefixSumTable::FromSums(std::move(sums)),
      {mapped.mechanism(), mapped.epsilon(), mapped.plan()},
      pool);
}

Result<query::PublishingSession> MapSession(const std::string& path,
                                            common::ThreadPool* pool) {
  PRIVELET_ASSIGN_OR_RETURN(MappedSnapshot mapped, MappedSnapshot::Open(path));
  return query::PublishingSession::FromMapped(
      std::make_shared<const MappedSnapshot>(std::move(mapped)), pool);
}

}  // namespace privelet::storage

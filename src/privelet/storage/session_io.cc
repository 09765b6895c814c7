#include "privelet/storage/session_io.h"

#include <algorithm>
#include <memory>
#include <optional>
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
                           PublishMode::kUnknown, mapped->plan()};
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

namespace {

// Streams `session`'s table into a snapshot at `path` in fixed chunks.
// Under a memory budget the pages already written are released behind
// the cursor (a scratch-backed table's residency). Chunking cannot change
// the file bytes (SnapshotStreamWriter's contract).
Status WriteRelease(const std::string& path,
                    const query::PublishingSession& session,
                    std::size_t max_memory_bytes) {
  const query::ReleaseMetadata& metadata = session.metadata();
  SnapshotStreamWriter writer;
  PRIVELET_RETURN_IF_ERROR(writer.Begin(
      path, {&session.schema(), metadata.mechanism, metadata.epsilon,
             metadata.plan.has_value() ? &*metadata.plan : nullptr}));
  const matrix::PrefixSumTable& table = session.prefix_table();
  const std::span<const double> sums = table.raw_sums();
  constexpr std::size_t kStreamChunkCells = std::size_t{1} << 16;
  common::ResidencyGovernor governor(max_memory_bytes,
                                     [&] { table.ReleaseResidency(); });
  for (std::size_t i = 0; i < sums.size(); i += kStreamChunkCells) {
    const std::size_t count = std::min(kStreamChunkCells, sums.size() - i);
    PRIVELET_RETURN_IF_ERROR(writer.AppendTableEntries(sums.subspan(i, count)));
    governor.OnBytesProcessed(count * sizeof(double));
  }
  return writer.Finish();
}

}  // namespace

Status SaveSession(const std::string& path,
                   const query::PublishingSession& session) {
  return WriteRelease(path, session, /*max_memory_bytes=*/0);
}

Result<query::PublishingSession> PublishToFile(
    const std::string& path, const data::Schema& schema,
    const mechanism::Mechanism& mech, const matrix::FrequencyMatrix& m,
    double epsilon, std::uint64_t seed, common::ThreadPool* pool,
    const matrix::EngineOptions& options, const query::PlanRecord* plan) {
  PRIVELET_ASSIGN_OR_RETURN(matrix::FrequencyMatrix published,
                            mech.Publish(schema, m, epsilon, seed));
  if (published.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "published matrix dims do not match the schema");
  }
  // The serving table is built in place over the release, in its scratch
  // mapping when out of core (the build then paces residency itself).
  matrix::PrefixSumTable table(std::move(published), pool, options);
  query::ReleaseMetadata metadata{
      std::string(mech.name()), epsilon,
      options.out_of_core() ? query::PublishMode::kStreamed
                            : query::PublishMode::kInCore,
      plan != nullptr ? std::optional<query::PlanRecord>(*plan)
                      : std::nullopt};
  PRIVELET_ASSIGN_OR_RETURN(
      query::PublishingSession session,
      query::PublishingSession::FromParts(schema, std::move(table),
                                          std::move(metadata), pool));
  PRIVELET_RETURN_IF_ERROR(
      WriteRelease(path, session, options.max_memory_bytes));
  return session;
}

Result<query::PublishingSession> LoadSession(const std::string& path,
                                             common::ThreadPool* pool) {
  PRIVELET_ASSIGN_OR_RETURN(MappedSnapshot mapped, MappedSnapshot::Open(path));
  // Copied out, not viewed: the session owns its table past the mapping.
  const std::span<const double> entries = mapped.prefix_table();
  auto sums = std::make_unique_for_overwrite<double[]>(entries.size());
  std::copy(entries.begin(), entries.end(), sums.get());
  return query::PublishingSession::FromParts(
      mapped.schema(),
      matrix::PrefixSumTable(mapped.dims(), std::move(sums)),
      {mapped.mechanism(), mapped.epsilon(), query::PublishMode::kUnknown,
       mapped.plan()},
      pool);
}

Result<query::PublishingSession> MapSession(const std::string& path,
                                            common::ThreadPool* pool) {
  PRIVELET_ASSIGN_OR_RETURN(MappedSnapshot mapped, MappedSnapshot::Open(path));
  return query::PublishingSession::FromMapped(
      std::make_shared<const MappedSnapshot>(std::move(mapped)), pool);
}

}  // namespace privelet::storage

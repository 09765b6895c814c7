// File-level persistence of serving sessions: SaveSession streams a live
// PublishingSession's prefix table straight into a PVLS snapshot,
// MapSession serves a snapshot in place from a memory mapping with zero
// copies (the serving path), and LoadSession copies one into an owning
// session. Both loaders read through the one mapped parse in snapshot.cc
// and fail alike: IOError for a path that cannot be mapped,
// InvalidArgument for a corrupt file or one of a retired PVLS version.
// Also the home of PublishingSession::FromMapped — declared on the
// session for discoverability but implemented here because storage sits
// above query in the layer order (docs/ARCHITECTURE.md).
#ifndef PRIVELET_STORAGE_SESSION_IO_H_
#define PRIVELET_STORAGE_SESSION_IO_H_

#include <cstdint>
#include <string>

#include "privelet/common/result.h"
#include "privelet/common/thread_pool.h"
#include "privelet/matrix/engine.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/storage/snapshot.h"

namespace privelet::storage {

/// Writes `session`'s release — schema, provenance metadata and prefix-sum
/// table — to `path` as a PVLS snapshot, streaming from the session's own
/// table. Any session can be saved, a mapped one included.
Status SaveSession(const std::string& path,
                   const query::PublishingSession& session);

/// Publishes `m` under `mech` at (epsilon, seed), streams the release
/// snapshot to `path`, and returns a serving session over the release.
/// The snapshot bytes are identical to publishing a session and
/// SaveSession-ing it with the same arguments — both paths run through
/// SnapshotStreamWriter, and the release itself is bit-identical by the
/// determinism contract. The seed is not written to the file.
///
/// This is the out-of-core publish entry: with options.out_of_core()
/// (and the same options set on `mech` via set_engine_options) every
/// release-sized buffer — transform scratch, noisy matrix, prefix
/// table — lives in unlinked mmap scratch files whose resident pages are
/// released as each stage streams past them, so peak RSS is paced by
/// options.max_memory_bytes rather than the release size. Without
/// out_of_core() it is an ordinary in-core publish-and-save. The noisy
/// matrix is dropped once its prefix table is built. The returned
/// session's metadata records which mode ran (PublishMode); the file
/// does not — see query::PublishMode.
///
/// `plan` (optional) attaches the workload-planner decision behind this
/// publish: it is recorded in the session's metadata and written into the
/// snapshot's plan section.
Result<query::PublishingSession> PublishToFile(
    const std::string& path, const data::Schema& schema,
    const mechanism::Mechanism& mech, const matrix::FrequencyMatrix& m,
    double epsilon, std::uint64_t seed, common::ThreadPool* pool = nullptr,
    const matrix::EngineOptions& options = {},
    const query::PlanRecord* plan = nullptr);

/// Loads a snapshot by copy: maps it, copies its prefix table into owned
/// memory and wraps it as a session that outlives the file. An
/// O(file size) copy with no O(m) compute; it answers bit-identically to
/// the session that was saved. Serving paths use MapSession. `pool`
/// serves batched answering only.
Result<query::PublishingSession> LoadSession(const std::string& path,
                                             common::ThreadPool* pool = nullptr);

/// Maps a snapshot and serves it in place — the serving entry point, used
/// by query::ReleaseStore, the daemon and `privelet_cli query`. The open
/// cost is O(header + CRC) and the prefix table is adopted as a zero-copy
/// view into the file's pages. Answers are bit-identical to
/// LoadSession's.
Result<query::PublishingSession> MapSession(const std::string& path,
                                            common::ThreadPool* pool = nullptr);

}  // namespace privelet::storage

#endif  // PRIVELET_STORAGE_SESSION_IO_H_

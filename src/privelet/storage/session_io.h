// File-level persistence of serving sessions: SaveSession streams a live
// PublishingSession straight into a PVLS snapshot (no copy of the matrix
// or table), MapSession serves a snapshot in place from a memory mapping
// with zero copies (the serving path), and LoadSession copies one into an
// owning session. Both read through the one mapped parse in snapshot.cc,
// accept every PVLS version, and fail alike: IOError for a path that
// cannot be mapped, InvalidArgument for a corrupt file. Also the home of
// PublishingSession::ToSnapshot/FromSnapshot/FromMapped — they are
// declared on the session for discoverability but implemented here
// because storage sits above query in the layer order
// (docs/ARCHITECTURE.md).
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

/// Writes `session`'s release — schema, provenance metadata, noisy
/// matrix, prefix-sum table — to `path` as a PVLS snapshot, streaming
/// from the session's own storage. The session must materialize its
/// matrix (has_published()); a mapped session *is* its snapshot file
/// already and is rejected with InvalidArgument.
Status SaveSession(const std::string& path,
                   const query::PublishingSession& session);

/// Publishes `m` under `mech` at (epsilon, seed), streams the release
/// snapshot to `path` section by section, and returns a serving session
/// over the release. The snapshot bytes are identical to publishing a
/// session and SaveSession-ing it with the same arguments — both paths
/// run through SnapshotStreamWriter, and the release itself is
/// bit-identical by the determinism contract.
///
/// This is the out-of-core publish entry: with options.out_of_core()
/// (and the same options set on `mech` via set_engine_options) every
/// release-sized buffer — transform scratch, noisy matrix, prefix
/// table — lives in unlinked mmap scratch files whose resident pages are
/// released as each stage streams past them, so peak RSS is paced by
/// options.max_memory_bytes rather than the release size. Without
/// out_of_core() it is an ordinary in-core publish-and-save. The
/// returned session's metadata records which mode ran (PublishMode);
/// the file does not — see query::PublishMode.
///
/// `plan` (optional) attaches the workload-planner decision behind this
/// publish: it is recorded in the session's metadata and written into the
/// snapshot, which becomes PVLS v3. Null keeps the plan-less v2 bytes.
Result<query::PublishingSession> PublishToFile(
    const std::string& path, const data::Schema& schema,
    const mechanism::Mechanism& mech, const matrix::FrequencyMatrix& m,
    double epsilon, std::uint64_t seed, common::ThreadPool* pool = nullptr,
    const matrix::EngineOptions& options = {},
    const query::PlanRecord* plan = nullptr);

/// Loads a snapshot by copy (ReadSnapshot) and wraps it as an owning
/// session, whose published() matrix can be saved again. When the file
/// carries an adoptable prefix table this is an O(file size) copy with no
/// O(m) compute; otherwise the table is rebuilt on `pool`. Either way the
/// loaded session answers bit-identically to the one that was saved.
/// Peak memory is the mapped file plus the copy; serving paths use
/// MapSession.
Result<query::PublishingSession> LoadSession(const std::string& path,
                                             common::ThreadPool* pool = nullptr);

/// Maps a snapshot and serves it in place — the serving entry point, used
/// by query::ReleaseStore, the daemon and `privelet_cli query`. For v2/v3
/// files the open cost is O(header + CRC) and the prefix table is adopted
/// as a zero-copy view into the file's pages. A legacy table (v1
/// double-double, x87) is rebuilt on `pool` from the matrix values, which
/// a v1 file has copied out of the mapping. Answers are bit-identical to
/// LoadSession's.
Result<query::PublishingSession> MapSession(const std::string& path,
                                            common::ThreadPool* pool = nullptr);

}  // namespace privelet::storage

#endif  // PRIVELET_STORAGE_SESSION_IO_H_

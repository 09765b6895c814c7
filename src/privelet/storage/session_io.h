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
#include "privelet/query/publishing_session.h"
#include "privelet/storage/snapshot.h"

namespace privelet::storage {

/// Writes `session`'s release — schema, provenance metadata and prefix-sum
/// table — to `path` as a PVLS snapshot, streaming from the session's own
/// table. Any session can be saved, a mapped one included. A
/// scratch-backed table (an out-of-core publish) is streamed under the
/// budget it records, releasing the pages already written, so the save
/// stays within it too. The bytes do not depend on the table's storage.
Status SaveSession(const std::string& path,
                   const query::PublishingSession& session);

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

// Memory mappings of whole files, in two roles:
//
//  * Read-only mapping of an existing file (Open). The zero-copy serving
//    path (storage::MappedSnapshot) is built on this: a multi-GB release
//    snapshot is mapped once and its payload sections are served straight
//    from the page cache, so opening a release costs no allocation
//    proportional to the file and many processes mapping the same snapshot
//    share one set of physical pages.
//
//  * Writable scratch backing for the out-of-core publish path
//    (CreateScratch). A scratch mapping behaves like a
//    zero-initialized array that the kernel may spill to disk: the
//    streaming transform writes panels through it and periodically calls
//    ReleaseResidency() so peak RSS stays bounded by the panel budget even
//    when the cube is many times larger than RAM allows.
#ifndef PRIVELET_COMMON_FILE_MAPPING_H_
#define PRIVELET_COMMON_FILE_MAPPING_H_

#include <cstddef>
#include <span>
#include <string>

#include "privelet/common/result.h"

namespace privelet::common {

/// RAII mapping of one file. Move-only; the
/// mapping (and the validity of every span derived from bytes() /
/// mutable_bytes()) ends when the owning object is destroyed. The mapped
/// base address is page-aligned, so a payload section placed at a
/// 64-byte-aligned file offset is 64-byte aligned in memory too.
class MappedFile {
 public:
  /// Maps `path` read-only in full. Fails with IOError when the path
  /// cannot be opened or stat'ed, is not a regular file (a directory, a
  /// device, a FIFO), or cannot be mapped.
  static Result<MappedFile> Open(const std::string& path);

  /// Creates a writable zero-filled scratch mapping of `size` bytes backed
  /// by an unlinked temporary file under `dir` (empty -> $TMPDIR, falling
  /// back to /tmp). The file has no name the moment this returns, so the
  /// space is reclaimed automatically when the mapping is destroyed (or
  /// the process dies). Because the backing is a file mapped MAP_SHARED,
  /// ReleaseResidency() can evict resident pages without losing data:
  /// dirty pages live on in the page cache / on disk and fault back in on
  /// the next access.
  static Result<MappedFile> CreateScratch(std::size_t size,
                                          const std::string& dir = "");

  /// An empty mapping (bytes() is an empty span).
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The file's bytes. Valid until this object (or the object it was
  /// moved into) is destroyed.
  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(addr_), size_};
  }

  /// Writable view of a scratch mapping. CHECK-fails on
  /// read-only mappings.
  std::span<std::byte> mutable_bytes() const;

  std::size_t size() const { return size_; }

  /// True for CreateScratch mappings.
  bool writable() const { return writable_; }

  /// Drops the mapping's resident pages (MADV_DONTNEED) so they stop
  /// counting against the process RSS. Only scratch mappings honor this —
  /// their dirty pages survive in the page cache and fault back in on
  /// next access, so contents are unaffected. For read-only mappings this
  /// is a no-op. Safe to call concurrently with
  /// readers/writers of the same mapping: they take minor faults and see
  /// the stored data.
  void ReleaseResidency() const;

 private:
  MappedFile(void* addr, std::size_t size, bool writable)
      : addr_(addr), size_(size), writable_(writable) {}

  void Reset();

  void* addr_ = nullptr;
  std::size_t size_ = 0;
  bool writable_ = false;
};

}  // namespace privelet::common

#endif  // PRIVELET_COMMON_FILE_MAPPING_H_

#include "privelet/query/release_store.h"

#include <utility>

#include "privelet/storage/session_io.h"

namespace privelet::query {

ReleaseStore::ReleaseStore() : ReleaseStore(Options{}) {}

ReleaseStore::ReleaseStore(Options options) : options_(options) {}

Status ReleaseStore::Register(std::string id, std::string path) {
  if (id.empty()) {
    return Status::InvalidArgument("release id must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = entries_.try_emplace(std::move(id));
  if (!inserted) {
    return Status::InvalidArgument("release id '" + it->first +
                                   "' is already registered");
  }
  it->second.path = std::move(path);
  return Status::OK();
}

Status ReleaseStore::Rebind(std::string id, std::string path) {
  if (id.empty()) {
    return Status::InvalidArgument("release id must be non-empty");
  }
  {
    // Let go of the resident session before the new file maps in, so the
    // two releases are not resident at once (in-flight borrowers keep
    // theirs).
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it != entries_.end() && it->second.session != nullptr) {
      it->second.session.reset();
      ++stats_.evictions;
    }
  }
  // Open the new file before touching the binding: a path that does not
  // load leaves the id's path and generation as they were, so the next
  // Acquire reloads the release it was serving.
  PRIVELET_ASSIGN_OR_RETURN(PublishingSession opened,
                            storage::OpenServingSession(path, options_.pool));
  auto session = std::make_shared<const PublishingSession>(std::move(opened));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.loads;
  Entry& entry = entries_[std::move(id)];
  entry.path = std::move(path);
  ++entry.generation;
  // An Acquire racing the load may have reinstalled the old release.
  if (entry.session != nullptr) ++stats_.evictions;
  entry.session = std::move(session);
  entry.last_used = ++tick_;
  // Detach any in-flight load of the old path: its waiters still get the
  // old session, but the loader will see the generation change and not
  // install it over the new one.
  entry.inflight.reset();
  EnforceBoundLocked(&entry);
  return Status::OK();
}

std::vector<std::string> ReleaseStore::ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) out.push_back(id);
  return out;  // std::map iterates sorted
}

std::shared_ptr<const PublishingSession> ReleaseStore::PeekResident(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.session;
}

Result<std::shared_ptr<const PublishingSession>> ReleaseStore::Acquire(
    const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("release id '" + id + "' is not registered");
  }
  Entry& entry = it->second;
  if (entry.session != nullptr) {
    ++stats_.hits;
    entry.last_used = ++tick_;
    return entry.session;
  }
  if (entry.inflight != nullptr) {
    // Another thread is loading this release; wait on its result
    // outside the lock.
    const auto shared = entry.inflight;
    lock.unlock();
    const SessionResult& result = shared->get();
    if (!result.ok()) return result.status();
    // Count the serve and refresh the LRU clock — a release whose
    // traffic piled up during its load is hot, not cold. The load may
    // also have been evicted between set_value and our wakeup; the
    // loaded session itself is still valid to hand out regardless.
    lock.lock();
    if (entry.session == *result) {
      ++stats_.hits;
      entry.last_used = ++tick_;
    }
    return *result;
  }
  // Become the loader. The entry address is stable (std::map) and the
  // entry cannot be erased (there is no unregister), so holding the
  // pointer across the unlocked load is safe.
  auto promise = std::make_shared<std::promise<SessionResult>>();
  auto inflight = std::make_shared<std::shared_future<SessionResult>>(
      promise->get_future().share());
  entry.inflight = inflight;
  const std::uint64_t generation = entry.generation;
  const std::string path = entry.path;
  lock.unlock();

  auto opened = storage::OpenServingSession(path, options_.pool);
  SessionResult result =
      opened.ok()
          ? SessionResult(std::make_shared<const PublishingSession>(
                std::move(*opened)))
          : SessionResult(opened.status());

  lock.lock();
  // A Rebind may have replaced the binding (and possibly a newer loader)
  // while we loaded: only clear our own inflight marker, and only install
  // the session if the binding we loaded from is still current. Waiters
  // on our future still receive what they asked for.
  if (entry.inflight == inflight) entry.inflight.reset();
  if (result.ok()) {
    ++stats_.loads;
    if (entry.generation == generation) {
      entry.session = *result;
      entry.last_used = ++tick_;
      EnforceBoundLocked(&entry);
    }
  }
  lock.unlock();
  promise->set_value(result);
  return result;
}

Result<std::vector<double>> ReleaseStore::AnswerAll(
    const std::string& id, std::span<const RangeQuery> queries) {
  PRIVELET_ASSIGN_OR_RETURN(std::shared_ptr<const PublishingSession> session,
                            Acquire(id));
  return session->AnswerAll(queries);
}

bool ReleaseStore::Evict(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end() || it->second.session == nullptr) return false;
  it->second.session.reset();
  ++stats_.evictions;
  return true;
}

void ReleaseStore::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, entry] : entries_) {
    if (entry.session != nullptr) {
      entry.session.reset();
      ++stats_.evictions;
    }
  }
}

std::uint64_t ReleaseStore::generation(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return 0;
  // +1 so a fresh Register (internal generation 0) is distinguishable
  // from "unknown id" — a caller keying caches on the value must see a
  // bump when an id it cached against is ever re-registered from scratch.
  return it->second.generation + 1;
}

std::size_t ReleaseStore::resident_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.session != nullptr) ++count;
  }
  return count;
}

ReleaseStore::Stats ReleaseStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ReleaseStore::EnforceBoundLocked(const Entry* keep) {
  if (options_.max_resident == 0) return;
  while (true) {
    std::size_t resident = 0;
    Entry* oldest = nullptr;
    for (auto& [id, entry] : entries_) {
      if (entry.session == nullptr) continue;
      ++resident;
      if (&entry == keep) continue;
      if (oldest == nullptr || entry.last_used < oldest->last_used) {
        oldest = &entry;
      }
    }
    if (resident <= options_.max_resident || oldest == nullptr) return;
    oldest->session.reset();
    ++stats_.evictions;
  }
}

}  // namespace privelet::query

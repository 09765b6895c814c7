// Closed-loop load generator: one thread, nonblocking sockets, one
// outstanding request per connection (pipeline depth 1). Requests are
// encoded before timing starts; every response is checked bit-for-bit
// against in-process answers.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "host_speed.h"

namespace perfbench {

struct Request {
  std::string bytes;  ///< the encoded request, ready to send
  bool text = false;  ///< text framing (else PVB1 binary)
  bool reload = false;
  /// Indices into the expected-answer table, in request order.
  std::vector<std::uint32_t> queries;
};

/// One connection's requests, sent in a cycle.
struct ConnectionPlan {
  bool binary = true;  ///< sends the PVB1 magic first
  std::vector<Request> ring;
};

struct PhaseCounts {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

struct LoadResult {
  PhaseCounts warmup;
  PhaseCounts measured;
  std::uint64_t refused_connections = 0;
  /// Round trip (send of the first byte -> last byte of the response) of
  /// each measured query request, microseconds.
  std::vector<double> request_us;
  /// Round trip of each measured RELOAD, milliseconds.
  std::vector<double> reload_ms;
  std::uint64_t measured_queries = 0;  ///< answered in measured requests
  double measured_seconds = 0.0;
  /// Per measured window: queries/s, and the request p50 (us) as the mean
  /// over connections of each connection's p50. A window is one cycle of
  /// connection 0's ring.
  std::vector<double> window_qps;
  std::vector<double> window_p50_us;
  /// Per measured window, with LoadOptions::reference: the reference's
  /// time (ms), measured right before the window opened.
  std::vector<double> window_reference_ms;
  /// (connection, ring index) of the first 50,000 measured requests, in
  /// send order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  std::vector<std::string> failures;  ///< first few failure reasons
};

struct LoadOptions {
  double warmup_seconds = 1.0;
  double measure_seconds = 10.0;
  std::vector<int> cpus;  ///< pin the loadgen thread here (empty: don't)
  /// When set: before each measured window, let the connections go idle
  /// and run this host reference (host_speed.h) on the loadgen thread. The
  /// pause is left out of the window.
  const HostReference* reference = nullptr;
};

LoadResult RunClosedLoop(std::uint16_t port,
                         const std::vector<ConnectionPlan>& plans,
                         std::span<const double> expected,
                         const LoadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

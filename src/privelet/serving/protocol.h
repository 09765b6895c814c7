// Wire protocol of the serving daemon (privelet_cli daemon). One request
// model, two framings over the same TCP stream:
//
// Text mode (default; newline-delimited, nc/telnet-friendly; a trailing
// '\r' is stripped so CRLF clients work). One request per line:
//
//   QUERY <release-id> <predicate...>     one range-count query
//   BATCH <release-id> <n>                then n predicate lines
//   RELOAD <release-id> <snapshot-path>   register or hot-swap a release
//   STATS                                 counters + latency histograms
//   IDS                                   registered release ids
//   PING                                  liveness probe
//   QUIT                                  server closes the connection
//
// Predicates use the workload-file syntax (tools/privelet_cli): `*` (no
// predicates), `name=lo:hi` (inclusive ordinal range), `name@node`
// (hierarchy subtree). Every response is one header line — `ok <n>` or
// `error: <message>` — followed by exactly n payload lines, so responses
// are parseable without knowing which verb they answer. QUERY/BATCH
// payload lines are `%.17g` answers, bit-identical to `privelet_cli
// query` output for the same release.
//
// Binary mode: the client's first 4 bytes are the magic "PVB1"; from then
// on both directions speak length-prefixed frames
//
//   [u32 payload_bytes][payload]
//
// with all integers little-endian. Request payloads begin with a verb
// byte (Verb below); responses begin with a status byte (0 = ok,
// 1 = error). See EncodeQueryRequest / DecodeRequest for the exact
// layouts. Query answers are raw IEEE-754 doubles — bit-identical to the
// in-process AnswerAll by construction.
//
// Framing errors (oversized frame, truncated payload) poison the stream
// and the server closes the connection; request-level failures (unknown
// id, bad predicate) are ordinary error responses and the connection
// lives on.
#ifndef PRIVELET_SERVING_PROTOCOL_H_
#define PRIVELET_SERVING_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "privelet/common/result.h"
#include "privelet/data/schema.h"
#include "privelet/query/range_query.h"

namespace privelet::serving {

inline constexpr char kBinaryMagic[4] = {'P', 'V', 'B', '1'};
/// Hard cap on one frame's payload; a corrupt length field must not drive
/// a pathological allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;
/// Hard cap on queries per QUERY/BATCH request (admission control: one
/// request is answered as one pooled batch).
inline constexpr std::uint32_t kMaxQueriesPerRequest = 1u << 20;

enum class Verb : std::uint8_t {
  kQuery = 1,
  kReload = 2,
  kStats = 3,
  kPing = 4,
  kIds = 5,
};

/// Appends `value` and '\n' to `out` as a text answer line: the
/// `%.17g` rendering (which round-trips every double), produced with
/// std::to_chars(general, 17), byte-identical to printf's including
/// signed zeros, infinities and NaNs. The one formatter of the daemon's
/// text framing and of `privelet_cli query` / `serve` output.
void AppendAnswerLine(std::string* out, double value);

// ---------------------------------------------------------------------------
// Predicate parsing (shared with the workload-file reader in
// tools/privelet_cli/workload_io.cc — one grammar, one implementation).

/// Parses one whitespace-separated predicate line (`*`, `name=lo:hi`,
/// `name@node` tokens) into a query against `schema`. The line must
/// contain at least one token, and may predicate each attribute at most
/// once; comments/blank handling is the caller's.
Result<query::RangeQuery> ParseQueryLine(const data::Schema& schema,
                                         std::string_view line);

/// Applies one predicate token to `query` (grammar above; `*` is not a
/// predicate and is rejected here).
Status ApplyPredicateToken(const data::Schema& schema, std::string_view token,
                           query::RangeQuery* query);

// ---------------------------------------------------------------------------
// Binary frames. A query travels as schema-independent predicate specs
// (attribute *index* + bounds); the server validates them against the
// release's schema once the session is acquired.

struct PredicateSpec {
  std::uint8_t kind = 0;  ///< 0 = inclusive range, 1 = hierarchy node
  std::uint16_t attr = 0;
  std::uint64_t lo = 0;  ///< node id when kind == 1
  std::uint64_t hi = 0;  ///< unused when kind == 1
};

struct QuerySpec {
  std::vector<PredicateSpec> predicates;
};

/// Builds a validated RangeQuery from a spec (bounds and node ids checked
/// against the schema's domains). A second predicate on one attribute is
/// rejected, as in the text grammar.
Result<query::RangeQuery> BuildQuery(const data::Schema& schema,
                                     const QuerySpec& spec);

struct BinaryRequest {
  Verb verb = Verb::kPing;
  std::string id;                 ///< kQuery / kReload
  std::string path;               ///< kReload
  std::vector<QuerySpec> queries;  ///< kQuery
};

struct BinaryResponse {
  bool ok = false;
  std::string error;            ///< ok == false
  std::vector<double> answers;  ///< ok QUERY
  std::string text;             ///< ok RELOAD/STATS/PING/IDS payload
};

/// Appends a complete [len][payload] request frame to `out`.
void EncodeQueryRequest(std::string* out, std::string_view id,
                        std::span<const QuerySpec> queries);
void EncodeReloadRequest(std::string* out, std::string_view id,
                         std::string_view path);
void EncodeVerbRequest(std::string* out, Verb verb);  ///< kStats/kPing/kIds

/// Appends a complete [len][payload] response frame to `out`.
void EncodeOkAnswers(std::string* out, std::span<const double> answers);
void EncodeOkText(std::string* out, std::string_view text);
void EncodeErrorResponse(std::string* out, const Status& status);

/// Frame splitter: returns the total frame size (header + payload) when
/// `buf` starts with a complete frame, 0 when more bytes are needed, or
/// InvalidArgument when the declared length exceeds kMaxFrameBytes (the
/// stream is poisoned — close the connection).
Result<std::size_t> PeekFrame(std::string_view buf);

/// Decodes one request payload (the bytes after the length prefix).
Result<BinaryRequest> DecodeRequest(std::string_view payload);
/// Decodes one response payload. The answers/text split follows the
/// status+shape bytes on the wire, not the request verb.
Result<BinaryResponse> DecodeResponse(std::string_view payload);

}  // namespace privelet::serving

#endif  // PRIVELET_SERVING_PROTOCOL_H_

#include "privelet/serving/protocol.h"

#include <bit>
#include <charconv>
#include <cstring>

namespace privelet::serving {

namespace {

// Builds "'<token>': <detail>" without the `"lit" + std::string(view)`
// pattern that trips GCC 12's -Wrestrict false positive.
Status BadToken(std::string_view token, std::string_view detail) {
  std::string message;
  message.reserve(token.size() + detail.size() + 4);
  message += '\'';
  message += token;
  message += "'";
  message += detail;
  return Status::InvalidArgument(std::move(message));
}

// --- strict numeric parsing -----------------------------------------------
// std::stoull-style parsing silently accepts (and wraps) signed input like
// "-1"; protocol indices are exact client inputs, so only plain digit
// strings are valid.
Result<std::uint64_t> ParseIndex(std::string_view token) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, 10);
  if (ec != std::errc{} || ptr != token.data() + token.size() ||
      token.empty()) {
    return BadToken(token, " is not an index");
  }
  return value;
}

// --- little-endian primitives ---------------------------------------------

template <typename T>
void PutLE(std::string* out, T value) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutDouble(std::string* out, double value) {
  PutLE(out, std::bit_cast<std::uint64_t>(value));
}

void PutString16(std::string* out, std::string_view s) {
  PutLE(out, static_cast<std::uint16_t>(s.size()));
  out->append(s);
}

void PutString32(std::string* out, std::string_view s) {
  PutLE(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked cursor over one frame payload.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  template <typename T>
  Result<T> ReadLE(const char* what) {
    static_assert(std::is_unsigned_v<T>);
    if (remaining() < sizeof(T)) return Truncated(what);
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(
          static_cast<unsigned char>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += sizeof(T);
    return value;
  }

  Result<std::string> ReadBytes(std::size_t len, const char* what) {
    if (remaining() < len) return Truncated(what);
    std::string out(data_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  Status Truncated(const char* what) const {
    return Status::InvalidArgument(std::string("frame truncated in ") + what);
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Reserves the 4-byte length prefix in `out` and back-patches it on
/// destruction — every encoder emits one complete frame.
class FrameBuilder {
 public:
  explicit FrameBuilder(std::string* out) : out_(out), start_(out->size()) {
    out_->append(4, '\0');
  }
  ~FrameBuilder() {
    const std::size_t payload = out_->size() - start_ - 4;
    for (std::size_t i = 0; i < 4; ++i) {
      (*out_)[start_ + i] = static_cast<char>((payload >> (8 * i)) & 0xff);
    }
  }

 private:
  std::string* out_;
  std::size_t start_;
};

constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusError = 1;
constexpr std::uint8_t kShapeAnswers = 0;
constexpr std::uint8_t kShapeText = 1;

}  // namespace

// ---------------------------------------------------------------------------
// Predicate grammar (shared by workload files and the daemon's text mode).

Status ApplyPredicateToken(const data::Schema& schema, std::string_view token,
                           query::RangeQuery* query) {
  const std::size_t eq = token.find('=');
  const std::size_t at = token.find('@');
  if (eq != std::string_view::npos) {
    const std::string_view name = token.substr(0, eq);
    const std::string_view bounds = token.substr(eq + 1);
    const std::size_t colon = bounds.find(':');
    if (colon == std::string_view::npos) {
      return BadToken(token, ": expected name=lo:hi");
    }
    PRIVELET_ASSIGN_OR_RETURN(std::size_t attr, schema.FindAttribute(name));
    // RangeQuery::SetRange silently overwrites; at the text-grammar
    // boundary a repeated attribute is almost certainly a typo, so reject
    // it instead of keeping whichever predicate came last.
    if (query->range(attr).has_value()) {
      return Status::InvalidArgument("duplicate predicate on attribute '" +
                                     std::string(name) + "'");
    }
    PRIVELET_ASSIGN_OR_RETURN(std::uint64_t lo,
                              ParseIndex(bounds.substr(0, colon)));
    PRIVELET_ASSIGN_OR_RETURN(std::uint64_t hi,
                              ParseIndex(bounds.substr(colon + 1)));
    return query->SetRange(schema, attr, static_cast<std::size_t>(lo),
                           static_cast<std::size_t>(hi));
  }
  if (at != std::string_view::npos) {
    const std::string_view name = token.substr(0, at);
    PRIVELET_ASSIGN_OR_RETURN(std::size_t attr, schema.FindAttribute(name));
    if (query->range(attr).has_value()) {
      return Status::InvalidArgument("duplicate predicate on attribute '" +
                                     std::string(name) + "'");
    }
    PRIVELET_ASSIGN_OR_RETURN(std::uint64_t node,
                              ParseIndex(token.substr(at + 1)));
    return query->SetHierarchyNode(schema, attr,
                                   static_cast<std::size_t>(node));
  }
  return BadToken(token, ": expected name=lo:hi or name@node");
}

Result<query::RangeQuery> ParseQueryLine(const data::Schema& schema,
                                         std::string_view line) {
  query::RangeQuery query(schema.num_attributes());
  std::size_t tokens = 0;
  bool star = false;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t begin = line.find_first_not_of(" \t\r", pos);
    if (begin == std::string_view::npos) break;
    std::size_t end = line.find_first_of(" \t\r", begin);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(begin, end - begin);
    pos = end;
    ++tokens;
    if (token == "*") {
      star = true;
      continue;
    }
    PRIVELET_RETURN_IF_ERROR(ApplyPredicateToken(schema, token, &query));
  }
  if (tokens == 0) {
    return Status::InvalidArgument("query has no predicates (use '*')");
  }
  if (star && tokens > 1) {
    return Status::InvalidArgument("'*' takes no predicates");
  }
  return query;
}

Result<query::RangeQuery> BuildQuery(const data::Schema& schema,
                                     const QuerySpec& spec) {
  query::RangeQuery query(schema.num_attributes());
  for (const PredicateSpec& pred : spec.predicates) {
    if (pred.kind == 0) {
      PRIVELET_RETURN_IF_ERROR(query.SetRange(
          schema, pred.attr, static_cast<std::size_t>(pred.lo),
          static_cast<std::size_t>(pred.hi)));
    } else if (pred.kind == 1) {
      PRIVELET_RETURN_IF_ERROR(query.SetHierarchyNode(
          schema, pred.attr, static_cast<std::size_t>(pred.lo)));
    } else {
      return Status::InvalidArgument("unknown predicate kind " +
                                     std::to_string(pred.kind));
    }
  }
  return query;
}

// ---------------------------------------------------------------------------
// Binary encoders.

void EncodeQueryRequest(std::string* out, std::string_view id,
                        std::span<const QuerySpec> queries) {
  FrameBuilder frame(out);
  PutLE(out, static_cast<std::uint8_t>(Verb::kQuery));
  PutString16(out, id);
  PutLE(out, static_cast<std::uint32_t>(queries.size()));
  for (const QuerySpec& q : queries) {
    PutLE(out, static_cast<std::uint16_t>(q.predicates.size()));
    for (const PredicateSpec& p : q.predicates) {
      PutLE(out, p.kind);
      PutLE(out, p.attr);
      PutLE(out, p.lo);
      PutLE(out, p.hi);
    }
  }
}

void EncodeReloadRequest(std::string* out, std::string_view id,
                         std::string_view path) {
  FrameBuilder frame(out);
  PutLE(out, static_cast<std::uint8_t>(Verb::kReload));
  PutString16(out, id);
  PutString16(out, path);
}

void EncodeVerbRequest(std::string* out, Verb verb) {
  FrameBuilder frame(out);
  PutLE(out, static_cast<std::uint8_t>(verb));
}

void EncodeOkAnswers(std::string* out, std::span<const double> answers) {
  FrameBuilder frame(out);
  PutLE(out, kStatusOk);
  PutLE(out, kShapeAnswers);
  PutLE(out, static_cast<std::uint32_t>(answers.size()));
  for (const double a : answers) PutDouble(out, a);
}

void EncodeOkText(std::string* out, std::string_view text) {
  FrameBuilder frame(out);
  PutLE(out, kStatusOk);
  PutLE(out, kShapeText);
  PutString32(out, text);
}

void EncodeErrorResponse(std::string* out, const Status& status) {
  FrameBuilder frame(out);
  PutLE(out, kStatusError);
  PutString32(out, status.ToString());
}

// ---------------------------------------------------------------------------
// Binary decoders.

Result<std::size_t> PeekFrame(std::string_view buf) {
  if (buf.size() < 4) return std::size_t{0};
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
           << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds the " +
                                   std::to_string(kMaxFrameBytes) +
                                   "-byte limit");
  }
  if (buf.size() < 4 + static_cast<std::size_t>(len)) return std::size_t{0};
  return static_cast<std::size_t>(4 + len);
}

Result<BinaryRequest> DecodeRequest(std::string_view payload) {
  PayloadReader reader(payload);
  BinaryRequest request;
  PRIVELET_ASSIGN_OR_RETURN(std::uint8_t verb,
                            reader.ReadLE<std::uint8_t>("verb"));
  switch (static_cast<Verb>(verb)) {
    case Verb::kQuery: {
      request.verb = Verb::kQuery;
      PRIVELET_ASSIGN_OR_RETURN(std::uint16_t id_len,
                                reader.ReadLE<std::uint16_t>("id"));
      PRIVELET_ASSIGN_OR_RETURN(request.id, reader.ReadBytes(id_len, "id"));
      PRIVELET_ASSIGN_OR_RETURN(std::uint32_t num_queries,
                                reader.ReadLE<std::uint32_t>("query count"));
      if (num_queries > kMaxQueriesPerRequest) {
        return Status::InvalidArgument(
            "request carries " + std::to_string(num_queries) +
            " queries (limit " + std::to_string(kMaxQueriesPerRequest) + ")");
      }
      // Each query costs >= 2 payload bytes; reject counts the frame
      // cannot possibly hold before reserving.
      if (num_queries > reader.remaining() / 2) {
        return reader.Truncated("query list");
      }
      request.queries.resize(num_queries);
      for (QuerySpec& q : request.queries) {
        PRIVELET_ASSIGN_OR_RETURN(
            std::uint16_t num_preds,
            reader.ReadLE<std::uint16_t>("predicate count"));
        // Each predicate costs 19 payload bytes (u8 kind, u16 attr,
        // u64 lo, u64 hi); reject counts the frame cannot hold likewise.
        if (num_preds > reader.remaining() / 19) {
          return reader.Truncated("predicate list");
        }
        q.predicates.resize(num_preds);
        for (PredicateSpec& p : q.predicates) {
          PRIVELET_ASSIGN_OR_RETURN(p.kind,
                                    reader.ReadLE<std::uint8_t>("predicate"));
          PRIVELET_ASSIGN_OR_RETURN(p.attr,
                                    reader.ReadLE<std::uint16_t>("predicate"));
          PRIVELET_ASSIGN_OR_RETURN(p.lo,
                                    reader.ReadLE<std::uint64_t>("predicate"));
          PRIVELET_ASSIGN_OR_RETURN(p.hi,
                                    reader.ReadLE<std::uint64_t>("predicate"));
        }
      }
      break;
    }
    case Verb::kReload: {
      request.verb = Verb::kReload;
      PRIVELET_ASSIGN_OR_RETURN(std::uint16_t id_len,
                                reader.ReadLE<std::uint16_t>("id"));
      PRIVELET_ASSIGN_OR_RETURN(request.id, reader.ReadBytes(id_len, "id"));
      PRIVELET_ASSIGN_OR_RETURN(std::uint16_t path_len,
                                reader.ReadLE<std::uint16_t>("path"));
      PRIVELET_ASSIGN_OR_RETURN(request.path,
                                reader.ReadBytes(path_len, "path"));
      break;
    }
    case Verb::kStats:
    case Verb::kPing:
    case Verb::kIds:
      request.verb = static_cast<Verb>(verb);
      break;
    default:
      return Status::InvalidArgument("unknown verb byte " +
                                     std::to_string(verb));
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after the request");
  }
  return request;
}

Result<BinaryResponse> DecodeResponse(std::string_view payload) {
  PayloadReader reader(payload);
  BinaryResponse response;
  PRIVELET_ASSIGN_OR_RETURN(std::uint8_t status,
                            reader.ReadLE<std::uint8_t>("status"));
  if (status == kStatusError) {
    PRIVELET_ASSIGN_OR_RETURN(std::uint32_t len,
                              reader.ReadLE<std::uint32_t>("error"));
    PRIVELET_ASSIGN_OR_RETURN(response.error, reader.ReadBytes(len, "error"));
    response.ok = false;
    return response;
  }
  if (status != kStatusOk) {
    return Status::InvalidArgument("unknown status byte " +
                                   std::to_string(status));
  }
  response.ok = true;
  PRIVELET_ASSIGN_OR_RETURN(std::uint8_t shape,
                            reader.ReadLE<std::uint8_t>("shape"));
  if (shape == kShapeAnswers) {
    PRIVELET_ASSIGN_OR_RETURN(std::uint32_t n,
                              reader.ReadLE<std::uint32_t>("answer count"));
    if (static_cast<std::size_t>(n) * 8 != reader.remaining()) {
      return reader.Truncated("answers");
    }
    response.answers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      PRIVELET_ASSIGN_OR_RETURN(std::uint64_t bits,
                                reader.ReadLE<std::uint64_t>("answers"));
      response.answers.push_back(std::bit_cast<double>(bits));
    }
  } else if (shape == kShapeText) {
    PRIVELET_ASSIGN_OR_RETURN(std::uint32_t len,
                              reader.ReadLE<std::uint32_t>("text"));
    PRIVELET_ASSIGN_OR_RETURN(response.text, reader.ReadBytes(len, "text"));
  } else {
    return Status::InvalidArgument("unknown response shape " +
                                   std::to_string(shape));
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after the response");
  }
  return response;
}

void AppendAnswerLine(std::string* out, double value) {
  // 17 significant digits: at most 1 sign + 17 digits + '.' + "e-308".
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), value,
                    std::chars_format::general, 17);
  out->append(buf, r.ptr);
  out->push_back('\n');
}

}  // namespace privelet::serving

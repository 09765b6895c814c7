#include "privelet/data/csv.h"

#include <fcntl.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "privelet/common/io_util.h"

namespace privelet::data {

namespace {

// Read and write size; the read buffer grows past it only to hold one
// longer line.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

// Hands out the input one line at a time as views into a read(2) buffer,
// carrying a partial last line to the front on each refill. Reading, not
// mapping, keeps pipes and FIFOs (--csv /dev/stdin) working and keeps a
// file-sized mapping out of the peak RSS. Drops the \n and one trailing
// \r (CRLF files).
class LineReader {
 public:
  explicit LineReader(const std::string& path)
      : fd_(common::OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC)),
        what_("read from '" + path + "'"),
        buf_(kChunkBytes) {}
  ~LineReader() {
    if (fd_ >= 0) common::CloseFd(fd_);
  }
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  bool is_open() const { return fd_ >= 0; }

  /// Sets `*line` to the next line; false at the end of the input.
  Result<bool> Next(std::string_view* line) {
    std::size_t scan = begin_;
    for (;;) {
      const char* base = buf_.data();
      const auto* nl =
          static_cast<const char*>(std::memchr(base + scan, '\n', end_ - scan));
      if (nl != nullptr) {
        std::size_t len = nl - (base + begin_);
        if (len > 0 && nl[-1] == '\r') --len;
        *line = std::string_view(base + begin_, len);
        begin_ = nl + 1 - base;
        return true;
      }
      if (eof_) return false;
      std::memmove(buf_.data(), base + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      scan = end_;
      if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
      PRIVELET_ASSIGN_OR_RETURN(
          const std::size_t got,
          common::ReadSome(fd_, buf_.data() + end_, buf_.size() - end_,
                           what_.c_str()));
      end_ += got;
      eof_ = got == 0;
      // A last line without its newline gets one; the read asked for at
      // least one byte, so there is room.
      if (eof_ && end_ > 0) buf_[end_++] = '\n';
    }
  }

 private:
  int fd_;
  std::string what_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // unconsumed bytes are [begin_, end_)
  std::size_t end_ = 0;
  bool eof_ = false;
};

bool HeaderMatches(std::string_view line, const Schema& schema) {
  for (std::size_t col = 0;; ++col) {
    const std::size_t comma = line.find(',');
    if (col >= schema.num_attributes() ||
        line.substr(0, comma) != schema.attribute(col).name()) {
      return false;
    }
    if (comma == std::string_view::npos) {
      return col + 1 == schema.num_attributes();
    }
    line.remove_prefix(comma + 1);
  }
}

// Parses one data line into `row`, field by field straight from the
// buffer. Each field is a strict uint32: from_chars rejects "-1" (which
// strtoul wraps to 4294967295), values above UINT32_MAX, and the empty
// field — a trailing one included. Errors quote the field.
Status ParseRow(std::string_view line, std::size_t line_number,
                std::span<std::uint32_t> row) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t col = 0;; ++col) {
    if (col >= row.size()) {
      return Status::InvalidArgument("too many fields at line " +
                                     std::to_string(line_number));
    }
    const auto [ptr, ec] = std::from_chars(p, end, row[col], 10);
    if (ec != std::errc{} || (ptr != end && *ptr != ',')) {
      std::string message = "line " + std::to_string(line_number) + ": ";
      message += ec == std::errc::result_out_of_range
                     ? "value exceeds UINT32_MAX: '"
                     : "non-integer field '";
      message.append(p, std::find(p, end, ','));
      message += "'";
      return Status::InvalidArgument(std::move(message));
    }
    if (ptr == end) {
      if (col + 1 == row.size()) return Status::OK();
      return Status::InvalidArgument("too few fields at line " +
                                     std::to_string(line_number));
    }
    p = ptr + 1;
  }
}

}  // namespace

Status WriteCsv(const std::string& path, const Table& table) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  const Schema& schema = table.schema();
  for (std::size_t c = 0; c < schema.num_attributes(); ++c) {
    if (c > 0) out << ',';
    out << schema.attribute(c).name();
  }
  out << '\n';
  // Rows are formatted with to_chars into a buffer written out a
  // chunk at a time; streaming each cell through operator<< cost ~3x.
  std::string chunk;
  char digits[std::numeric_limits<std::uint32_t>::digits10 + 1];
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < schema.num_attributes(); ++c) {
      if (c > 0) chunk += ',';
      chunk.append(digits, std::to_chars(digits, std::end(digits),
                                         table.value(r, c)).ptr);
    }
    chunk += '\n';
    if (chunk.size() >= kChunkBytes || r + 1 == table.num_rows()) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  }
  out.flush();
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Table> ReadCsv(const std::string& path, const Schema& schema) {
  LineReader reader(path);
  if (!reader.is_open()) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string_view line;
  PRIVELET_ASSIGN_OR_RETURN(bool more, reader.Next(&line));
  if (!more) {
    return Status::IOError("'" + path + "' is empty (missing header)");
  }
  if (!HeaderMatches(line, schema)) {
    return Status::InvalidArgument("CSV header does not match schema");
  }
  Table table(schema);
  std::vector<std::uint32_t> row(schema.num_attributes());
  for (std::size_t line_number = 2;; ++line_number) {
    PRIVELET_ASSIGN_OR_RETURN(more, reader.Next(&line));
    if (!more) return table;
    if (line.empty()) continue;
    PRIVELET_RETURN_IF_ERROR(ParseRow(line, line_number, row));
    PRIVELET_RETURN_IF_ERROR(table.AppendRow(row));
  }
}

}  // namespace privelet::data

// Tests for attributes, schemas, tables, and the CSV round-trip.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "privelet/data/attribute.h"
#include "privelet/data/csv.h"
#include "privelet/data/schema.h"
#include "privelet/data/table.h"

namespace privelet::data {
namespace {

Schema TwoAttributeSchema() {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Ordinal("Age", 8));
  attrs.push_back(Attribute::Nominal("Country",
                                     Hierarchy::Balanced({2, 2}).value()));
  return Schema(std::move(attrs));
}

TEST(AttributeTest, OrdinalBasics) {
  const Attribute a = Attribute::Ordinal("Age", 101);
  EXPECT_EQ(a.name(), "Age");
  EXPECT_TRUE(a.is_ordinal());
  EXPECT_FALSE(a.is_nominal());
  EXPECT_EQ(a.domain_size(), 101u);
}

TEST(AttributeTest, NominalCarriesHierarchy) {
  const Attribute a =
      Attribute::Nominal("Occ", Hierarchy::Balanced({4, 8}).value());
  EXPECT_TRUE(a.is_nominal());
  EXPECT_EQ(a.domain_size(), 32u);
  EXPECT_EQ(a.hierarchy().height(), 3u);
}

TEST(SchemaTest, DomainSizesAndTotal) {
  const Schema schema = TwoAttributeSchema();
  EXPECT_EQ(schema.num_attributes(), 2u);
  EXPECT_EQ(schema.DomainSizes(), (std::vector<std::size_t>{8, 4}));
  EXPECT_EQ(schema.TotalDomainSize(), 32u);
}

TEST(SchemaDeathTest, TotalDomainSizeOverflowAborts) {
  // Regression: the total-cell computation must use checked
  // multiplication rather than wrapping size_t.
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Ordinal(
      "Huge", std::numeric_limits<std::size_t>::max() / 2 + 1));
  attrs.push_back(Attribute::Ordinal("Small", 4));
  const Schema schema(std::move(attrs));
  EXPECT_DEATH((void)schema.TotalDomainSize(), "dimension product overflow");
}

TEST(SchemaTest, FindAttribute) {
  const Schema schema = TwoAttributeSchema();
  ASSERT_TRUE(schema.FindAttribute("Country").ok());
  EXPECT_EQ(schema.FindAttribute("Country").value(), 1u);
  EXPECT_EQ(schema.FindAttribute("Salary").status().code(),
            StatusCode::kNotFound);
}

TEST(TableTest, AppendAndRead) {
  Table table(TwoAttributeSchema());
  ASSERT_TRUE(table.AppendRow({3, 1}).ok());
  ASSERT_TRUE(table.AppendRow({7, 0}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.value(0, 0), 3u);
  EXPECT_EQ(table.value(0, 1), 1u);
  EXPECT_EQ(table.value(1, 0), 7u);
}

TEST(TableTest, RejectsWrongArity) {
  Table table(TwoAttributeSchema());
  EXPECT_EQ(table.AppendRow({1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.AppendRow({1, 2, 3}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, RejectsOutOfDomainValue) {
  Table table(TwoAttributeSchema());
  EXPECT_EQ(table.AppendRow({8, 0}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(table.AppendRow({0, 4}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(table.num_rows(), 0u);
}

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("privelet_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(CsvTest, RoundTrip) {
  Table table(TwoAttributeSchema());
  ASSERT_TRUE(table.AppendRow({0, 0}).ok());
  ASSERT_TRUE(table.AppendRow({5, 3}).ok());
  ASSERT_TRUE(table.AppendRow({7, 2}).ok());
  ASSERT_TRUE(WriteCsv(path_.string(), table).ok());

  auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(loaded->value(r, c), table.value(r, c));
    }
  }
}

TEST_F(CsvTest, RejectsHeaderMismatch) {
  Table table(TwoAttributeSchema());
  ASSERT_TRUE(WriteCsv(path_.string(), table).ok());
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Ordinal("Wrong", 8));
  attrs.push_back(Attribute::Ordinal("Names", 4));
  EXPECT_FALSE(ReadCsv(path_.string(), Schema(std::move(attrs))).ok());
}

TEST_F(CsvTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadCsv("/nonexistent/path.csv", TwoAttributeSchema())
                .status()
                .code(),
            StatusCode::kIOError);
}

TEST_F(CsvTest, RejectsNegativeValueNamingIt) {
  // Regression: strtoul-based parsing accepted "-1" and wrapped it to
  // 4294967295 — a silently corrupted cell index.
  std::ofstream out(path_);
  out << "Age,Country\n-1,0\n";
  out.close();
  const auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("'-1'"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(CsvTest, RejectsValueAboveUint32NamingIt) {
  // Regression: a 64-bit strtoul let 4294967296 through and the uint32
  // cast silently truncated it to 0.
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Ordinal("Huge", std::size_t{1} << 33));
  const Schema schema(std::move(attrs));
  std::ofstream out(path_);
  out << "Huge\n4294967296\n";
  out.close();
  const auto loaded = ReadCsv(path_.string(), schema);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("'4294967296'"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("UINT32_MAX"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(CsvTest, AcceptsExactlyUint32Max) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Ordinal("Huge", std::size_t{1} << 33));
  const Schema schema(std::move(attrs));
  std::ofstream out(path_);
  out << "Huge\n4294967295\n";
  out.close();
  const auto loaded = ReadCsv(path_.string(), schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 1u);
  EXPECT_EQ(loaded->value(0, 0), 4294967295u);
}

TEST_F(CsvTest, CrlfFileParsesIdenticallyToLf) {
  // Windows tools terminate lines with \r\n; getline leaves the \r on
  // the last field, which the old parser rejected as non-integer.
  std::ofstream out(path_, std::ios::binary);
  out << "Age,Country\r\n5,3\r\n7,2\r\n";
  out.close();
  const auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->value(0, 0), 5u);
  EXPECT_EQ(loaded->value(0, 1), 3u);
  EXPECT_EQ(loaded->value(1, 0), 7u);
  EXPECT_EQ(loaded->value(1, 1), 2u);
}

TEST_F(CsvTest, TrailingEmptyFieldIsRejected) {
  // Regression: getline-based splitting dropped an empty last field, so
  // "5,3," read as the row (5, 3) and "5," fell through to "too few".
  std::ofstream(path_) << "Age,Country\n5,\n";
  auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(), "line 2: non-integer field ''");

  // A trailing comma after a full row is a third field.
  std::ofstream(path_) << "Age,Country\n5,3\n5,3,\n";
  loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(), "too many fields at line 3");
}

TEST_F(CsvTest, HeaderWithTrailingCommaDoesNotMatch) {
  std::ofstream(path_) << "Age,Country,\n5,3\n";
  const auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(), "CSV header does not match schema");
}

TEST_F(CsvTest, OutOfDomainValueIsRejectedByAppendRow) {
  std::ofstream(path_) << "Age,Country\n8,0\n";
  const auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(loaded.status().message().find("'Age'"), std::string::npos);
}

// Values drawn so rows vary in width (4 to 11 bytes), which puts the
// read-buffer refills in the middle of rows.
Table WideRandomTable(std::size_t rows) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Ordinal("Wide", std::size_t{1} << 24));
  attrs.push_back(Attribute::Ordinal("Narrow", 10));
  Table table{Schema(std::move(attrs))};
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::size_t r = 0; r < rows; ++r) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto wide = static_cast<std::uint32_t>((x >> 40) >> ((x >> 8) % 24));
    EXPECT_TRUE(table.AppendRow({wide, static_cast<std::uint32_t>(x % 10)})
                    .ok());
  }
  return table;
}

void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(got.column(c), want.column(c)) << "column " << c;
  }
}

TEST_F(CsvTest, RoundTripSpanningManyReadBuffers) {
  const Table table = WideRandomTable(600'000);  // ~4 MiB of CSV
  ASSERT_TRUE(WriteCsv(path_.string(), table).ok());
  ASSERT_GT(std::filesystem::file_size(path_), std::uintmax_t{3} << 20);
  const auto loaded = ReadCsv(path_.string(), table.schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameTable(*loaded, table);
}

TEST_F(CsvTest, LineLongerThanTheReadBufferParses) {
  // Leading zeros are legal decimal digits, so this 3 MiB field is 5.
  std::ofstream(path_) << "Age,Country\n7,2\n"
                       << std::string(std::size_t{3} << 20, '0')
                       << "5,3\n1,1\n";
  const auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 3u);
  EXPECT_EQ(loaded->column(0), (std::vector<std::uint32_t>{7, 5, 1}));
  EXPECT_EQ(loaded->column(1), (std::vector<std::uint32_t>{2, 3, 1}));
}

TEST_F(CsvTest, MissingFinalNewlineKeepsTheLastRow) {
  for (const char* body :
       {"Age,Country\n5,3\n7,2", "Age,Country\r\n5,3\r\n7,2\r"}) {
    std::ofstream(path_, std::ios::binary) << body;
    const auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->column(0), (std::vector<std::uint32_t>{5, 7})) << body;
    EXPECT_EQ(loaded->column(1), (std::vector<std::uint32_t>{3, 2})) << body;
  }
}

TEST_F(CsvTest, BlankAndCrOnlyLinesAreSkippedButCounted) {
  std::ofstream(path_, std::ios::binary)
      << "Age,Country\n\n5,3\r\n\r\n\n7,2\n\r\n";
  auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->column(0), (std::vector<std::uint32_t>{5, 7}));
  EXPECT_EQ(loaded->column(1), (std::vector<std::uint32_t>{3, 2}));

  std::ofstream(path_, std::ios::binary) << "Age,Country\n\r\n\n5,x\n";
  loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(), "line 4: non-integer field 'x'");
}

TEST_F(CsvTest, HeaderOnlyFileIsAnEmptyTable) {
  for (const char* body : {"Age,Country\n", "Age,Country"}) {
    std::ofstream(path_) << body;
    const auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_rows(), 0u);
  }
}

TEST_F(CsvTest, EmptyFileIsIOError) {
  std::ofstream{path_};
  const auto loaded = ReadCsv(path_.string(), TwoAttributeSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("empty"), std::string::npos);
}

TEST_F(CsvTest, ErrorPastTheFirstBufferNamesItsLine) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Ordinal("A", std::size_t{1} << 21));
  attrs.push_back(Attribute::Ordinal("B", std::size_t{1} << 21));
  const Schema schema(std::move(attrs));
  {
    std::ofstream out(path_);
    out << "A,B\n";
    for (int i = 0; i < 199'999; ++i) out << "1000000,2000000\n";
    out << "1000000,2000000x\n";
  }
  ASSERT_GT(std::filesystem::file_size(path_), std::uintmax_t{2} << 20);
  const auto loaded = ReadCsv(path_.string(), schema);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "line 200001: non-integer field '2000000x'");
}

TEST_F(CsvTest, ReadsThroughAFifo) {
  // A FIFO can be neither mapped nor seeked: this is the --csv /dev/stdin
  // path. Pipe reads return short counts, so refills run often.
  const Table table = WideRandomTable(200'000);
  // A reader that fails early closes the FIFO; the writer must then get
  // EPIPE (a test failure), not a SIGPIPE that kills the test binary.
  std::signal(SIGPIPE, SIG_IGN);
  const std::filesystem::path fifo = path_.string() + ".fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] { EXPECT_TRUE(WriteCsv(fifo.string(), table).ok()); });
  const auto loaded = ReadCsv(fifo.string(), table.schema());
  writer.join();
  std::filesystem::remove(fifo);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameTable(*loaded, table);
}

}  // namespace
}  // namespace privelet::data

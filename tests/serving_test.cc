// Serving-layer units: the log-linear latency histogram's bucket math,
// quantiles, merge exactness (single-loop vs per-loop-then-merged
// recording must agree bucket for bucket) and lock-free recording from
// several threads (runs under TSan with the concurrency label), the
// per-release answer cache, and the wire protocol's encode/decode
// round-trips plus its rejection of malformed frames (the daemon feeds
// it raw network bytes).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "privelet/data/attribute.h"
#include "privelet/data/schema.h"
#include "privelet/query/range_query.h"
#include "privelet/serving/answer_cache.h"
#include "privelet/serving/latency_histogram.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/serving/protocol.h"

namespace privelet::serving {
namespace {

data::Schema TestSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Age", 16));
  attrs.push_back(data::Attribute::Nominal(
      "Region", data::Hierarchy::Balanced({2, 4}).value()));
  return data::Schema(std::move(attrs));
}

// --- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(v), v);
  }
}

TEST(LatencyHistogramTest, BucketBoundsCoverAndOrder) {
  // Every value maps to a bucket whose upper bound is >= the value, and
  // bucket indices are monotone in the value.
  std::uint64_t prev_index = 0;
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 2 + 3) {
    const std::size_t index = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(LatencyHistogram::BucketUpperBound(index), v) << "value " << v;
    EXPECT_GE(index, prev_index) << "value " << v;
    prev_index = index;
  }
  EXPECT_LT(LatencyHistogram::BucketIndex(
                std::numeric_limits<std::uint64_t>::max()),
            LatencyHistogram::kNumBuckets);
}

TEST(LatencyHistogramTest, QuantilesWithinBucketError) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v * 1000);  // 1ms..1s
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1'000'000u);
  // Log-linear buckets with 16 sub-buckets: <= ~6.25% relative error.
  const double p50 = static_cast<double>(h.Quantile(0.50));
  const double p99 = static_cast<double>(h.Quantile(0.99));
  EXPECT_NEAR(p50, 500'000.0, 500'000.0 * 0.07);
  EXPECT_NEAR(p99, 990'000.0, 990'000.0 * 0.07);
  EXPECT_EQ(h.Quantile(1.0), 1'000'000u);  // clamped to the observed max
}

TEST(LatencyHistogramTest, EmptyAndMerge) {
  LatencyHistogram a;
  EXPECT_EQ(a.Quantile(0.5), 0u);
  a.Record(100);
  LatencyHistogram b;
  b.Record(1'000'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 1'000'000u);
  EXPECT_GE(a.Quantile(0.99), 900'000u);
}

TEST(LatencyHistogramTest, MergeIsBucketExact) {
  // Recording a value stream split across histograms and merging must
  // reproduce the single-histogram result exactly: same count, sum, max,
  // and the same quantile at every probe — including values that land in
  // the top (overflow-side) buckets near 2^64.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 1; v != 0 && values.size() < 4000; v = v * 3 + 7) {
    values.push_back(v);
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());
  values.push_back(std::numeric_limits<std::uint64_t>::max() - 1);
  values.push_back(0);

  LatencyHistogram single;
  LatencyHistogram parts[3];
  for (std::size_t i = 0; i < values.size(); ++i) {
    single.Record(values[i]);
    parts[i % 3].Record(values[i]);
  }
  LatencyHistogram merged;
  for (LatencyHistogram& part : parts) merged.Merge(part);

  EXPECT_EQ(merged.count(), single.count());
  EXPECT_EQ(merged.max(), single.max());
  EXPECT_EQ(merged.SummaryMicros(), single.SummaryMicros());
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_EQ(merged.Quantile(q), single.Quantile(q)) << "quantile " << q;
  }
}

TEST(LatencyHistogramTest, ParallelRecordersLoseNothing) {
  LatencyHistogram h;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h.Record(t * kPerThread + i + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.max(), kThreads * kPerThread);
}

TEST(LatencyHistogramTest, MergeWhileRecording) {
  // The STATS render: one thread merges a loop's histogram into a fresh
  // one while the loop keeps recording. No merge may see more samples
  // than end up recorded (nor fewer than an earlier merge), and a merge
  // after the recorder stops is exact.
  LatencyHistogram live;
  constexpr std::uint64_t kSamples = 50000;
  std::atomic<bool> done{false};
  std::thread recorder([&] {
    for (std::uint64_t i = 1; i <= kSamples; ++i) live.Record(i * 37);
    done.store(true, std::memory_order_release);
  });
  std::vector<std::uint64_t> seen;
  while (!done.load(std::memory_order_acquire)) {
    LatencyHistogram merged;
    merged.Merge(live);
    seen.push_back(merged.count());
    EXPECT_EQ(merged.SummaryMicros().rfind("count=", 0), 0u);
  }
  recorder.join();
  std::uint64_t previous = 0;
  for (const std::uint64_t count : seen) {
    EXPECT_LE(previous, count);
    EXPECT_LE(count, kSamples);
    previous = count;
  }

  LatencyHistogram last;
  last.Merge(live);
  EXPECT_EQ(last.count(), kSamples);
  EXPECT_EQ(last.sum(), live.sum());
  EXPECT_EQ(last.max(), kSamples * 37);
  EXPECT_EQ(last.SummaryMicros(), live.SummaryMicros());
}

// --- AnswerCache -----------------------------------------------------------

TEST(AnswerCacheTest, CanonicalKeysDistinguishPredicates) {
  const data::Schema schema = TestSchema();
  query::RangeQuery a(2);
  ASSERT_TRUE(a.SetRange(schema, 0, 2, 5).ok());
  query::RangeQuery a_again(2);
  ASSERT_TRUE(a_again.SetRange(schema, 0, 2, 5).ok());
  query::RangeQuery b(2);
  ASSERT_TRUE(b.SetRange(schema, 0, 2, 6).ok());
  query::RangeQuery other_attr(2);
  ASSERT_TRUE(other_attr.SetRange(schema, 1, 2, 5).ok());
  query::RangeQuery unconstrained(2);

  std::string ka, ka2, kb, kattr, kall;
  AppendQueryKey(a, &ka);
  AppendQueryKey(a_again, &ka2);
  AppendQueryKey(b, &kb);
  AppendQueryKey(other_attr, &kattr);
  AppendQueryKey(unconstrained, &kall);
  EXPECT_EQ(ka, ka2);
  EXPECT_NE(ka, kb);
  EXPECT_NE(ka, kattr);
  EXPECT_NE(ka, kall);
  EXPECT_NE(kb, kattr);
}

TEST(AnswerCacheTest, LruBoundAndRefresh) {
  AnswerCache cache(2);
  cache.Insert("k1", 1.0);
  cache.Insert("k2", 2.0);
  double answer = 0;
  ASSERT_TRUE(cache.Lookup("k1", &answer));  // refreshes k1: k2 is now LRU
  EXPECT_EQ(answer, 1.0);
  cache.Insert("k3", 3.0);  // evicts k2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("k2", &answer));
  EXPECT_TRUE(cache.Lookup("k1", &answer));
  EXPECT_TRUE(cache.Lookup("k3", &answer));
  EXPECT_EQ(answer, 3.0);

  cache.Insert("k1", 10.0);  // duplicate key refreshes the value
  ASSERT_TRUE(cache.Lookup("k1", &answer));
  EXPECT_EQ(answer, 10.0);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(AnswerCacheTest, GenerationBumpDropsEverything) {
  AnswerCache cache(16);
  cache.SetGeneration(1);
  cache.Insert("k", 42.0);
  double answer = 0;
  ASSERT_TRUE(cache.Lookup("k", &answer));
  cache.SetGeneration(1);  // same generation: nothing happens
  EXPECT_TRUE(cache.Lookup("k", &answer));
  cache.SetGeneration(2);  // RELOAD
  EXPECT_FALSE(cache.Lookup("k", &answer));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AnswerCacheTest, ZeroCapacityDisables) {
  AnswerCache cache(0);
  cache.Insert("k", 1.0);
  double answer = 0;
  EXPECT_FALSE(cache.Lookup("k", &answer));
  EXPECT_EQ(cache.size(), 0u);
}

// --- predicate grammar -----------------------------------------------------

TEST(ProtocolTest, ParseQueryLineGrammar) {
  const data::Schema schema = TestSchema();
  EXPECT_TRUE(ParseQueryLine(schema, "*").ok());
  EXPECT_TRUE(ParseQueryLine(schema, "Age=2:5").ok());
  EXPECT_TRUE(ParseQueryLine(schema, "Age=2:5 Region@1").ok());
  EXPECT_FALSE(ParseQueryLine(schema, "").ok());
  EXPECT_FALSE(ParseQueryLine(schema, "* Age=2:5").ok());
  EXPECT_FALSE(ParseQueryLine(schema, "Age=2").ok());
  EXPECT_FALSE(ParseQueryLine(schema, "Nope=0:1").ok());
  // Strict indices: "-1" must not wrap to a huge bound.
  EXPECT_FALSE(ParseQueryLine(schema, "Age=-1:5").ok());
  EXPECT_FALSE(ParseQueryLine(schema, "Age=0:99").ok());  // out of domain
}

// --- binary framing --------------------------------------------------------

TEST(ProtocolTest, QueryRequestRoundTrip) {
  QuerySpec q1;
  q1.predicates.push_back({/*kind=*/0, /*attr=*/0, /*lo=*/2, /*hi=*/5});
  q1.predicates.push_back({/*kind=*/1, /*attr=*/1, /*lo=*/3, /*hi=*/0});
  QuerySpec q2;  // no predicates: the all-cells query
  std::string wire;
  EncodeQueryRequest(&wire, "rel-7", std::vector<QuerySpec>{q1, q2});

  auto frame = PeekFrame(wire);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(*frame, wire.size());
  auto request = DecodeRequest(std::string_view(wire).substr(4));
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->verb, Verb::kQuery);
  EXPECT_EQ(request->id, "rel-7");
  ASSERT_EQ(request->queries.size(), 2u);
  ASSERT_EQ(request->queries[0].predicates.size(), 2u);
  EXPECT_EQ(request->queries[0].predicates[0].kind, 0);
  EXPECT_EQ(request->queries[0].predicates[0].attr, 0);
  EXPECT_EQ(request->queries[0].predicates[0].lo, 2u);
  EXPECT_EQ(request->queries[0].predicates[0].hi, 5u);
  EXPECT_EQ(request->queries[0].predicates[1].kind, 1);
  EXPECT_EQ(request->queries[1].predicates.size(), 0u);
}

TEST(ProtocolTest, ReloadAndVerbRequestsRoundTrip) {
  std::string wire;
  EncodeReloadRequest(&wire, "id", "/tmp/x.pvls");
  EncodeVerbRequest(&wire, Verb::kStats);

  auto frame = PeekFrame(wire);
  ASSERT_TRUE(frame.ok());
  auto reload = DecodeRequest(std::string_view(wire).substr(4, *frame - 4));
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->verb, Verb::kReload);
  EXPECT_EQ(reload->id, "id");
  EXPECT_EQ(reload->path, "/tmp/x.pvls");

  const std::string_view rest = std::string_view(wire).substr(*frame);
  auto frame2 = PeekFrame(rest);
  ASSERT_TRUE(frame2.ok());
  ASSERT_EQ(*frame2, rest.size());
  auto stats = DecodeRequest(rest.substr(4));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->verb, Verb::kStats);
}

TEST(ProtocolTest, ResponseRoundTrips) {
  const std::vector<double> answers = {1.5, -0.0, 1e300, 42.0};
  std::string wire;
  EncodeOkAnswers(&wire, answers);
  auto frame = PeekFrame(wire);
  ASSERT_TRUE(frame.ok());
  auto response = DecodeResponse(std::string_view(wire).substr(4));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(response->answers, answers);  // bit-exact doubles

  wire.clear();
  EncodeOkText(&wire, "pong");
  response = DecodeResponse(std::string_view(wire).substr(4));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(response->text, "pong");

  wire.clear();
  EncodeErrorResponse(&wire, Status::NotFound("no such release"));
  response = DecodeResponse(std::string_view(wire).substr(4));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_NE(response->error.find("no such release"), std::string::npos);
}

TEST(ProtocolTest, AnswerLinesMatchPrintfG17) {
  // AppendAnswerLine (std::to_chars) must stay byte-identical to the
  // `%.17g` lines it replaced: special values, boundaries, integers, and
  // fixed samples of random bit patterns and of normal doubles.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, inf, -inf, nan, -nan, 1.0, -1.0, 0.1, 1e-5, 1e-4, 1e16,
      1e17, 123456789012345678.0, 9007199254740993.0, 0.5, 1.0 / 3.0,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::lowest()};
  rng::Xoshiro256pp gen(17);
  for (int i = 0; i < 20000; ++i) {
    const double bits = std::bit_cast<double>(gen.Next());
    if (std::isfinite(bits)) values.push_back(bits);
    values.push_back((gen.NextDouble() - 0.5) *
                     std::pow(10.0, static_cast<int>(gen.Next() % 40) - 20));
  }
  for (const double v : values) {
    std::string line;
    AppendAnswerLine(&line, v);
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.17g\n", v);
    ASSERT_EQ(expected, line);
  }
}

TEST(ProtocolTest, PeekFrameHandlesPartialAndPoisonedInput) {
  std::string wire;
  EncodeVerbRequest(&wire, Verb::kPing);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    auto partial = PeekFrame(std::string_view(wire).substr(0, len));
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(*partial, 0u) << "prefix length " << len;
  }
  // A corrupt length field above the cap poisons the stream.
  std::string huge = {'\xff', '\xff', '\xff', '\xff'};
  EXPECT_FALSE(PeekFrame(huge).ok());
}

TEST(ProtocolTest, DecodeRejectsTruncatedAndTrailingBytes) {
  QuerySpec q;
  q.predicates.push_back({0, 0, 1, 2});
  std::string wire;
  EncodeQueryRequest(&wire, "r", std::vector<QuerySpec>{q});
  const std::string_view payload = std::string_view(wire).substr(4);
  // Every strict prefix of the payload must be rejected, not crash.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeRequest(payload.substr(0, len)).ok())
        << "prefix length " << len;
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeRequest(std::string(payload) + "x").ok());
  // A declared query count that cannot fit the remaining bytes must not
  // drive a pathological allocation.
  std::string lying = std::string(payload);
  // verb(1) + idlen(2) + "r"(1), then the u32 query count.
  lying[4] = '\xff';
  lying[5] = '\xff';
  lying[6] = '\xff';
  lying[7] = '\x0f';
  EXPECT_FALSE(DecodeRequest(lying).ok());
}

// A declared predicate count is bounded by the bytes left in the frame
// before the predicate list is sized: a 9-byte payload claiming 65535
// predicates (19 bytes each) fails up front instead of allocating ~1.5 MiB.
TEST(ProtocolTest, DecodeRejectsPredicateCountBeyondTheFrame) {
  std::string payload;
  payload += '\x01';                    // verb: QUERY
  payload.append("\x00\x00", 2);        // empty release id
  payload.append("\x01\x00\x00\x00", 4);  // one query
  payload.append("\xff\xff", 2);        // 65535 predicates, none present
  const auto request = DecodeRequest(payload);
  ASSERT_FALSE(request.ok());
  EXPECT_NE(std::string::npos, request.status().message().find(
                                   "frame truncated in predicate list"))
      << request.status().ToString();
}

TEST(ProtocolTest, BuildQueryValidatesSpecs) {
  const data::Schema schema = TestSchema();
  QuerySpec ok_spec;
  ok_spec.predicates.push_back({0, 0, 2, 5});
  EXPECT_TRUE(BuildQuery(schema, ok_spec).ok());
  QuerySpec bad_attr;
  bad_attr.predicates.push_back({0, 9, 0, 1});
  EXPECT_FALSE(BuildQuery(schema, bad_attr).ok());
  QuerySpec bad_kind;
  bad_kind.predicates.push_back({7, 0, 0, 1});
  EXPECT_FALSE(BuildQuery(schema, bad_kind).ok());
  QuerySpec bad_range;
  bad_range.predicates.push_back({0, 0, 5, 99});
  EXPECT_FALSE(BuildQuery(schema, bad_range).ok());
}

}  // namespace
}  // namespace privelet::serving

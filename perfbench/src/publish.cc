// publish_csv and publish_inmem, the spans around the publish layers, the
// noise guard, and the per-layer publish table.
#include <cstdio>
#include <map>

#include "privelet/analysis/query_variance.h"
#include "privelet/data/csv.h"
#include "privelet/data/synthetic_generator.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/workload.h"
#include "privelet/storage/session_io.h"
#include "host_speed.h"
#include "privelet/wavelet/hn_transform.h"
#include "workloads.h"

namespace perfbench {

namespace data = privelet::data;
namespace matrix = privelet::matrix;
namespace mechanism = privelet::mechanism;
namespace query = privelet::query;
namespace storage = privelet::storage;
namespace wavelet = privelet::wavelet;

namespace {

constexpr std::size_t kInMemorySide = 2048;
constexpr std::size_t kInMemoryTuples = 1'000'000;
constexpr std::size_t kCheckQueries = 2000;

/// Privelet behind a span: Mechanism::Publish is the layer's public call,
/// and PublishingSession::Publish reaches it only through this interface.
/// The name is the inner mechanism's, so releases are byte-identical.
class TracedMechanism final : public mechanism::Mechanism {
 public:
  TracedMechanism(const mechanism::Mechanism& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string_view name() const override { return inner_.name(); }

  privelet::Result<matrix::FrequencyMatrix> Publish(
      const data::Schema& schema, const matrix::FrequencyMatrix& m,
      double epsilon, std::uint64_t seed) const override {
    ScopedSpan span(tracer_, "mechanism.publish", parent_);
    last_span_ = span.id();
    return inner_.Publish(schema, m, epsilon, seed);
  }

  privelet::Result<double> NoiseVarianceBound(const data::Schema& schema,
                                              double epsilon) const override {
    return inner_.NoiseVarianceBound(schema, epsilon);
  }

  void set_parent(std::uint64_t parent) { parent_ = parent; }
  std::uint64_t last_span() const { return last_span_; }

 private:
  const mechanism::Mechanism& inner_;
  Tracer& tracer_;
  std::uint64_t parent_ = 0;
  mutable std::uint64_t last_span_ = 0;
};

/// Noise-free HnTransform::Forward and ::Inverse on `m`, as spans under
/// the mechanism.publish span `parent`: the publish's noise is its
/// mechanism time minus these two.
void TraceTransforms(RunContext& ctx, const data::Schema& schema,
                     const matrix::FrequencyMatrix& m, std::uint64_t parent) {
  if (parent == 0) return;
  const auto transform =
      Must(wavelet::HnTransform::Create(schema), "HnTransform::Create");
  std::uint64_t id = ctx.tracer->Open("wavelet.forward", parent);
  const auto coefficients = Must(transform.Forward(m, nullptr), "Forward");
  ctx.tracer->Close(id);
  id = ctx.tracer->Open("wavelet.inverse", parent);
  const auto inverse = Must(transform.Inverse(coefficients, nullptr), "Inverse");
  ctx.tracer->Close(id);
}

/// PublishingSession::Publish under a "query.session_publish" span whose
/// self time is the PrefixSumTable build.
query::PublishingSession PublishSession(Tracer& tracer,
                                        const data::Schema& schema,
                                        const matrix::FrequencyMatrix& m,
                                        std::uint64_t noise_seed,
                                        std::uint64_t parent,
                                        std::uint64_t* mechanism_span) {
  mechanism::PriveletMechanism privelet;
  TracedMechanism traced(privelet, tracer);
  ScopedSpan span(tracer, "query.session_publish", parent);
  traced.set_parent(span.id());
  auto session = Must(query::PublishingSession::Publish(
                          schema, traced, m, kEpsilon, noise_seed, nullptr),
                      "PublishingSession::Publish");
  *mechanism_span = traced.last_span();
  return session;
}

void SaveRelease(RunContext& ctx, Tracer& tracer,
                 const query::PublishingSession& session,
                 const std::string& path, std::uint64_t parent) {
  const std::uint64_t start = NowNs();
  {
    ScopedSpan span(tracer, "storage.save", parent);
    Must(storage::SaveSession(path, session), "SaveSession " + path);
  }
  if (tracer.enabled()) {
    ctx.save_mb_per_s.push_back(static_cast<double>(FileSize(path)) /
                                (1024.0 * 1024.0) / SecondsSince(start));
  }
}

/// Answers of `a` and `b` on a random workload must agree bit-for-bit.
void CheckSameAnswers(RunContext& ctx, const data::Schema& schema,
                      const query::PublishingSession& a,
                      const query::PublishingSession& b, const char* what) {
  const auto queries = Must(
      query::GenerateWorkload(schema, {kCheckQueries, 1, 4, ctx.seed + 17}),
      "GenerateWorkload");
  const std::vector<double> x = a.AnswerAll(queries);
  const std::vector<double> y = b.AnswerAll(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ctx.report->Check(SameBits(x[i], y[i]),
                      std::string(what) + " answer " + std::to_string(i));
  }
}

void ReportPublishE2e(RunContext& ctx, const ReferencedTimes& setup_s,
                      const ReferencedTimes& publish_s, std::size_t cells,
                      std::uintmax_t snapshot_bytes) {
  const double publish = Median(publish_s.AtNominalSpeed());
  std::vector<double> ms;
  for (const double s : publish_s.measured) ms.push_back(s * 1e3);
  const Tail tail = TailOf(ms);
  RunReport& r = *ctx.report;
  r.Set("setup_s", Median(setup_s.AtNominalSpeed()), "s");
  r.Set("latency_p50_nominal_ms", publish * 1e3, "ms");
  r.Set("throughput_nominal_per_s", static_cast<double>(cells) / publish, "1/s");
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  r.Set("snapshot_bytes_per_cell",
        static_cast<double>(snapshot_bytes) / static_cast<double>(cells),
        "bytes");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "publishes: %zu timed; measured: publish median %.4f s, tail "
                "p%.1f %.4f s, setup median %.4f s",
                publish_s.measured.size(), Median(publish_s.measured),
                tail.percentile, tail.value * 1e-3, Median(setup_s.measured));
  ctx.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "compute reference: median %.2f ms before publishes, %.2f ms "
                "before set-ups (nominal %.1f ms)",
                Median(publish_s.reference_ms), Median(setup_s.reference_ms),
                publish_s.nominal_ms);
  ctx.notes.push_back(buf);
}

}  // namespace

data::CensusConfig CensusConfigFor(std::uint64_t seed) {
  data::CensusConfig config;
  config.country = data::CensusCountry::kBrazil;
  config.num_tuples = 1'000'000;
  config.income_domain = 32;
  config.seed = seed;
  return config;
}

query::PublishingSession PublishCsvToSnapshot(
    RunContext& ctx, Tracer& tracer, const std::string& csv,
    const data::Schema& schema, std::uint64_t noise_seed,
    const std::string& snapshot, matrix::FrequencyMatrix* exact,
    std::uint64_t parent) {
  std::optional<query::PublishingSession> session;
  std::uint64_t root_span = 0;
  std::uint64_t mechanism_span = 0;
  {
    ScopedSpan root(tracer, "publish", parent);
    root_span = root.id();
    const data::Table table = [&] {
      ScopedSpan span(tracer, "data.read_csv", root_span);
      return Must(data::ReadCsv(csv, schema), "ReadCsv " + csv);
    }();
    {
      ScopedSpan span(tracer, "matrix.from_table", root_span);
      *exact = matrix::FrequencyMatrix::FromTable(table);
    }
    session.emplace(PublishSession(tracer, schema, *exact, noise_seed,
                                   root_span, &mechanism_span));
    SaveRelease(ctx, tracer, *session, snapshot, root_span);
  }
  if (tracer.enabled()) {
    ctx.traced_publish_ms.push_back(tracer.span(root_span).micros() * 1e-3);
    TraceTransforms(ctx, schema, *exact, mechanism_span);
  }
  return std::move(*session);
}

double MseOverPredicted(const data::Schema& schema,
                        const matrix::FrequencyMatrix& exact,
                        const query::PublishingSession& release,
                        std::uint64_t seed, privelet::common::ThreadPool* pool) {
  const auto queries =
      Must(query::GenerateWorkload(schema, {kCheckQueries, 1, 4, seed}),
           "GenerateWorkload");
  const auto truth = Must(query::PublishingSession::FromMatrix(schema, exact, pool),
                          "FromMatrix");
  const std::vector<double> want = truth.AnswerAll(queries);
  const std::vector<double> got = release.AnswerAll(queries);
  const auto transform =
      Must(wavelet::HnTransform::Create(schema), "HnTransform::Create");
  const double lambda = Must(
      mechanism::PriveletMechanism().LaplaceMagnitude(schema, kEpsilon),
      "LaplaceMagnitude");
  double sum = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double variance = Must(
        privelet::analysis::ExactQueryNoiseVariance(transform, schema, lambda,
                                                    queries[i]),
        "ExactQueryNoiseVariance");
    const double err = got[i] - want[i];
    sum += err * err / variance;
  }
  return sum / static_cast<double>(queries.size());
}

void CheckNoise(RunContext& ctx, const data::Schema& schema,
                const matrix::FrequencyMatrix& exact,
                const query::PublishingSession& release) {
  const double ratio =
      MseOverPredicted(schema, exact, release, ctx.seed + 29, nullptr);
  char buf[96];
  std::snprintf(buf, sizeof buf, "noise guard: mse/predicted = %.4f", ratio);
  ctx.notes.push_back(buf);
  ctx.report->Check(NoiseGuardOk(ratio), buf);
  ctx.report->Set("mechanism.mse_over_predicted", ratio, "ratio");
}

query::PublishingSession MapRelease(RunContext& ctx, const std::string& path) {
  std::optional<query::PublishingSession> session;
  for (int i = 0; i < 3; ++i) {
    session.reset();
    const std::uint64_t start = NowNs();
    {
      ScopedSpan span(*ctx.tracer, "storage.map_session");
      session.emplace(Must(storage::MapSession(path, nullptr), "MapSession"));
    }
    ctx.map_open_ms.push_back(SecondsSince(start) * 1e3);
  }
  return std::move(*session);
}

void RunPublishCsv(RunContext& ctx) {
  const std::string csv = ctx.work_dir + "/census.csv";
  const std::string snapshot = ctx.work_dir + "/census.pvls";
  const auto schema = Must(
      data::MakeCensusSchema(data::CensusCountry::kBrazil,
                             CensusConfigFor(ctx.seed).income_domain),
      "MakeCensusSchema");

  const HostReference reference = ComputeReference();
  ReferencedTimes setup_s{reference.nominal_ms};
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double reference_ms = reference.run();
    const std::uint64_t start = NowNs();
    ScopedSpan span(*ctx.tracer, "setup");
    const auto table =
        Must(data::GenerateCensus(CensusConfigFor(ctx.seed)), "GenerateCensus");
    Must(data::WriteCsv(csv, table), "WriteCsv");
    setup_s.Add(SecondsSince(start), reference_ms);
  }

  // Warm-up publish (allocator, page cache), then the timed loop, with the
  // compute reference run before each untraced publish. A traced run
  // alternates traced and untraced publishes; the difference of their
  // medians is the tracing overhead.
  matrix::FrequencyMatrix exact;
  std::optional<query::PublishingSession> session;
  session.emplace(PublishCsvToSnapshot(ctx, *ctx.untraced, csv, schema,
                                       ctx.seed, snapshot, &exact));
  ReferencedTimes publish_s{reference.nominal_ms};
  const std::uint64_t start = NowNs();
  for (std::uint64_t i = 1;
       SecondsSince(start) < ctx.seconds || publish_s.measured.size() < 3; ++i) {
    const bool traced = ctx.tracer->enabled() && i % 2 == 0;
    session.reset();
    const double reference_ms = traced ? 0.0 : reference.run();
    const std::uint64_t t0 = NowNs();
    session.emplace(PublishCsvToSnapshot(ctx, traced ? *ctx.tracer : *ctx.untraced,
                                         csv, schema, ctx.seed * 1000 + i,
                                         snapshot, &exact));
    ctx.report->Check(true, "publish");
    if (!traced) publish_s.Add(SecondsSince(t0), reference_ms);
  }
  for (const double s : publish_s.measured) ctx.untraced_publish_ms.push_back(s * 1e3);
  ReportPublishE2e(ctx, setup_s, publish_s, exact.size(), FileSize(snapshot));

  // publish -> snapshot -> serve: the mapped snapshot answers exactly like
  // the in-memory release, the noise is what Privelet promises, and the
  // daemon serves the file bit-for-bit.
  const query::PublishingSession mapped = MapRelease(ctx, snapshot);
  CheckSameAnswers(ctx, schema, *session, mapped, "mapped snapshot");
  CheckNoise(ctx, schema, exact, *session);
  session.reset();
  VerifyServing(ctx, snapshot);
}

void RunPublishInMemory(RunContext& ctx) {
  const std::string csv = ctx.work_dir + "/grid.csv";
  const std::string snapshot = ctx.work_dir + "/grid.pvls";
  const data::Schema schema({data::Attribute::Ordinal("x", kInMemorySide),
                             data::Attribute::Ordinal("y", kInMemorySide)});

  // Set-up loads the input the CLI way (CSV -> FromTable); the timed
  // publishes then start from the cube held in memory.
  const HostReference reference = ComputeReference();
  ReferencedTimes setup_s{reference.nominal_ms};
  matrix::FrequencyMatrix exact;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double reference_ms = reference.run();
    const std::uint64_t start = NowNs();
    ScopedSpan setup(*ctx.tracer, "setup");
    {
      const auto table = Must(
          data::GenerateUniformTable(schema, kInMemoryTuples, ctx.seed),
          "GenerateUniformTable");
      Must(data::WriteCsv(csv, table), "WriteCsv");
    }
    const data::Table table = [&] {
      ScopedSpan span(*ctx.tracer, "data.read_csv", setup.id());
      return Must(data::ReadCsv(csv, schema), "ReadCsv");
    }();
    ScopedSpan span(*ctx.tracer, "matrix.from_table", setup.id());
    exact = matrix::FrequencyMatrix::FromTable(table);
    setup_s.Add(SecondsSince(start), reference_ms);
  }

  std::optional<query::PublishingSession> session;
  std::uint64_t mechanism_span = 0;
  session.emplace(PublishSession(*ctx.untraced, schema, exact, ctx.seed,
                                 0, &mechanism_span));
  ReferencedTimes publish_s{reference.nominal_ms};
  const std::uint64_t start = NowNs();
  for (std::uint64_t i = 1;
       SecondsSince(start) < ctx.seconds || publish_s.measured.size() < 3; ++i) {
    const bool traced = ctx.tracer->enabled() && i % 2 == 0;
    Tracer& tracer = traced ? *ctx.tracer : *ctx.untraced;
    session.reset();
    const double reference_ms = traced ? 0.0 : reference.run();
    const std::uint64_t t0 = NowNs();
    {
      ScopedSpan root(tracer, "publish");
      session.emplace(PublishSession(tracer, schema, exact,
                                     ctx.seed * 1000 + i, root.id(),
                                     &mechanism_span));
    }
    const double seconds = SecondsSince(t0);
    ctx.report->Check(true, "publish");
    if (traced) {
      ctx.traced_publish_ms.push_back(seconds * 1e3);
      TraceTransforms(ctx, schema, exact, mechanism_span);
    } else {
      publish_s.Add(seconds, reference_ms);
    }
  }
  for (const double s : publish_s.measured) ctx.untraced_publish_ms.push_back(s * 1e3);

  // The timed path writes no file; the check below saves the last release
  // once so it can be mapped and served.
  SaveRelease(ctx, *ctx.tracer, *session, snapshot, 0);
  ReportPublishE2e(ctx, setup_s, publish_s, exact.size(), FileSize(snapshot));
  const query::PublishingSession mapped = MapRelease(ctx, snapshot);
  CheckSameAnswers(ctx, schema, *session, mapped, "mapped snapshot");
  CheckNoise(ctx, schema, exact, *session);
  session.reset();
  VerifyServing(ctx, snapshot);
}

void ReportPublishLayers(RunContext& ctx) {
  const std::vector<Span>& spans = ctx.tracer->spans();
  std::map<std::uint64_t, std::vector<std::uint64_t>> children;
  std::map<std::string, std::vector<double>> ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    children[spans[i].parent].push_back(i + 1);
    ms[spans[i].name].push_back(spans[i].micros() * 1e-3);
  }
  const auto dur_ms = [&](std::uint64_t id) {
    return ctx.tracer->span(id).micros() * 1e-3;
  };
  const auto named = [&](std::uint64_t id) {
    return std::string(ctx.tracer->span(id).name);
  };
  std::vector<double> prefix, noise, unattributed;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t id = i + 1;
    const std::string name = spans[i].name;
    if (name == "publish") {
      double sum = 0.0;
      for (const std::uint64_t c : children[id]) {
        sum += dur_ms(c);
        std::string stage = named(c);
        if (stage == "query.session_publish") {
          ctx.publish_path_stages.insert("mechanism.publish");
          stage = "matrix.prefix_build";
        }
        ctx.publish_path_stages.insert(stage);
      }
      unattributed.push_back(dur_ms(id) - sum);
    } else if (name == "query.session_publish") {
      for (const std::uint64_t c : children[id]) {
        if (named(c) == "mechanism.publish") prefix.push_back(dur_ms(id) - dur_ms(c));
      }
    } else if (name == "mechanism.publish") {
      double transforms = 0.0;
      int found = 0;
      for (const std::uint64_t c : children[id]) {
        if (named(c).rfind("wavelet.", 0) == 0) {
          transforms += dur_ms(c);
          ++found;
        }
      }
      if (found == 2) noise.push_back(dur_ms(id) - transforms);
    }
  }
  RunReport& r = *ctx.report;
  r.Set("data.read_csv_ms", Median(ms["data.read_csv"]), "ms");
  r.Set("matrix.from_table_ms", Median(ms["matrix.from_table"]), "ms");
  r.Set("wavelet.forward_ms", Median(ms["wavelet.forward"]), "ms");
  r.Set("wavelet.inverse_ms", Median(ms["wavelet.inverse"]), "ms");
  r.Set("mechanism.publish_ms", Median(ms["mechanism.publish"]), "ms");
  r.Set("mechanism.noise_ms", Median(noise), "ms");
  r.Set("matrix.prefix_build_ms", Median(prefix), "ms");
  r.Set("storage.save_ms", Median(ms["storage.save"]), "ms");
  r.Set("storage.write_mb_per_s", Median(ctx.save_mb_per_s), "MiB/s");
  r.Set("storage.map_open_ms", Median(ctx.map_open_ms), "ms");
  r.Set("publish.traced_total_ms", Median(ctx.traced_publish_ms), "ms");
  r.Set("publish.unattributed_ms", Median(unattributed), "ms");
  r.Set("publish.trace_overhead_ms",
        Median(ctx.traced_publish_ms) - Median(ctx.untraced_publish_ms), "ms");
}

}  // namespace perfbench

// privelet_cli — the operational entry point of the library: publish a
// differentially-private release once, persist it as a PVLS snapshot,
// then serve range-count workloads from the snapshot without ever
// re-publishing (the paper's publish-once / query-forever model,
// conf_icde_XiaoWG10). See docs/ARCHITECTURE.md for the dataflow and the
// README quickstart for a three-command tour.
//
//   privelet_cli gen      synthetic/census table -> CSV + schema spec
//   privelet_cli plan     schema + workload -> ranked mechanism choice
//   privelet_cli publish  CSV or generated table -> snapshot (.pvls)
//   privelet_cli inspect  snapshot -> metadata summary (validates CRC)
//   privelet_cli query    snapshot + workload -> one answer per line
//   privelet_cli daemon   TCP serving daemon over a ReleaseStore
//   privelet_cli client   line client for the daemon's text protocol
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "privelet/analysis/mechanism_planner.h"
#include "privelet/common/result.h"
#include "privelet/common/stopwatch.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/census_generator.h"
#include "privelet/data/csv.h"
#include "privelet/data/synthetic_generator.h"
#include "privelet/data/table.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/hay.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/common/io_util.h"
#include "privelet/query/plan_record.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/release_store.h"
#include "privelet/query/workload.h"
#include "privelet/serving/protocol.h"
#include "privelet/serving/server.h"
#include "privelet/simd/dispatch.h"
#include "privelet/storage/session_io.h"
#include "privelet/storage/snapshot.h"
#include "privelet_cli/schema_spec.h"
#include "privelet_cli/workload_io.h"

namespace privelet::cli {
namespace {

constexpr const char kUsage[] = R"(privelet_cli — publish, persist, and serve DP range-count releases

usage:
  privelet_cli gen     (--synthetic M | --census brazil|us) [--tuples N]
                       [--data-seed S] --csv-out FILE --schema-out FILE
  privelet_cli plan    --schema FILE (--workload FILE | --random N
                       [--workload-seed S]) [--epsilon E]
  privelet_cli publish (--csv FILE --schema FILE | --synthetic M | --census
                       brazil|us) [--tuples N] [--data-seed S]
                       [--mechanism basic|privelet|privelet+|hay] [--sa A,B]
                       [--auto-plan (--workload FILE | --random N
                       [--workload-seed S])]
                       [--epsilon E] [--seed S] [--threads N]
                       [--max-memory BYTES[K|M|G]] [--scratch-dir DIR]
                       --output FILE.pvls
  privelet_cli inspect FILE.pvls
  privelet_cli query   FILE.pvls (--workload FILE | --random N
                       [--workload-seed S] [--dump-workload FILE])
                       [--threads N] [--output FILE]
  privelet_cli daemon  ID=FILE.pvls [ID=FILE.pvls ...] [--host H] [--port P]
                       [--port-file FILE] [--threads N] [--loops N]
                       [--backlog K] [--max-resident K]
                       [--max-connections K] [--max-pipeline K]
  privelet_cli client  --port P [--host H] [--requests FILE]
                       [--connections N]

daemon serves the named releases over TCP (text + binary protocol, see
src/privelet/serving/protocol.h): verbs QUERY/BATCH/RELOAD/STATS/IDS/
PING/QUIT, one `ok <n>`-or-`error:` response per request. Releases are
memory-mapped lazily on first use; --max-resident K keeps at most K
resident (LRU). --port 0 (the default) binds an ephemeral port; the bound
port is printed as `listening on H:P` and written to --port-file when
given. --loops N runs N sharded event loops (0, the default, means one
per hardware thread). SIGINT/SIGTERM shut the daemon down cleanly.
client connects to a daemon, forwards stdin (or --requests) lines, and
prints each response; --connections N spreads the requests round-robin
over N connections (responses stay in request order).

plan scores every applicable mechanism against a representative workload
by exact expected per-query noise variance — a closed-form, data-free
computation that costs no privacy budget — and prints the ranking plus
the chosen (cheapest publishable) candidate. publish --auto-plan runs
the same planner, publishes under the winner, and records the decision
in the snapshot's plan section (inspect prints it, the daemon's STATS
reports it).

A snapshot (PVLS v4) holds the schema, epsilon, the optional plan and
the release's prefix-sum table; neither the noisy matrix nor the noise
seed is written. Files of PVLS v1-v3 are rejected; re-publish them.

--max-memory B publishes out of core: the input cube, every transform
pass and the release live in unlinked mmap scratch files (--scratch-dir,
default $TMPDIR) and are streamed into the snapshot, so peak memory is
paced by B instead of the release size. Only the Privelet mechanisms
stream their passes; basic and hay release in core (publish prints the
mode that ran). The snapshot bytes are identical to an in-core publish
of the same release.

defaults: --tuples 100000, --data-seed 42, --mechanism privelet,
          --epsilon 1.0, --seed 7, --threads <hardware> (0 = serial,
          at most 1024),
          --workload-seed 7, --max-resident 0 (unbounded),
          --max-memory 0 (in-core), --output - (stdout for query)
)";

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& dflt) const {
    auto it = flags.find(name);
    return it == flags.end() ? dflt : it->second;
  }
};

// Flags that never take a value.
const std::set<std::string>& BooleanFlags() {
  static const std::set<std::string> kBooleans = {"help", "auto-plan"};
  return kBooleans;
}

Result<Args> ParseArgs(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      args.flags[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    if (BooleanFlags().count(token) > 0) {
      args.flags[token] = "true";
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + token + " needs a value");
    }
    args.flags[token] = argv[++i];
  }
  return args;
}

// Flags are how the operator states the privacy parameters, so a typo'd
// flag must never fall back to a default silently — every subcommand
// declares its flag set and anything else is an error.
Status RejectUnknownFlags(const Args& args,
                          const std::set<std::string>& allowed) {
  for (const auto& [name, value] : args.flags) {
    if (name != "help" && allowed.count(name) == 0) {
      return Status::InvalidArgument("unknown flag --" + name +
                                     " (see privelet_cli help)");
    }
  }
  return Status::OK();
}

// Strictly digits: std::stoull alone would silently accept (and wrap)
// signed input like "-1", and counts/seeds are exact operator inputs —
// a garbled value must never reach the mechanism.
Result<std::size_t> ParseCountToken(const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("'" + text + "' is not a count");
  }
  std::size_t value = 0;
  std::size_t pos = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (...) {
    pos = std::string::npos;
  }
  if (pos != text.size()) {
    return Status::InvalidArgument("'" + text + "' is not a count");
  }
  return value;
}

Result<std::size_t> GetCount(const Args& args, const std::string& name,
                             std::size_t dflt) {
  if (!args.Has(name)) return dflt;
  auto value = ParseCountToken(args.Get(name, ""));
  if (!value.ok()) {
    return Status::InvalidArgument("--" + name + ": " +
                                   value.status().message());
  }
  return value;
}

Result<double> GetDouble(const Args& args, const std::string& name,
                         double dflt) {
  if (!args.Has(name)) return dflt;
  const std::string text = args.Get(name, "");
  double value = 0.0;
  std::size_t pos = 0;
  try {
    value = std::stod(text, &pos);
  } catch (...) {
    pos = std::string::npos;
  }
  if (pos != text.size()) {
    return Status::InvalidArgument("--" + name + ": '" + text +
                                   "' is not a number");
  }
  return value;
}

// "64M"-style byte sizes for --max-memory: strict digits with an
// optional K/M/G binary suffix (case-insensitive).
Result<std::size_t> GetByteSize(const Args& args, const std::string& name,
                                std::size_t dflt) {
  if (!args.Has(name)) return dflt;
  std::string text = args.Get(name, "");
  std::size_t multiplier = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'K': case 'k': multiplier = std::size_t{1} << 10; break;
      case 'M': case 'm': multiplier = std::size_t{1} << 20; break;
      case 'G': case 'g': multiplier = std::size_t{1} << 30; break;
      default: break;
    }
    if (multiplier != 1) text.pop_back();
  }
  const Status bad = Status::InvalidArgument(
      "--" + name + ": '" + args.Get(name, "") +
      "' is not a byte size (digits with optional K/M/G suffix)");
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return bad;
  }
  std::size_t value = 0;
  std::size_t pos = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (...) {
    pos = std::string::npos;
  }
  if (pos != text.size()) return bad;
  if (value > std::numeric_limits<std::size_t>::max() / multiplier) {
    return Status::InvalidArgument("--" + name + ": byte size overflows");
  }
  return value * multiplier;
}

Result<matrix::EngineOptions> GetEngineOptions(const Args& args) {
  matrix::EngineOptions options;
  PRIVELET_ASSIGN_OR_RETURN(options.max_memory_bytes,
                            GetByteSize(args, "max-memory", 0));
  options.scratch_dir = args.Get("scratch-dir", "");
  if (!options.out_of_core() && !options.scratch_dir.empty()) {
    return Status::InvalidArgument("--scratch-dir requires --max-memory");
  }
  return options;
}

// nullptr (serial) when --threads 0. The bound is checked before the pool
// starts any thread: a mistyped count must not start millions of them.
Result<std::unique_ptr<common::ThreadPool>> GetPool(const Args& args) {
  PRIVELET_ASSIGN_OR_RETURN(
      std::size_t threads,
      GetCount(args, "threads", common::ThreadPool::DefaultThreadCount()));
  if (threads > 1024) {
    return Status::InvalidArgument("--threads must be in [0, 1024]");
  }
  if (threads == 0) return std::unique_ptr<common::ThreadPool>();
  return std::make_unique<common::ThreadPool>(threads);
}

Result<std::unique_ptr<mechanism::Mechanism>> MakeMechanism(const Args& args) {
  const std::string name = args.Get("mechanism", "privelet");
  if (name == "basic") {
    return std::unique_ptr<mechanism::Mechanism>(
        std::make_unique<mechanism::BasicMechanism>());
  }
  if (name == "hay") {
    return std::unique_ptr<mechanism::Mechanism>(
        std::make_unique<mechanism::HayHierarchicalMechanism>());
  }
  if (name == "privelet" || name == "privelet+") {
    std::vector<std::string> sa;
    const std::string sa_csv = args.Get("sa", "");
    for (std::size_t begin = 0; begin < sa_csv.size();) {
      const std::size_t comma = sa_csv.find(',', begin);
      const std::size_t end = comma == std::string::npos ? sa_csv.size() : comma;
      if (end > begin) sa.push_back(sa_csv.substr(begin, end - begin));
      begin = end + 1;
    }
    if (name == "privelet+" && sa.empty()) {
      return Status::InvalidArgument(
          "--mechanism privelet+ needs --sa with at least one attribute");
    }
    if (name == "privelet" && !sa.empty()) {
      return Status::InvalidArgument("--sa requires --mechanism privelet+");
    }
    return std::unique_ptr<mechanism::Mechanism>(
        std::make_unique<mechanism::PriveletPlusMechanism>(std::move(sa)));
  }
  return Status::InvalidArgument("unknown mechanism '" + name +
                                 "' (basic|privelet|privelet+|hay)");
}

// Shared by gen and publish: materializes the input table from --csv,
// --synthetic, or --census.
Result<data::Table> MakeInputTable(const Args& args) {
  const int sources = static_cast<int>(args.Has("csv")) +
                      static_cast<int>(args.Has("synthetic")) +
                      static_cast<int>(args.Has("census"));
  if (sources != 1) {
    return Status::InvalidArgument(
        "exactly one input source required: --csv, --synthetic, or --census");
  }
  PRIVELET_ASSIGN_OR_RETURN(std::size_t tuples,
                            GetCount(args, "tuples", 100'000));
  PRIVELET_ASSIGN_OR_RETURN(std::size_t data_seed,
                            GetCount(args, "data-seed", 42));
  if (args.Has("csv")) {
    if (!args.Has("schema")) {
      return Status::InvalidArgument("--csv needs --schema FILE");
    }
    PRIVELET_ASSIGN_OR_RETURN(data::Schema schema,
                              ReadSchemaSpecFile(args.Get("schema", "")));
    return data::ReadCsv(args.Get("csv", ""), schema);
  }
  if (args.Has("synthetic")) {
    PRIVELET_ASSIGN_OR_RETURN(std::size_t domain,
                              GetCount(args, "synthetic", 0));
    PRIVELET_ASSIGN_OR_RETURN(data::Schema schema,
                              data::MakeScalabilitySchema(domain));
    return data::GenerateUniformTable(schema, tuples, data_seed);
  }
  const std::string country = args.Get("census", "");
  data::CensusConfig config = data::DefaultCensusConfig(
      country == "us" ? data::CensusCountry::kUS
                      : data::CensusCountry::kBrazil);
  if (country != "us" && country != "brazil") {
    return Status::InvalidArgument("--census must be brazil or us");
  }
  config.num_tuples = tuples;
  config.seed = data_seed;
  return data::GenerateCensus(config);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "privelet_cli: %s\n", status.ToString().c_str());
  return 2;
}

// The planning workload (shared by plan and publish --auto-plan): either
// a workload file validated against the schema or a deterministic
// generated one — exactly the query sources `query` accepts.
Result<std::vector<query::RangeQuery>> MakePlanningWorkload(
    const Args& args, const data::Schema& schema) {
  if (args.Has("workload") == args.Has("random")) {
    return Status::InvalidArgument(
        "planning needs exactly one of --workload FILE or --random N");
  }
  if (args.Has("workload")) {
    return ReadWorkloadFile(args.Get("workload", ""), schema);
  }
  query::WorkloadOptions options;
  PRIVELET_ASSIGN_OR_RETURN(options.num_queries, GetCount(args, "random", 0));
  PRIVELET_ASSIGN_OR_RETURN(options.seed, GetCount(args, "workload-seed", 7));
  if (options.num_queries == 0) {
    return Status::InvalidArgument("--random must be >= 1");
  }
  return query::GenerateWorkload(schema, options);
}

// The mechanism behind a planner candidate id. Only publishable
// candidates reach this (the planner never chooses rank-only ones), and
// every publishable id maps onto the mechanisms the publish pipeline
// already supports.
std::unique_ptr<mechanism::Mechanism> MechanismForCandidate(
    const analysis::MechanismCandidate& candidate) {
  if (candidate.id == "basic") {
    return std::make_unique<mechanism::BasicMechanism>();
  }
  if (candidate.id == "hay") {
    return std::make_unique<mechanism::HayHierarchicalMechanism>();
  }
  return std::make_unique<mechanism::PriveletPlusMechanism>(
      candidate.sa_names);
}

// %.17g everywhere: plan output is diffed by the e2e test, and exact
// round-tripping makes predicted variances comparable across runs.
void PrintPlan(std::FILE* out, const analysis::MechanismPlan& plan) {
  for (std::size_t i = 0; i < plan.ranked.size(); ++i) {
    const analysis::MechanismCandidate& c = plan.ranked[i];
    std::fprintf(out, "rank %zu: %s expected_variance=%.17g%s\n", i + 1,
                 c.id.c_str(), c.expected_variance,
                 c.publishable ? "" : " (rank-only)");
  }
  std::fprintf(out, "chosen: %s predicted_variance=%.17g over %zu queries\n",
               plan.chosen.id.c_str(), plan.chosen.expected_variance,
               plan.workload_queries);
}

// ID=FILE.pvls release specs for the daemon.
Status RegisterReleases(const std::vector<std::string>& specs,
                        query::ReleaseStore* store) {
  for (const std::string& spec : specs) {
    const std::size_t eq = spec.find('=');
    if (eq == 0 || eq == std::string::npos || eq + 1 == spec.size()) {
      return Status::InvalidArgument("release spec '" + spec +
                                     "' is not ID=FILE.pvls");
    }
    PRIVELET_RETURN_IF_ERROR(
        store->Register(spec.substr(0, eq), spec.substr(eq + 1)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

int RunGen(const Args& args) {
  Status flags = RejectUnknownFlags(
      args, {"synthetic", "census", "tuples", "data-seed", "csv-out",
             "schema-out", "csv"});
  if (!flags.ok()) return Fail(flags);
  if (!args.Has("csv-out") || !args.Has("schema-out")) {
    return Fail(Status::InvalidArgument(
        "gen needs --csv-out FILE and --schema-out FILE"));
  }
  if (args.Has("csv")) {
    return Fail(Status::InvalidArgument(
        "gen generates data; --csv is a publish input (use --csv-out)"));
  }
  auto table = MakeInputTable(args);
  if (!table.ok()) return Fail(table.status());
  const std::string csv_path = args.Get("csv-out", "");
  Status st = data::WriteCsv(csv_path, *table);
  if (!st.ok()) return Fail(st);
  st = WriteSchemaSpecFile(args.Get("schema-out", ""), table->schema());
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu rows x %zu attributes to %s (schema spec: %s)\n",
              table->num_rows(), table->num_columns(), csv_path.c_str(),
              args.Get("schema-out", "").c_str());
  return 0;
}

// plan: the decision procedure without a publish — schema in, ranking
// out. Data-free by construction (the variance models are closed-form),
// so it takes a schema spec, never a table.
int RunPlan(const Args& args) {
  Status flags = RejectUnknownFlags(
      args, {"schema", "workload", "random", "workload-seed", "epsilon"});
  if (!flags.ok()) return Fail(flags);
  if (!args.Has("schema")) {
    return Fail(Status::InvalidArgument("plan needs --schema FILE"));
  }
  auto schema = ReadSchemaSpecFile(args.Get("schema", ""));
  if (!schema.ok()) return Fail(schema.status());
  auto epsilon = GetDouble(args, "epsilon", 1.0);
  if (!epsilon.ok()) return Fail(epsilon.status());
  if (!std::isfinite(*epsilon) || *epsilon <= 0.0) {
    return Fail(Status::InvalidArgument(
        "--epsilon must be a finite value > 0 (got '" +
        args.Get("epsilon", "1.0") + "')"));
  }
  auto workload = MakePlanningWorkload(args, *schema);
  if (!workload.ok()) return Fail(workload.status());
  auto plan =
      analysis::PlanMechanismForWorkload(*schema, *workload, *epsilon);
  if (!plan.ok()) return Fail(plan.status());
  PrintPlan(stdout, *plan);
  return 0;
}

int RunPublish(const Args& args) {
  Status flags = RejectUnknownFlags(
      args, {"csv", "schema", "synthetic", "census", "tuples", "data-seed",
             "mechanism", "sa", "epsilon", "seed", "threads", "max-memory",
             "scratch-dir", "output", "auto-plan", "workload", "random",
             "workload-seed"});
  if (!flags.ok()) return Fail(flags);
  if (!args.Has("output")) {
    return Fail(Status::InvalidArgument("publish needs --output FILE.pvls"));
  }
  const bool auto_plan = args.Has("auto-plan");
  if (!auto_plan &&
      (args.Has("workload") || args.Has("random") ||
       args.Has("workload-seed"))) {
    return Fail(Status::InvalidArgument(
        "--workload/--random/--workload-seed are planning inputs and "
        "require --auto-plan"));
  }
  if (auto_plan && (args.Has("mechanism") || args.Has("sa"))) {
    return Fail(Status::InvalidArgument(
        "--auto-plan picks the mechanism; it cannot be combined with "
        "--mechanism or --sa"));
  }
  auto table = MakeInputTable(args);
  if (!table.ok()) return Fail(table.status());
  auto mech = MakeMechanism(args);
  if (!mech.ok()) return Fail(mech.status());
  auto epsilon = GetDouble(args, "epsilon", 1.0);
  if (!epsilon.ok()) return Fail(epsilon.status());
  // The privacy guarantee is meaningless (and the Laplace scale ill-
  // defined) outside (0, inf); reject before anything reaches the
  // mechanism. std::stod parses "nan"/"inf", so finiteness is checked
  // explicitly.
  if (!std::isfinite(*epsilon) || *epsilon <= 0.0) {
    return Fail(Status::InvalidArgument(
        "--epsilon must be a finite value > 0 (got '" +
        args.Get("epsilon", "1.0") + "')"));
  }
  auto seed = GetCount(args, "seed", 7);
  if (!seed.ok()) return Fail(seed.status());
  auto options = GetEngineOptions(args);
  if (!options.ok()) return Fail(options.status());
  auto pool = GetPool(args);
  if (!pool.ok()) return Fail(pool.status());

  // --auto-plan: score every applicable mechanism on the planning
  // workload and publish under the winner; the decision rides into the
  // snapshot's plan section as provenance.
  std::optional<analysis::MechanismPlan> plan;
  std::optional<query::PlanRecord> plan_record;
  if (auto_plan) {
    auto workload = MakePlanningWorkload(args, table->schema());
    if (!workload.ok()) return Fail(workload.status());
    auto planned = analysis::PlanMechanismForWorkload(table->schema(),
                                                      *workload, *epsilon);
    if (!planned.ok()) return Fail(planned.status());
    plan = std::move(*planned);
    plan_record = plan->ToRecord();
    *mech = MechanismForCandidate(plan->chosen);
  }

  // With --max-memory the input cube is scratch-backed and records the
  // budget; every later stage (transform passes, prefix build, save)
  // follows it.
  auto m = matrix::FrequencyMatrix::FromTable(*table, *options);
  if (!m.ok()) return Fail(m.status());
  const std::size_t cells = m->size();
  (*mech)->set_thread_pool(pool->get());

  const std::string output = args.Get("output", "");
  Stopwatch publish_watch;
  auto session = query::PublishingSession::Publish(
      table->schema(), **mech, *m, *epsilon, *seed, pool->get());
  if (!session.ok()) return Fail(session.status());
  *m = matrix::FrequencyMatrix();  // drop the input before the save
  if (plan_record.has_value()) session->set_plan(std::move(*plan_record));
  Status saved = storage::SaveSession(output, *session);
  if (!saved.ok()) return Fail(saved);
  const double publish_seconds = publish_watch.ElapsedSeconds();

  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(output, ec);
  std::printf(
      "published %s: n=%zu tuples, m=%zu cells, epsilon=%g\n"
      "snapshot %s: %ju bytes (publish and save %.3fs)\n",
      std::string((*mech)->name()).c_str(), table->num_rows(), cells,
      *epsilon, output.c_str(), ec ? static_cast<std::uintmax_t>(0) : bytes,
      publish_seconds);
  // The mode that ran, not the one asked for: Basic and Hay release an
  // owned matrix even from a scratch-backed input.
  const matrix::PrefixSumTable& released = session->prefix_table();
  if (released.is_scratch()) {
    std::printf("publish mode: streamed (max-memory %zu bytes)\n",
                released.budget().max_memory_bytes);
  } else {
    std::printf("publish mode: in-core\n");
  }
  std::printf("kernels:      %s dispatch (host best %s)\n",
              std::string(simd::IsaLevelName(simd::ResolveIsa())).c_str(),
              std::string(simd::IsaLevelName(simd::DetectBestIsa())).c_str());
  if (plan.has_value()) PrintPlan(stdout, *plan);
  return 0;
}

int RunInspect(const Args& args) {
  Status flags = RejectUnknownFlags(args, {});
  if (!flags.ok()) return Fail(flags);
  if (args.positional.size() != 1) {
    return Fail(Status::InvalidArgument("inspect takes one snapshot path"));
  }
  auto info = storage::InspectSnapshot(args.positional[0]);
  if (!info.ok()) return Fail(info.status());
  std::printf("snapshot:     %s (%ju bytes, PVLS v%u, CRC OK)\n",
              args.positional[0].c_str(),
              static_cast<std::uintmax_t>(info->file_bytes),
              static_cast<unsigned>(info->version));
  std::printf("mechanism:    %s\n", info->mechanism.empty()
                                        ? "(unknown)"
                                        : info->mechanism.c_str());
  std::printf("epsilon:      %g\n", info->epsilon);
  std::printf("cells:        %zu\n", info->num_cells);
  std::printf("table:        offset %ju, %ju bytes (f64 prefix sums)\n",
              static_cast<std::uintmax_t>(info->table_offset),
              static_cast<std::uintmax_t>(info->table_bytes));
  // Streamed (out-of-core) and in-core publishes of the same release
  // produce byte-identical snapshots, so the file cannot (and need not)
  // record which path wrote it — only the publishing process knows.
  std::printf(
      "publish mode: not recorded (streamed and in-core snapshots are "
      "byte-identical)\n");
  if (info->plan.has_value()) {
    const query::PlanRecord& plan = *info->plan;
    std::printf("plan chosen:  %s predicted_variance=%.17g\n",
                plan.chosen.c_str(), plan.predicted_variance);
    std::printf("plan against: %s runner_up_variance=%.17g\n",
                plan.runner_up.empty() ? "-" : plan.runner_up.c_str(),
                plan.runner_up_variance);
    std::printf("plan queries: %lu\n",
                static_cast<unsigned long>(plan.workload_queries));
  } else {
    std::printf("plan:         none (published without --auto-plan)\n");
  }
  for (std::size_t a = 0; a < info->schema.num_attributes(); ++a) {
    const data::Attribute& attr = info->schema.attribute(a);
    if (attr.is_ordinal()) {
      std::printf("attribute:    %s ordinal |A|=%zu\n", attr.name().c_str(),
                  attr.domain_size());
    } else {
      std::printf("attribute:    %s nominal |A|=%zu height=%zu\n",
                  attr.name().c_str(), attr.domain_size(),
                  attr.hierarchy().height());
    }
  }
  return 0;
}

int RunQuery(const Args& args) {
  Status flags = RejectUnknownFlags(
      args, {"workload", "random", "workload-seed", "dump-workload",
             "threads", "output"});
  if (!flags.ok()) return Fail(flags);
  if (args.positional.size() != 1) {
    return Fail(Status::InvalidArgument("query takes one snapshot path"));
  }
  if (args.Has("workload") == args.Has("random")) {
    return Fail(Status::InvalidArgument(
        "query needs exactly one of --workload FILE or --random N"));
  }
  auto pool = GetPool(args);
  if (!pool.ok()) return Fail(pool.status());

  Stopwatch load_watch;
  auto session = storage::MapSession(args.positional[0], pool->get());
  if (!session.ok()) return Fail(session.status());
  const double load_seconds = load_watch.ElapsedSeconds();

  std::vector<query::RangeQuery> queries;
  if (args.Has("workload")) {
    auto parsed = ReadWorkloadFile(args.Get("workload", ""),
                                   session->schema());
    if (!parsed.ok()) return Fail(parsed.status());
    queries = std::move(*parsed);
  } else {
    query::WorkloadOptions options;
    auto count = GetCount(args, "random", 0);
    if (!count.ok()) return Fail(count.status());
    auto wseed = GetCount(args, "workload-seed", 7);
    if (!wseed.ok()) return Fail(wseed.status());
    options.num_queries = *count;
    options.seed = *wseed;
    auto generated = query::GenerateWorkload(session->schema(), options);
    if (!generated.ok()) return Fail(generated.status());
    queries = std::move(*generated);
    if (args.Has("dump-workload")) {
      Status st = WriteWorkloadFile(args.Get("dump-workload", ""),
                                    session->schema(), queries);
      if (!st.ok()) return Fail(st);
    }
  }

  Stopwatch answer_watch;
  const std::vector<double> answers = session->AnswerAll(queries);
  const double answer_seconds = answer_watch.ElapsedSeconds();

  const std::string output = args.Get("output", "-");
  std::FILE* out = stdout;
  if (output != "-") {
    out = std::fopen(output.c_str(), "w");
    if (out == nullptr) {
      return Fail(Status::IOError("cannot open '" + output + "' for writing"));
    }
  }
  // %.17g round-trips doubles exactly, so identical releases print
  // identical answer files (the CLI e2e test diffs them).
  std::string text;
  for (const double a : answers) serving::AppendAnswerLine(&text, a);
  bool write_ok = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  write_ok = write_ok && std::ferror(out) == 0;
  if (out != stdout) {
    write_ok = std::fclose(out) == 0 && write_ok;
  } else {
    write_ok = std::fflush(out) == 0 && write_ok;
  }
  if (!write_ok) {
    return Fail(Status::IOError("writing answers to '" + output + "' failed"));
  }

  std::fprintf(stderr, "answered %zu queries in %.3fs (load %.3fs)\n",
               answers.size(), answer_seconds, load_seconds);
  return 0;
}

// ---------------------------------------------------------------------------
// daemon: the epoll TCP server (src/privelet/serving/server.h) over an
// ID=FILE.pvls catalog. Shutdown() is async-signal-safe, so SIGINT/SIGTERM
// handlers call it directly.

serving::Server* g_daemon = nullptr;

extern "C" void HandleShutdownSignal(int) {
  if (g_daemon != nullptr) g_daemon->Shutdown();
}

int RunDaemon(const Args& args) {
  Status flags = RejectUnknownFlags(
      args, {"host", "port", "port-file", "threads", "loops", "backlog",
             "max-resident", "max-connections", "max-pipeline"});
  if (!flags.ok()) return Fail(flags);
  if (args.positional.empty()) {
    return Fail(Status::InvalidArgument(
        "daemon needs at least one ID=FILE.pvls release"));
  }
  auto pool = GetPool(args);
  if (!pool.ok()) return Fail(pool.status());
  auto max_resident = GetCount(args, "max-resident", 0);
  if (!max_resident.ok()) return Fail(max_resident.status());
  auto port = GetCount(args, "port", 0);
  if (!port.ok()) return Fail(port.status());
  if (*port > 65535) {
    return Fail(Status::InvalidArgument("--port must be <= 65535"));
  }

  query::ReleaseStore::Options store_options;
  store_options.max_resident = *max_resident;
  store_options.pool = pool->get();
  query::ReleaseStore store(store_options);
  Status registered = RegisterReleases(args.positional, &store);
  if (!registered.ok()) return Fail(registered);

  serving::ServerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(*port);
  auto max_connections = GetCount(args, "max-connections",
                                  options.max_connections);
  if (!max_connections.ok()) return Fail(max_connections.status());
  options.max_connections = *max_connections;
  auto max_pipeline = GetCount(args, "max-pipeline", options.max_pipeline);
  if (!max_pipeline.ok()) return Fail(max_pipeline.status());
  if (*max_pipeline == 0) {
    return Fail(Status::InvalidArgument("--max-pipeline must be >= 1"));
  }
  options.max_pipeline = *max_pipeline;
  auto loops = GetCount(args, "loops", options.num_loops);
  if (!loops.ok()) return Fail(loops.status());
  options.num_loops = *loops;  // 0 = one per hardware thread
  auto backlog = GetCount(args, "backlog",
                          static_cast<std::uint64_t>(options.backlog));
  if (!backlog.ok()) return Fail(backlog.status());
  if (*backlog == 0 || *backlog > 65535) {
    return Fail(Status::InvalidArgument("--backlog must be in [1, 65535]"));
  }
  options.backlog = static_cast<int>(*backlog);

  serving::Server server(&store, options);
  Status st = server.Start();
  if (!st.ok()) return Fail(st);

  if (args.Has("port-file")) {
    std::ofstream port_file(args.Get("port-file", ""));
    port_file << server.port() << '\n';
    port_file.flush();
    if (!port_file) {
      return Fail(Status::IOError("cannot write --port-file '" +
                                  args.Get("port-file", "") + "'"));
    }
  }
  // Parseable readiness line: tests and scripts wait for it.
  std::printf("listening on %s:%u (%u loops)\n", options.host.c_str(),
              static_cast<unsigned>(server.port()),
              static_cast<unsigned>(server.num_loops()));
  std::fflush(stdout);

  g_daemon = &server;
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  st = server.Run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_daemon = nullptr;
  if (!st.ok()) return Fail(st);

  const serving::ServerStats stats = server.stats();
  const query::ReleaseStore::Stats store_stats = store.stats();
  std::fprintf(
      stderr,
      "daemon: %llu connections (%llu dropped), %llu requests "
      "(%llu failed), %llu queries, %llu reloads; %llu loads, %llu hits, "
      "%llu evictions\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.connections_dropped),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.failures),
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.reloads),
      static_cast<unsigned long long>(store_stats.loads),
      static_cast<unsigned long long>(store_stats.hits),
      static_cast<unsigned long long>(store_stats.evictions));
  return 0;
}

// ---------------------------------------------------------------------------
// client: a blocking line client for the daemon's text protocol —
// `scripts | privelet_cli client --port P` drives a daemon without
// depending on nc/socat being installed.

#if defined(__linux__)

// Reads one '\n'-terminated line from `fd` through `buffer`. Returns
// false on EOF before any byte of a line.
Result<bool> ReadSocketLine(int fd, std::string* buffer, std::string* line) {
  while (true) {
    const std::size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buffer, 0, nl);
      buffer->erase(0, nl + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    char chunk[4096];
    ssize_t n;
    do {
      n = ::recv(fd, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return Status::IOError("recv failed: " + common::ErrnoMessage());
    }
    if (n == 0) {
      if (!buffer->empty()) {
        return Status::IOError("connection closed mid-line");
      }
      return false;
    }
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

Status SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n;
    do {
      n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      // EPIPE here means the daemon closed on us — an ordinary failure,
      // not a crash (SIGPIPE is ignored process-wide in main()).
      return Status::IOError("send failed: " + common::ErrnoMessage());
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return Status::OK();
}

/// One daemon connection with its receive buffer.
struct ClientConn {
  int fd = -1;
  std::string buffer;
};

Result<int> ConnectTo(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError("socket failed: " + common::ErrnoMessage());
  }
  // Request/response turnarounds: Nagle + delayed ACK would cost ~40ms
  // per request.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    common::CloseFd(fd);
    return Status::InvalidArgument("'" + host + "' is not an IPv4 address");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    common::CloseFd(fd);
    return Status::IOError("cannot connect to " + host + ":" +
                           std::to_string(port) + ": " +
                           common::ErrnoMessage());
  }
  return fd;
}

int RunClient(const Args& args) {
  Status flags =
      RejectUnknownFlags(args, {"host", "port", "requests", "connections"});
  if (!flags.ok()) return Fail(flags);
  if (!args.Has("port")) {
    return Fail(Status::InvalidArgument("client needs --port P"));
  }
  auto port = GetCount(args, "port", 0);
  if (!port.ok()) return Fail(port.status());
  if (*port == 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [1, 65535]"));
  }
  const std::string host = args.Get("host", "127.0.0.1");
  auto num_connections = GetCount(args, "connections", 1);
  if (!num_connections.ok()) return Fail(num_connections.status());
  if (*num_connections == 0 || *num_connections > 1024) {
    return Fail(
        Status::InvalidArgument("--connections must be in [1, 1024]"));
  }

  std::ifstream request_file;
  std::istream* in = &std::cin;
  if (args.Has("requests")) {
    request_file.open(args.Get("requests", ""));
    if (!request_file) {
      return Fail(Status::IOError("cannot open requests file '" +
                                  args.Get("requests", "") + "'"));
    }
    in = &request_file;
  }

  std::vector<ClientConn> conns(*num_connections);
  const auto close_all = [&] {
    for (ClientConn& conn : conns) {
      if (conn.fd >= 0) common::CloseFd(conn.fd);
      conn.fd = -1;
    }
  };
  for (ClientConn& conn : conns) {
    auto fd = ConnectTo(host, static_cast<std::uint16_t>(*port));
    if (!fd.ok()) {
      close_all();
      return Fail(fd.status());
    }
    conn.fd = *fd;
  }

  const auto fail_closing = [&](const Status& status) {
    close_all();
    return Fail(status);
  };
  // Requests rotate over the connections (a BATCH and its predicate
  // lines stay on one). Each request is answered before the next is
  // sent, so the output order equals the input order regardless of
  // --connections — replays must diff clean against a 1-connection run.
  std::string line, response;
  std::size_t next_conn = 0;
  ClientConn* conn = &conns[0];
  std::size_t pending_payload_lines = 0;  // BATCH predicate lines still owed
  bool sent_quit = false;
  int errors = 0;
  while (std::getline(*in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const bool is_payload = pending_payload_lines > 0;
    if (!is_payload && (line.empty() || line[0] == '#')) continue;
    if (!is_payload) {
      conn = &conns[next_conn];
      next_conn = (next_conn + 1) % conns.size();
    }

    Status st = SendAll(conn->fd, line + "\n");
    if (!st.ok()) return fail_closing(st);

    if (is_payload) {
      if (--pending_payload_lines > 0) continue;
    } else {
      std::istringstream fields(line);
      std::string verb, id, count;
      fields >> verb >> id >> count;
      for (char& c : verb) c = static_cast<char>(std::toupper(
          static_cast<unsigned char>(c)));
      if (verb == "QUIT") {
        sent_quit = true;
        break;
      }
      if (verb == "BATCH") {
        // The response only comes after the n predicate lines.
        auto n = ParseCountToken(count);
        if (n.ok() && *n > 0) {
          pending_payload_lines = *n;
          continue;
        }
        // Malformed BATCH: the daemon answers it immediately.
      }
    }

    auto got = ReadSocketLine(conn->fd, &conn->buffer, &response);
    if (!got.ok()) return fail_closing(got.status());
    if (!*got) {
      return fail_closing(Status::IOError("daemon closed the connection"));
    }
    std::printf("%s\n", response.c_str());
    if (response.rfind("error:", 0) == 0) {
      ++errors;
    } else if (response.rfind("ok ", 0) == 0) {
      auto n = ParseCountToken(response.substr(3));
      if (!n.ok()) {
        return fail_closing(
            Status::IOError("malformed response header '" + response + "'"));
      }
      for (std::size_t i = 0; i < *n; ++i) {
        got = ReadSocketLine(conn->fd, &conn->buffer, &response);
        if (!got.ok()) return fail_closing(got.status());
        if (!*got) {
          return fail_closing(Status::IOError("daemon closed mid-response"));
        }
        std::printf("%s\n", response.c_str());
      }
    } else {
      return fail_closing(
          Status::IOError("malformed response header '" + response + "'"));
    }
    if (std::fflush(stdout) != 0) {
      return fail_closing(Status::IOError("writing responses failed"));
    }
  }
  if (sent_quit) {
    // QUIT closes every connection; wait for the daemon's close on the
    // one that carried it so QUIT is observable in scripts.
    for (ClientConn& c : conns) {
      if (&c != conn) (void)SendAll(c.fd, "QUIT\n");
    }
    auto got = ReadSocketLine(conn->fd, &conn->buffer, &response);
    if (got.ok() && *got) std::printf("%s\n", response.c_str());
  }
  close_all();
  return errors > 0 ? 3 : 0;
}

#else  // !defined(__linux__)

int RunClient(const Args&) {
  return Fail(Status::IOError("client requires Linux"));
}

#endif

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string command = argv[1];
  auto args = ParseArgs(argc, argv, 2);
  if (!args.ok()) return Fail(args.status());
  if (command == "help" || args->Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (command == "gen") return RunGen(*args);
  if (command == "plan") return RunPlan(*args);
  if (command == "publish") return RunPublish(*args);
  if (command == "inspect") return RunInspect(*args);
  if (command == "query") return RunQuery(*args);
  if (command == "daemon") return RunDaemon(*args);
  if (command == "client") return RunClient(*args);
  std::fprintf(stderr, "privelet_cli: unknown command '%s'\n\n%s",
               command.c_str(), kUsage);
  return 1;
}

}  // namespace
}  // namespace privelet::cli

int main(int argc, char** argv) {
#if defined(SIGPIPE)
  // A peer (pipe reader, TCP client) vanishing mid-write must surface as
  // an EPIPE write error, never kill the process.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  return privelet::cli::Run(argc, argv);
}

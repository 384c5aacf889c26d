// trace_stream: a synthetic CSV trace of full-graph requests streamed
// through Server::serve. Each (plan class, device class) pair is simulated
// once, during set-up, so a round's time goes to intake, admission,
// scheduling, the string-keyed memos and metrics, and the compiler and
// kernel do almost nothing.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "checks.hpp"
#include "core/engine.hpp"
#include "obs/chrome_trace.hpp"
#include "serve/server.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = gnnerator::core;
namespace graph = gnnerator::graph;
namespace gnn = gnnerator::gnn;
namespace obs = gnnerator::obs;
namespace serve = gnnerator::serve;

/// Rows of the trace, one round's work (about 0.09 s). Short rounds give a
/// run hundreds of tries at a stretch where other tenants leave the core
/// alone: 150k-row rounds (0.7 s) left whole 30 s runs slowed by up to 1.6x,
/// while the fastest 20k-row round of a run held within 5% across runs.
constexpr std::size_t kRows = 20'000;
/// Offered load: the fleet runs about 64% busy at this mix, so the queue
/// stays bounded and nothing is shed.
constexpr double kRateRps = 20'000.0;
constexpr const char* kFleet = "2xbaseline,1xnextgen";
constexpr const char* kClasses = "interactive:0:4,bulk:0:1";
/// One simulation thread. At 4, ten runs' ops_per_s spread by 20% (IQR
/// over median), too wide for any bound, against about 5% at 1, and 4
/// threads bought no resolvable throughput for 44% more CPU per round.
constexpr std::size_t kSimThreads = 1;
/// Rounds of the traced run that carry an obs::Recorder.
constexpr std::size_t kRecordedRounds = 20;

const std::vector<std::string> kDatasets = {"cora", "citeseer"};
const std::vector<gnn::LayerKind> kKinds = {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean,
                                            gnn::LayerKind::kSagePool};

/// One trace row as the benchmark reads it, apart from the program's CSV
/// reader: what the request runs.
struct Row {
  std::string dataset;
  gnn::LayerKind kind = gnn::LayerKind::kGcn;
};

std::vector<Row> read_rows(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header: arrival_ms,dataset,model,slo_ms,class
  std::vector<Row> rows;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream cells(line);
    std::string arrival;
    std::string model;
    Row row;
    std::getline(cells, arrival, ',');
    std::getline(cells, row.dataset, ',');
    std::getline(cells, model, ',');
    const auto kind = std::find_if(kKinds.begin(), kKinds.end(), [&](gnn::LayerKind k) {
      return gnn::layer_kind_name(k) == model;
    });
    if (kind == kKinds.end()) {
      throw std::runtime_error("trace row with unknown model '" + model + "'");
    }
    row.kind = *kind;
    rows.push_back(std::move(row));
  }
  return rows;
}

serve::ServerOptions server_options(std::shared_ptr<obs::Recorder> recorder) {
  serve::ServerOptions options;
  options.fleet = serve::parse_fleet_spec(kFleet);
  options.classes = serve::parse_class_spec(kClasses);
  options.policy = serve::SchedulingPolicy::kDynamicBatch;
  options.limits.batch_window = serve::ms_to_cycles(1.0, options.clock_ghz);
  options.limits.max_batch = 32;
  options.sim_threads = kSimThreads;
  options.recorder = std::move(recorder);
  return options;
}

/// A warm server: datasets registered and the whole trace served once, so
/// every (plan class, device class) pair is compiled and simulated.
std::unique_ptr<serve::Server> warm_server(const std::vector<graph::Dataset>& datasets,
                                           const std::string& trace_path,
                                           std::shared_ptr<obs::Recorder> recorder) {
  auto server = std::make_unique<serve::Server>(server_options(std::move(recorder)));
  for (const graph::Dataset& ds : datasets) {
    server->add_dataset(ds);
  }
  serve::StreamingTraceWorkload warm(trace_path, core::SimulationRequest{},
                                     server->options().clock_ghz);
  (void)server->serve(warm);
  return server;
}

/// Each batch's service time as Server documents it, from direct runs on a
/// fresh Engine: one run per distinct plan class in the batch under the
/// executing device's class config, rescaled by the clock ratio, plus the
/// per-request overhead.
std::vector<serve::Cycle> expected_service(const serve::Server& server,
                                           const std::vector<Batch>& batches,
                                           const std::vector<Row>& rows,
                                           const std::vector<graph::Dataset>& datasets) {
  core::Engine engine(core::EngineOptions{.num_threads = 1});
  for (const graph::Dataset& ds : datasets) {
    engine.add_dataset(ds);
  }
  std::map<std::tuple<std::string, std::string, gnn::LayerKind>, std::uint64_t> cycles;
  const auto run = [&](const serve::DeviceClass& klass, const Row& row) {
    const auto key = std::make_tuple(klass.name, row.dataset, row.kind);
    if (const auto it = cycles.find(key); it != cycles.end()) {
      return it->second;
    }
    core::SimulationRequest sim;
    sim.config = klass.config;
    sim.dataset = row.dataset;
    sim.model = core::table3_model(row.kind, engine.dataset(row.dataset).spec);
    return cycles[key] = engine.run(sim).cycles;
  };

  const serve::ServerOptions& options = server.options();
  std::vector<serve::Cycle> expected;
  for (const Batch& b : batches) {
    const serve::DeviceClass& klass = *server.device_class(b.device);
    std::vector<std::pair<std::string, gnn::LayerKind>> seen;
    std::uint64_t device_cycles = 0;
    for (const std::uint64_t id : b.ids) {
      const Row& row = rows.at(id);
      const auto plan_class = std::make_pair(row.dataset, row.kind);
      if (std::find(seen.begin(), seen.end(), plan_class) == seen.end()) {
        seen.push_back(plan_class);
        device_cycles += run(klass, row);
      }
    }
    const double ratio = options.clock_ghz / klass.effective_clock_ghz();
    expected.push_back(
        static_cast<serve::Cycle>(std::llround(static_cast<double>(device_cycles) * ratio)) +
        options.per_request_overhead * b.ids.size());
  }
  return expected;
}

/// The fields of a served request that any rerun must reproduce.
bool same_outcomes(const serve::ServeReport& a, const serve::ServeReport& b) {
  return std::equal(a.outcomes.begin(), a.outcomes.end(), b.outcomes.begin(),
                    b.outcomes.end(), [](const serve::Outcome& x, const serve::Outcome& y) {
                      return std::tie(x.id, x.arrival, x.dispatch, x.completion, x.device,
                                      x.service_cycles, x.shed, x.failed) ==
                             std::tie(y.id, y.arrival, y.dispatch, y.completion, y.device,
                                      y.service_cycles, y.shed, y.failed);
                    });
}

}  // namespace

WorkloadResult run_trace_stream(const Options& options) {
  WorkloadResult out;
  LayerValues& layers = out.layers;

  // ---- Set-up: datasets, the trace file, a warm server. ----
  const Stopwatch make_datasets;
  std::vector<graph::Dataset> datasets;
  for (const std::string& name : kDatasets) {
    datasets.push_back(graph::make_dataset_by_name(name, kGraphSeed, /*with_features=*/false));
  }
  layers["graph.make_dataset_s"] = make_datasets.seconds();

  const std::string trace_path =
      options.work_dir + "/trace_stream_" + std::to_string(options.seed) + ".csv";
  serve::TraceSpec spec;
  spec.num_requests = kRows;
  spec.rate_rps = kRateRps;
  spec.seed = options.seed;
  spec.datasets = kDatasets;
  spec.classes = {"interactive", "bulk"};
  const std::size_t written = serve::write_synthetic_trace(trace_path, spec);

  std::unique_ptr<serve::Server> server = warm_server(datasets, trace_path, nullptr);
  out.setup_s = process_seconds();

  // ---- Timed phase: whole passes over the trace. ----
  const core::SimulationRequest base;
  const double clock_ghz = server->options().clock_ghz;
  std::optional<serve::ServeReport> first;
  std::vector<double> serve_s;
  std::vector<double> intake_s;
  double rows_per_round = 0.0;
  const core::PlanCacheStats cache_before = server->cache_stats();
  const std::size_t oracle_before = server->cost_oracle_runs();
  out.rounds = run_rounds(options.seconds, [&] {
    serve::StreamingTraceWorkload stream(trace_path, base, clock_ghz);
    std::optional<TimedStream> timed;
    serve::WorkloadSource* source = &stream;
    if (options.trace) {
      source = &timed.emplace(stream);
    }
    const double cpu_before = cpu_seconds();
    const Stopwatch watch;
    serve::ServeReport report = server->serve(*source);
    Round r;
    r.wall_s = watch.seconds();
    r.cpu_s = cpu_seconds() - cpu_before;
    r.ops = written;
    r.failed = unserved(report);
    if (timed) {
      serve_s.push_back(r.wall_s);
      intake_s.push_back(timed->intake_s());
      rows_per_round = static_cast<double>(timed->rows());
    }
    if (!first) {
      first = std::move(report);
    } else if (!same_outcomes(*first, report)) {
      out.failures.push_back("determinism: a rerun of the trace served it differently");
    }
    return r;
  });

  // ---- Checks on the first pass. ----
  const std::vector<Row> rows = read_rows(trace_path);
  if (rows.size() != written) {
    out.failures.push_back("accounting: the trace file holds " + std::to_string(rows.size()) +
                           " rows, the generator reported " + std::to_string(written));
  }
  check_report(*first, rows.size(), out.failures);
  const std::vector<Batch> batches = recover_batches(first->outcomes);
  if (const Failure f =
          check_service(batches, expected_service(*server, batches, rows, datasets))) {
    out.failures.push_back(*f);
  }
  std::cerr << "trace_stream: fleet utilization " << first->fleet_utilization()
            << ", max queue depth " << first->max_queue_depth << ", mean batch "
            << first->metrics.mean_batch_size << "\n";

  if (options.trace) {
    const auto rounds = static_cast<double>(out.rounds.size());
    const core::PlanCacheStats cache_after = server->cache_stats();
    add_loop_metrics(serve_s, intake_s, rows_per_round, static_cast<double>(first->events),
                     layers);
    // Work the memos absorbed during set-up does not recur per round.
    layers["core.cost_oracle.runs"] =
        static_cast<double>(server->cost_oracle_runs() - oracle_before) / rounds;
    layers["core.plan_cache.hits"] =
        static_cast<double>(cache_after.hits - cache_before.hits) / rounds;
    layers["core.plan_cache.misses"] =
        static_cast<double>(cache_after.misses - cache_before.misses) / rounds;
    add_simulated_metrics(*first, layers);

    // The same passes with an obs::Recorder attached: the difference sizes
    // the recorder, and the last pass's Chrome trace sizes the exporter.
    auto recorder = std::make_shared<obs::Recorder>();
    std::unique_ptr<serve::Server> recorded = warm_server(datasets, trace_path, recorder);
    std::vector<double> recorded_s;
    for (std::size_t i = 0; i < kRecordedRounds; ++i) {
      serve::StreamingTraceWorkload stream(trace_path, base, clock_ghz);
      TimedStream timed(stream);
      const Stopwatch watch;
      (void)recorded->serve(timed);
      recorded_s.push_back(watch.seconds());
    }
    layers["obs.recorder_s"] = fastest(recorded_s) - fastest(serve_s);
    const Stopwatch export_watch;
    const std::string chrome = obs::chrome_trace_string(*recorder);
    layers["obs.chrome_trace_s"] = export_watch.seconds();
    layers["obs.chrome_trace_bytes"] = static_cast<double>(chrome.size());
  }
  std::filesystem::remove(trace_path);
  return out;
}

}  // namespace perfbench

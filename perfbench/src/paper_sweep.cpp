// paper_sweep: the paper's design points, each one Engine::run on a cold
// core::Engine per round. No serving code runs: time goes to the compiler,
// the cycle kernel and, on the functional points, the executor's
// arithmetic. Compiles stay in the timed phase because a sweep pays them
// every time it starts from a fresh engine.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "baseline/hygcn_model.hpp"
#include "checks.hpp"
#include "core/engine.hpp"
#include "core/executor.hpp"
#include "core/runtime.hpp"
#include "gnn/reference.hpp"
#include "gnn/weights.hpp"
#include "serve/fleet.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = gnnerator::core;
namespace graph = gnnerator::graph;
namespace gnn = gnnerator::gnn;


const std::vector<std::string> kTable2 = {"cora", "citeseer", "pubmed"};
const std::vector<gnn::LayerKind> kKinds = {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean,
                                            gnn::LayerKind::kSagePool};
/// Fig. 4's block sizes.
const std::vector<std::size_t> kBlocks = {32, 64, 128, 256, 1024, 2048, 4096};
/// Fig. 5's hidden widths and device classes (serve/fleet.hpp's registry).
const std::vector<std::size_t> kHidden = {16, 128, 1024};
const std::vector<std::string> kClasses = {"baseline", "2x-graph-mem", "2x-dense", "2x-bw",
                                           "nextgen"};
/// The event-driven kernel is compared with the exhaustive reference loop
/// on these points only: the reference loop ticks every cycle.
const std::vector<std::string> kReferenceKernelPoints = {"fig3/cora-gcn/blocked",
                                                         "fig3/cora-gcn/unblocked"};

/// One design point; `request` names its dataset and carries its model.
struct Point {
  std::string name;
  core::SimulationRequest request;
};

std::string point_name(const std::string& dataset, gnn::LayerKind kind) {
  return dataset + "-" + std::string(gnn::layer_kind_name(kind));
}

Point make_point(std::string name, const std::string& dataset, gnn::LayerKind kind,
                 std::size_t hidden = 16) {
  Point p;
  p.name = std::move(name);
  p.request.dataset = dataset;
  p.request.model = core::table3_model(kind, *graph::find_dataset(dataset), hidden);
  return p;
}

/// The sweep, in run order. Fig. 3's GCN points double as Table V's
/// GNNerator column. The seed draws the functional points' weights.
std::vector<Point> design_points(std::uint64_t seed) {
  std::vector<Point> points;
  for (const std::string& ds : kTable2) {
    for (const gnn::LayerKind kind : kKinds) {
      for (const bool blocked : {true, false}) {
        Point p = make_point(
            "fig3/" + point_name(ds, kind) + (blocked ? "/blocked" : "/unblocked"), ds, kind);
        p.request.dataflow.feature_blocking = blocked;
        points.push_back(std::move(p));
      }
    }
  }
  for (const std::size_t block : kBlocks) {
    for (const std::string& ds : kTable2) {
      for (const gnn::LayerKind kind : kKinds) {
        Point p =
            make_point("fig4/" + point_name(ds, kind) + "/B=" + std::to_string(block), ds, kind);
        p.request.dataflow.block_size = block;
        points.push_back(std::move(p));
      }
    }
  }
  for (const std::size_t hidden : kHidden) {
    for (const std::string& ds : kTable2) {
      for (const std::string& klass : kClasses) {
        Point p = make_point("fig5/" + ds + "-" + std::to_string(hidden) + "/" + klass, ds,
                             gnn::LayerKind::kGcn, hidden);
        p.request.config = gnnerator::serve::find_device_class(klass)->config;
        // Fig. 5 holds B at the paper's 64 across classes, so a wider
        // array does not also change the shard grid.
        p.request.dataflow.block_size = 64;
        points.push_back(std::move(p));
      }
    }
  }
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    Point p = make_point("scale/" + point_name("flickr", kind) + "/autotune", "flickr", kind);
    p.request.dataflow.autotune = true;
    points.push_back(std::move(p));
  }
  for (const std::string& ds : kTable2) {
    for (const gnn::LayerKind kind : kKinds) {
      Point p = make_point("functional/" + point_name(ds, kind), ds, kind);
      p.request.mode = core::SimMode::kFunctional;
      p.request.weight_seed = seed;
      points.push_back(std::move(p));
    }
  }
  return points;
}

using Datasets = std::map<std::string, std::shared_ptr<const graph::Dataset>>;

/// The feature block size the compiler resolves when none is pinned.
std::size_t resolved_block(const core::SimulationRequest& request) {
  return request.dataflow.block_size != 0 ? request.dataflow.block_size
                                          : request.config.dense.array.cols;
}

gnn::Tensor features_of(const graph::Dataset& ds) {
  return gnn::Tensor(ds.spec.num_nodes, ds.spec.feature_dim, ds.features);
}

void check_results(const std::vector<Point>& points,
                   const std::vector<std::optional<core::ExecutionResult>>& results,
                   const Datasets& datasets, std::vector<std::string>& failures) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (!results[i]) {
      continue;  // counted as a failed operation
    }
    const core::ExecutionResult& result = *results[i];
    const graph::Dataset& ds = *datasets.at(p.request.dataset);
    const gnn::ModelSpec& model = p.request.model;
    const auto fail = [&](const std::string& what) { failures.push_back(p.name + ": " + what); };
    if (!p.request.dataflow.autotune) {
      if (const Failure f = check_closed_forms(result, ds.spec, model,
                                               p.request.dataflow.feature_blocking,
                                               resolved_block(p.request))) {
        fail(*f);
      }
    }
    if (p.request.mode == core::SimMode::kFunctional) {
      const gnn::Tensor want = gnn::ReferenceExecutor(ds.graph).run_model(
          model, gnn::init_weights(model, p.request.weight_seed), features_of(ds));
      if (!result.output) {
        fail("functional run returned no output");
      } else if (const Failure f = check_close(*result.output, want, kReferenceTolerance)) {
        fail(*f);
      }
    }
    if (std::find(kReferenceKernelPoints.begin(), kReferenceKernelPoints.end(), p.name) !=
        kReferenceKernelPoints.end()) {
      const core::LoweredModel plan = core::compile_for(ds, model, p.request);
      if (const Failure f = check_kernels_agree(
              result, core::Accelerator::run_timing(plan, nullptr,
                                                    core::TimingKernel::kReference))) {
        fail(*f);
      }
    }
  }
}

/// Replays the sweep through compile_for, Accelerator::run_timing and the
/// functional executor, timing each layer and summing simulated counters.
void replay_layers(const std::vector<Point>& points, const Datasets& datasets,
                   LayerValues& layers) {
  double compile_s = 0.0;
  double run_s = 0.0;
  double functional_s = 0.0;
  std::uint64_t ticked = 0;
  std::uint64_t cycles = 0;
  gnnerator::sim::StatSet stats;
  for (const Point& p : points) {
    const graph::Dataset& ds = *datasets.at(p.request.dataset);
    const gnn::ModelSpec& model = p.request.model;
    const Stopwatch compile_watch;
    const core::LoweredModel plan = core::compile_for(ds, model, p.request);
    compile_s += compile_watch.seconds();
    const Stopwatch run_watch;
    const core::ExecutionResult result = core::Accelerator::run_timing(plan);
    run_s += run_watch.seconds();
    ticked += result.kernel_cycles_ticked;
    cycles += result.cycles;
    for (const auto& [name, value] : result.stats.counters()) {
      stats.add(name, value);
    }
    if (p.request.mode == core::SimMode::kFunctional) {
      const gnn::Tensor features = features_of(ds);
      const gnn::ModelWeights weights = gnn::init_weights(model, p.request.weight_seed);
      core::RuntimeState state(plan, features, weights);
      const Stopwatch functional_watch;
      core::FunctionalExecutor().execute(plan, state);
      functional_s += functional_watch.seconds();
    }
  }
  layers["core.compiler.compile_s"] = compile_s;
  layers["core.compiler.compiles"] = static_cast<double>(points.size());
  layers["sim.kernel.run_s"] = run_s;
  layers["sim.kernel.cycles_ticked"] = static_cast<double>(ticked);
  layers["sim.cycles"] = static_cast<double>(cycles);
  layers["core.executor.functional_s"] = functional_s;
  for (const char* name : {"dense.compute_cycles", "dense.stall_token_cycles",
                           "graph.compute_cycles", "graph.stall_dma_cycles", "dram.busy_cycles",
                           "dram.read_bytes"}) {
    layers[name] = static_cast<double>(stats.get(name));
  }
}

/// The paper's headline ratios recomputed from one round's simulated
/// cycles, printed beside the paper's values.
void print_paper_figures(const std::vector<Point>& points,
                         const std::vector<std::optional<core::ExecutionResult>>& results,
                         const Datasets& datasets) {
  std::map<std::string, double> ms;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (results[i]) {
      ms[points[i].name] = results[i]->milliseconds(points[i].request.config.clock_ghz);
    }
  }
  using gnnerator::util::geomean;
  const gnnerator::baseline::GpuModel gpu;
  std::vector<double> blocked;
  std::vector<double> unblocked;
  for (const std::string& ds : kTable2) {
    for (const gnn::LayerKind kind : kKinds) {
      const std::string name = "fig3/" + point_name(ds, kind);
      const double gpu_ms =
          gpu.model_time_s(core::table3_model(kind, datasets.at(ds)->spec), datasets.at(ds)->spec) *
          1e3;
      blocked.push_back(gpu_ms / ms.at(name + "/blocked"));
      unblocked.push_back(gpu_ms / ms.at(name + "/unblocked"));
    }
  }
  std::cerr << "paper_sweep: Fig. 3 Gmean speedup over the GPU model " << geomean(blocked)
            << "x (paper 8.0x), without blocking " << geomean(unblocked) << "x (paper 4.2x)\n";

  const gnnerator::baseline::HygcnModel hygcn;
  std::cerr << "paper_sweep: Table V speedup over HyGCN, blocked / unblocked:";
  for (const std::string& ds : kTable2) {
    const graph::Dataset& d = *datasets.at(ds);
    const double hygcn_ms = hygcn.milliseconds(
        hygcn.simulate_cycles(d.graph, core::table3_model(gnn::LayerKind::kGcn, d.spec)));
    std::cerr << " " << ds << " " << hygcn_ms / ms.at("fig3/" + ds + "-gcn/blocked") << "x / "
              << hygcn_ms / ms.at("fig3/" + ds + "-gcn/unblocked") << "x";
  }
  std::cerr << " (paper 3.8/3.2/2.3x blocked, 1.8/0.8/1.0x unblocked)\n";

  std::cerr << "paper_sweep: Fig. 4 Gmean slowdown against B=64:";
  for (const std::size_t block : kBlocks) {
    std::vector<double> slowdown;
    for (const std::string& ds : kTable2) {
      for (const gnn::LayerKind kind : kKinds) {
        const std::string name = "fig4/" + point_name(ds, kind) + "/B=";
        slowdown.push_back(ms.at(name + std::to_string(block)) / ms.at(name + "64"));
      }
    }
    std::cerr << " B=" << block << " " << geomean(slowdown) << "x";
  }
  std::cerr << " (paper: B=64 best)\n";

  std::cerr << "paper_sweep: Fig. 5 Gmean speedup over baseline:";
  for (const std::string& klass : kClasses) {
    std::vector<double> speedup;
    for (const std::size_t hidden : kHidden) {
      for (const std::string& ds : kTable2) {
        const std::string name = "fig5/" + ds + "-" + std::to_string(hidden) + "/";
        speedup.push_back(ms.at(name + "baseline") / ms.at(name + klass));
      }
    }
    std::cerr << " " << klass << " " << geomean(speedup) << "x";
  }
  std::cerr << " (paper: 2x-graph-mem 1.1x, 2x-dense 1.4x, 2x-bw 1.4x)\n";
}

}  // namespace

WorkloadResult run_paper_sweep(const Options& options) {
  WorkloadResult out;
  LayerValues& layers = out.layers;

  // ---- Set-up: every dataset the sweep reads. Features only where a
  // functional point needs them. ----
  const Stopwatch make_datasets;
  Datasets datasets;
  for (const std::string& name : kTable2) {
    datasets[name] = std::make_shared<const graph::Dataset>(
        graph::make_dataset_by_name(name, kGraphSeed, /*with_features=*/true));
  }
  datasets["flickr"] = std::make_shared<const graph::Dataset>(
      graph::make_dataset_by_name("flickr", kGraphSeed, /*with_features=*/false));
  layers["graph.make_dataset_s"] = make_datasets.seconds();
  const std::vector<Point> points = design_points(options.seed);
  out.setup_s = process_seconds();

  // ---- Timed phase: each round runs every point on a fresh engine. ----
  std::vector<std::optional<core::ExecutionResult>> first;
  core::PlanCacheStats cache;
  out.rounds = run_rounds(options.seconds, [&] {
    const double cpu_before = cpu_seconds();
    const Stopwatch watch;
    Round r;
    r.ops = points.size();
    // The parts of a round: the fresh engine, then each point.
    const auto timed_part = [&r](const auto& part) {
      const double part_cpu = cpu_seconds();
      const Stopwatch part_watch;
      part();
      r.part_wall_s.push_back(part_watch.seconds());
      r.part_cpu_s.push_back(cpu_seconds() - part_cpu);
    };
    std::optional<core::Engine> engine;
    timed_part([&] {
      engine.emplace(core::EngineOptions{.num_threads = 1});
      for (const auto& [name, ds] : datasets) {
        engine->add_dataset(ds);
      }
    });
    std::vector<std::optional<core::ExecutionResult>> results(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      timed_part([&] {
        try {
          results[i] = engine->run(points[i].request);
        } catch (const std::exception& e) {
          std::cerr << points[i].name << " failed: " << e.what() << "\n";
          ++r.failed;
        }
      });
    }
    r.wall_s = watch.seconds();
    r.cpu_s = cpu_seconds() - cpu_before;
    if (first.empty()) {
      first = std::move(results);
      cache = engine->cache_stats();
    }
    return r;
  });

  // ---- Checks on the first round. ----
  check_results(points, first, datasets, out.failures);

  if (options.trace) {
    layers["core.plan_cache.hits"] = static_cast<double>(cache.hits);
    layers["core.plan_cache.misses"] = static_cast<double>(cache.misses);
    replay_layers(points, datasets, layers);
    print_paper_figures(points, first, datasets);
  }
  return out;
}

}  // namespace perfbench

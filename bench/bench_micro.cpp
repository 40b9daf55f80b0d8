// Microbenchmarks (google-benchmark) for the hot inner structures:
// Γ window operations, RCT operations, queue throughput, single-vertex
// placement cost of each streaming heuristic, the fixed setup cost of
// the sequential and parallel SPNL drivers at 1M vertices, K=32, the
// metrics pass over an indexed 1M-vertex sadj file, sequential and by
// segments, and the 2PS clustering prepass alone over a random-order planted
// sadj file.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/gamma_table.hpp"
#include "core/parallel_driver.hpp"
#include "core/rct.hpp"
#include "core/spn.hpp"
#include "core/spnl.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "graph/stream_binary.hpp"
#include "partition/ldg.hpp"
#include "partition/metrics.hpp"
#include "prepass/two_phase.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace spnl;

void BM_GammaIncrement(benchmark::State& state) {
  const VertexId n = 1 << 20;
  GammaWindow gamma(n, 32, static_cast<std::uint32_t>(state.range(0)));
  Rng rng(1);
  VertexId head = 0;
  for (auto _ : state) {
    const auto u = static_cast<VertexId>(head + rng.next_below(1024));
    gamma.increment(static_cast<PartitionId>(u % 32), u < n ? u : n - 1);
    if (++head >= n - 2048) {
      head = 0;
      state.PauseTiming();
      gamma.advance_to(0);  // no-op; window never moves backwards
      state.ResumeTiming();
    }
    gamma.advance_to(head);
  }
}
BENCHMARK(BM_GammaIncrement)->Arg(1)->Arg(128)->Arg(4096);

void BM_GammaRowRead(benchmark::State& state) {
  const VertexId n = 1 << 20;
  GammaWindow gamma(n, static_cast<PartitionId>(state.range(0)), 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gamma.row(5));
  }
}
BENCHMARK(BM_GammaRowRead)->Arg(8)->Arg(32)->Arg(128);

void BM_RctBumpAndPlace(benchmark::State& state) {
  Rct rct(64);
  std::vector<VertexId> out = {1, 2, 3, 4, 5, 6, 7, 8};
  VertexId v = 100;
  for (auto _ : state) {
    rct.register_vertex(v);
    rct.bump_out_neighbors(v, out);
    benchmark::DoNotOptimize(rct.park_if_delayed({v, out}));
    rct.on_placed(v, out);
    ++v;
  }
}
BENCHMARK(BM_RctBumpAndPlace);

void BM_QueuePushPop(benchmark::State& state) {
  BoundedQueue<OwnedVertexRecord> queue(1024);
  for (auto _ : state) {
    queue.push(OwnedVertexRecord{1, {2, 3, 4}});
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(BM_QueuePushPop);

template <typename Partitioner>
void run_placement_bench(benchmark::State& state) {
  const auto& spec = dataset_by_name("uk2002");
  const Graph graph = load_dataset(spec, 0.2);
  PartitionConfig config{.num_partitions = 32};
  for (auto _ : state) {
    Partitioner partitioner(graph.num_vertices(), graph.num_edges(), config);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      partitioner.place(v, graph.out_neighbors(v));
    }
    benchmark::DoNotOptimize(partitioner.route().data());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_vertices());
}

void BM_PlaceLdg(benchmark::State& state) { run_placement_bench<LdgPartitioner>(state); }
void BM_PlaceSpn(benchmark::State& state) { run_placement_bench<SpnPartitioner>(state); }
void BM_PlaceSpnl(benchmark::State& state) { run_placement_bench<SpnlPartitioner>(state); }
BENCHMARK(BM_PlaceLdg)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlaceSpn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlaceSpnl)->Unit(benchmark::kMillisecond);

/// |V| and |E| of a 1M-vertex crawl, and no records: what run_parallel costs
/// before it scores anything.
class EmptyStream final : public AdjacencyStream {
 public:
  std::optional<VertexRecord> next() override { return std::nullopt; }
  void reset() override {}
  VertexId num_vertices() const override { return 1000000; }
  EdgeId num_edges() const override { return 8000000; }
};

void BM_SetupSpnl(benchmark::State& state) {
  const EmptyStream shape;
  const PartitionConfig config{.num_partitions = 32};
  for (auto _ : state) {
    SpnlPartitioner partitioner(shape.num_vertices(), shape.num_edges(), config);
    benchmark::DoNotOptimize(partitioner.route().data());
  }
}
BENCHMARK(BM_SetupSpnl)->Unit(benchmark::kMillisecond);

void BM_SetupParallelEmptyStream(benchmark::State& state) {
  const PartitionConfig config{.num_partitions = 32};
  ParallelOptions options;
  options.num_threads = 3;
  for (auto _ : state) {
    EmptyStream stream;
    benchmark::DoNotOptimize(run_parallel(stream, config, options).route.data());
  }
}
BENCHMARK(BM_SetupParallelEmptyStream)->Unit(benchmark::kMillisecond)->UseRealTime();

/// `graph` written once to a temporary sadj file that is removed at exit.
struct SadjFile {
  std::string path;
  SadjFile(const std::string& name, const Graph& graph) {
    path = (std::filesystem::temp_directory_path() /
            ("bench_micro_" + name + "_" + std::to_string(::getpid()) + ".sadj"))
               .string();
    InMemoryStream source(graph);
    write_sadj(source, path);
  }
  ~SadjFile() { std::filesystem::remove(path); }
};

/// Forwards a stream but offers no segments, as a decorator does.
class Unsegmented final : public AdjacencyStream {
 public:
  explicit Unsegmented(AdjacencyStream& inner) : inner_(inner) {}
  std::optional<VertexRecord> next() override { return inner_.next(); }
  void reset() override { inner_.reset(); }
  VertexId num_vertices() const override { return inner_.num_vertices(); }
  EdgeId num_edges() const override { return inner_.num_edges(); }

 private:
  AdjacencyStream& inner_;
};

/// Arg 0: one sequential scan; arg 1: the segments summed on the helpers.
void BM_EvaluatePartitionSadj(benchmark::State& state) {
  // The 1M-vertex crawl of perfbench's sadj workloads.
  static const SadjFile file("crawl",
                             generate_webcrawl({.num_vertices = 1000000, .seed = 1}));
  BinaryAdjacencyStream stream(file.path);
  while (stream.next()) {
  }
  stream.reset();
  Unsegmented unsegmented(stream);
  AdjacencyStream& scanned =
      state.range(0) == 1 ? static_cast<AdjacencyStream&>(stream) : unsegmented;
  const PartitionId k = 32;
  std::vector<PartitionId> route(stream.num_vertices());
  for (VertexId v = 0; v < route.size(); ++v) route[v] = (v / 4096) % k;
  for (auto _ : state) {
    scanned.reset();
    benchmark::DoNotOptimize(evaluate_partition(scanned, route, k).cut_edges);
  }
  state.counters["segments"] = static_cast<double>(stream.segments());
  state.SetItemsProcessed(state.iterations() * stream.num_edges());
}
BENCHMARK(BM_EvaluatePartitionSadj)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

/// cluster_prepass alone (its three scans, read ahead on a helper thread)
/// over hostile-2ps's input at a fifth of the size: a planted graph (C=K=8,
/// mu=0.3) renumbered into a random stream order.
void BM_ClusterPrepassSadj(benchmark::State& state) {
  static const SadjFile file("planted", [] {
    const VertexId n = 200000;
    const PlantedGraph planted = generate_planted_partition(
        {.num_vertices = n, .num_communities = 8, .mixing = 0.3, .seed = 1});
    return apply_permutation(planted.graph, random_order(n, 3));
  }());
  BinaryAdjacencyStream stream(file.path);
  const PartitionConfig config{.num_partitions = 8};
  for (auto _ : state) {
    stream.reset();
    benchmark::DoNotOptimize(cluster_prepass(stream, config).num_clusters);
  }
  state.SetItemsProcessed(state.iterations() * stream.num_edges());
}
BENCHMARK(BM_ClusterPrepassSadj)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

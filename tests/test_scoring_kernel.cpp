// Byte-identity property test of the fused scoring kernel.
//
// core/score_kernel.hpp promises that the fused SPN/SPNL place() path
// performs the same floating-point operations in the same order as the
// original formulation, so routes are *bit-identical*, not merely similar.
// The original formulation is retained verbatim in reference_partitioners.hpp
// and raced here across fuzzed graphs (including multi-edges and self-loops),
// both Γ estimators, both slide modes, several shard counts and λ values, and
// for SPNL every η policy with and without a logical hint table — for every
// vertex of every run the placements must agree exactly. The reference
// recomputes every load, weight and η per record, so the race also checks
// the partitioners' cached per-partition view and its update rules.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/spn.hpp"
#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/driver.hpp"
#include "reference_partitioners.hpp"
#include "util/rng.hpp"

namespace spnl {
namespace {

/// Random digraph with duplicate edges, self-loops, and forward edges — the
/// nastiest stream the kernel can see (generators emit clean sorted lists).
Graph fuzz_graph(VertexId n, double avg_degree, std::uint64_t seed) {
  GraphBuilder builder(n);
  Rng rng(seed);
  for (VertexId v = 0; v < n; ++v) {
    const auto degree = static_cast<EdgeId>(rng.next_below(
        static_cast<std::uint64_t>(2.0 * avg_degree) + 1));
    for (EdgeId e = 0; e < degree; ++e) {
      VertexId u;
      if (rng.next_bool(0.05)) {
        u = v;  // self-loop
      } else if (rng.next_bool(0.6)) {
        // Local target (exercises the Γ window around the head).
        const auto offset = static_cast<VertexId>(rng.next_below(32));
        u = (v + offset) % n;
      } else {
        u = static_cast<VertexId>(rng.next_below(n));
      }
      builder.add_edge(v, u);
      if (rng.next_bool(0.15)) builder.add_edge(v, u);  // duplicate
    }
  }
  return builder.finish();
}

struct KernelCase {
  InNeighborEstimator estimator;
  SlideMode slide;
  std::uint32_t shards;
  double lambda;
};

std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases;
  for (auto estimator :
       {InNeighborEstimator::kSelf, InNeighborEstimator::kNeighborSum}) {
    for (auto slide : {SlideMode::kFine, SlideMode::kCoarse}) {
      for (std::uint32_t shards : {1u, 7u, 64u}) {
        for (double lambda : {0.5, 0.3, 0.9}) {
          cases.push_back({estimator, slide, shards, lambda});
        }
      }
    }
  }
  return cases;
}

std::string describe(const KernelCase& c, std::uint64_t seed) {
  return std::string("estimator=") +
         (c.estimator == InNeighborEstimator::kSelf ? "self" : "neighbor-sum") +
         " slide=" + (c.slide == SlideMode::kFine ? "fine" : "coarse") +
         " shards=" + std::to_string(c.shards) +
         " lambda=" + std::to_string(c.lambda) +
         " seed=" + std::to_string(seed);
}

std::vector<PartitionId> run(const Graph& graph, StreamingPartitioner& p) {
  InMemoryStream stream(graph);
  return run_streaming(stream, p).route;
}

TEST(ScoringKernel, SpnRoutesByteIdenticalToReference) {
  PartitionConfig config;
  config.num_partitions = 5;
  config.slack = 1.05;  // tight: exercises the full-partition fallback
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const Graph graph = fuzz_graph(400, 6.0, seed);
    for (const KernelCase& c : kernel_cases()) {
      SpnOptions options{.lambda = c.lambda,
                         .num_shards = c.shards,
                         .estimator = c.estimator,
                         .slide = c.slide};
      SpnPartitioner fused(graph.num_vertices(), graph.num_edges(), config,
                           options);
      ReferenceSpnPartitioner reference(graph.num_vertices(), graph.num_edges(),
                                        config, options);
      EXPECT_EQ(run(graph, fused), run(graph, reference))
          << describe(c, seed);
    }
  }
}

TEST(ScoringKernel, SpnlRoutesByteIdenticalToReference) {
  PartitionConfig config;
  config.num_partitions = 5;
  config.slack = 1.05;
  struct EtaCase {
    EtaPolicy policy;
    double eta0;
    const char* name;
  };
  const EtaCase eta_cases[] = {{EtaPolicy::kPaper, 0.5, "paper"},
                               {EtaPolicy::kLinear, 0.5, "linear"},
                               {EtaPolicy::kConstant, 0.3, "constant"},
                               {EtaPolicy::kZero, 0.5, "zero"}};
  for (std::uint64_t seed : {44ull, 55ull}) {
    const Graph graph = fuzz_graph(400, 6.0, seed);
    // A random in-range logical pre-assignment: the 2PS prepass path.
    std::vector<PartitionId> hints(graph.num_vertices());
    Rng rng(seed);
    for (PartitionId& hint : hints) {
      hint = static_cast<PartitionId>(rng.next_below(config.num_partitions));
    }
    const std::vector<PartitionId>* const tables[] = {nullptr, &hints};
    for (const KernelCase& c : kernel_cases()) {
      for (const EtaCase& eta : eta_cases) {
        for (const std::vector<PartitionId>* table : tables) {
          SpnlOptions options{.lambda = c.lambda,
                              .num_shards = c.shards,
                              .estimator = c.estimator,
                              .slide = c.slide,
                              .eta_policy = eta.policy,
                              .eta0 = eta.eta0,
                              .logical_hints = table};
          SpnlPartitioner fused(graph.num_vertices(), graph.num_edges(), config,
                                options);
          ReferenceSpnlPartitioner reference(graph.num_vertices(),
                                             graph.num_edges(), config, options);
          EXPECT_EQ(run(graph, fused), run(graph, reference))
              << describe(c, seed) << " eta=" << eta.name
              << " hints=" << (table != nullptr ? "random" : "range");
        }
      }
    }
  }
}

TEST(ScoringKernel, WebcrawlRoutesByteIdenticalAllBalanceModes) {
  // A realistic clean stream, and the edge/both balance modes (the cached
  // loads must mirror the reference's per-call load() exactly in all three).
  WebCrawlParams params;
  params.num_vertices = 2000;
  params.avg_out_degree = 8.0;
  params.seed = 7;
  const Graph graph = generate_webcrawl(params);
  for (BalanceMode mode :
       {BalanceMode::kVertex, BalanceMode::kEdge, BalanceMode::kBoth}) {
    PartitionConfig config;
    config.num_partitions = 8;
    config.balance = mode;
    SpnOptions options{.num_shards = 4};
    SpnPartitioner fused(graph.num_vertices(), graph.num_edges(), config,
                         options);
    ReferenceSpnPartitioner reference(graph.num_vertices(), graph.num_edges(),
                                      config, options);
    EXPECT_EQ(run(graph, fused), run(graph, reference))
        << "balance mode " << static_cast<int>(mode);

    SpnlOptions spnl_options{.num_shards = 4};
    SpnlPartitioner fused_l(graph.num_vertices(), graph.num_edges(), config,
                            spnl_options);
    ReferenceSpnlPartitioner reference_l(graph.num_vertices(), graph.num_edges(),
                                         config, spnl_options);
    EXPECT_EQ(run(graph, fused_l), run(graph, reference_l))
        << "balance mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace spnl

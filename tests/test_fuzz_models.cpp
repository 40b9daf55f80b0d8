// Model-based fuzzing: each core data structure is driven with long random
// operation sequences and cross-checked against a simple reference model
// after every step. Seeds are fixed, so failures are reproducible.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/rct.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace spnl {
namespace {

TEST(FuzzModels, GraphBuilderMatchesEdgeMultiset) {
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    const VertexId n = 2 + static_cast<VertexId>(rng.next_below(50));
    GraphBuilder builder(n);
    std::multiset<std::pair<VertexId, VertexId>> model;
    const int ops = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < ops; ++i) {
      const auto from = static_cast<VertexId>(rng.next_below(n));
      const auto to = static_cast<VertexId>(rng.next_below(n));
      builder.add_edge(from, to);
      model.emplace(from, to);
    }
    const Graph g = builder.finish();
    ASSERT_EQ(g.num_edges(), model.size());
    std::multiset<std::pair<VertexId, VertexId>> rebuilt;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (VertexId u : g.out_neighbors(v)) rebuilt.emplace(v, u);
    }
    ASSERT_EQ(rebuilt, model) << "round " << round;
  }
}

TEST(FuzzModels, GraphBuilderDedupMatchesSetModel) {
  Rng rng(103);
  for (int round = 0; round < 10; ++round) {
    const VertexId n = 2 + static_cast<VertexId>(rng.next_below(30));
    GraphBuilder builder(n);
    std::set<std::pair<VertexId, VertexId>> model;
    for (int i = 0; i < 300; ++i) {
      const auto from = static_cast<VertexId>(rng.next_below(n));
      const auto to = static_cast<VertexId>(rng.next_below(n));
      builder.add_edge(from, to);
      if (from != to) model.emplace(from, to);
    }
    const Graph g = builder.finish(
        {.strip_self_loops = true, .strip_duplicate_edges = true});
    ASSERT_EQ(g.num_edges(), model.size());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (VertexId u : g.out_neighbors(v)) {
        ASSERT_TRUE(model.count({v, u})) << v << "->" << u;
      }
    }
  }
}

TEST(FuzzModels, RctMatchesReferenceCounters) {
  Rng rng(105);
  Rct rct(32);
  std::map<VertexId, std::uint32_t> model;  // registered -> counter
  std::set<VertexId> parked;
  const VertexId universe = 64;
  for (int step = 0; step < 20000; ++step) {
    const auto v = static_cast<VertexId>(rng.next_below(universe));
    switch (rng.next_below(4)) {
      case 0: {  // register
        const bool ok = rct.register_vertex(v);
        const bool expect = model.size() < 32 && !model.count(v);
        ASSERT_EQ(ok, expect);
        if (ok) model[v] = 0;
        break;
      }
      case 1: {  // bump
        rct.bump_if_present(v);
        if (auto it = model.find(v); it != model.end()) ++it->second;
        break;
      }
      case 2: {  // park
        OwnedVertexRecord record{v, {}};
        const bool ok = rct.park(record.view());
        const bool expect = parked.size() < 32 && model.count(v) && model[v] > 0 &&
                            !parked.count(v);
        ASSERT_EQ(ok, expect) << "step " << step;
        if (ok) parked.insert(v);
        break;
      }
      case 3: {  // place with a few random out-neighbors
        std::vector<VertexId> out;
        for (int i = 0; i < 3; ++i) {
          out.push_back(static_cast<VertexId>(rng.next_below(universe)));
        }
        auto released = rct.on_placed(v, out);
        model.erase(v);
        parked.erase(v);
        for (VertexId u : out) {
          if (auto it = model.find(u); it != model.end() && it->second > 0) {
            --it->second;
          }
        }
        for (const auto& record : released) {
          ASSERT_TRUE(parked.count(record.id));
          ASSERT_EQ(model.at(record.id), 0u);
          parked.erase(record.id);
        }
        break;
      }
    }
    // Invariants after every step.
    ASSERT_EQ(rct.size(), model.size());
    ASSERT_EQ(rct.parked_size(), parked.size());
    double expected_mean = 0.0;
    int nonzero = 0;
    for (const auto& [id, count] : model) {
      if (count > 0) {
        expected_mean += count;
        ++nonzero;
      }
    }
    expected_mean = nonzero == 0 ? 0.0 : expected_mean / nonzero;
    ASSERT_DOUBLE_EQ(rct.mean_nonzero_count(), expected_mean) << "step " << step;
    ASSERT_EQ(rct.count(v), model.count(v) ? model[v] : 0u);
  }
}

}  // namespace
}  // namespace spnl

// spnl_gen — generate synthetic graphs in any supported on-disk format.
//
// Usage:
//   spnl_gen --out=graph.adj [--model=webcrawl] [--vertices=100000]
//            [--avg-degree=10] [--locality=0.9] [--locality-scale=64]
//            [--alpha=2.0] [--copy-prob=0.6] [--seed=1]
//            [--mu=0.1] [--communities=8] [--labels=FILE]    (planted only)
//            [--dataset=uk2002 --scale=1.0]         (paper analogues)
//            [--format=adj|edgelist|binary] [--shuffle]
//            [--order=id|random|degree|degree-asc|temporal|adversarial]
//
// Models: webcrawl (default), rmat, er, ring, grid, planted (symmetric
// planted-partition with ground-truth labels; --mu is the inter-community
// mixing, --labels writes the truth one label per line) — or --dataset to
// emit one of the eight paper analogues.
//
// --order relabels the graph by a stream-order attack (graph/reorder.hpp)
// so that streaming the file in ascending id reproduces that order; planted
// labels are permuted alongside. `adversarial` interleaves communities
// round-robin (planted uses its true labels, other models contiguous-block
// pseudo-communities), the worst case for id-locality heuristics.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/stats.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace spnl;
  const CliArgs args(argc, argv);
  if (!args.known_flags_only(
          {"out", "model", "vertices", "avg-degree", "locality",
           "locality-scale", "alpha", "copy-prob", "seed", "mu", "communities",
           "labels", "dataset", "scale", "format", "shuffle", "order",
           "rmat-scale", "edges", "ring-k", "side"})) {
    return 2;
  }
  if (!args.has("out")) {
    std::fprintf(stderr,
                 "usage: spnl_gen --out=FILE [--model=webcrawl|rmat|er|"
                 "ring|grid|planted] [--dataset=NAME --scale=S]\n"
                 "  [--mu=0.1 --communities=8 --labels=FILE] "
                 "[--order=id|random|degree|degree-asc|temporal|adversarial] "
                 "[options]\n");
    return 2;
  }

  try {
    Graph graph;
    std::vector<PartitionId> labels;  // planted ground truth (else empty)
    PartitionId num_communities = 0;
    if (args.has("dataset")) {
      graph = load_dataset(dataset_by_name(args.get("dataset", "")),
                           args.get_double("scale", 1.0));
    } else {
      const std::string model = args.get("model", "webcrawl");
      const auto n = static_cast<VertexId>(args.get_int("vertices", 100'000));
      if (model == "webcrawl") {
        WebCrawlParams params;
        params.num_vertices = n;
        params.avg_out_degree = args.get_double("avg-degree", 10.0);
        params.locality = args.get_double("locality", 0.9);
        params.locality_scale = args.get_double("locality-scale", 64.0);
        params.degree_alpha = args.get_double("alpha", 2.0);
        params.copy_prob = args.get_double("copy-prob", 0.6);
        params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
        graph = generate_webcrawl(params);
      } else if (model == "rmat") {
        RmatParams params;
        params.scale = static_cast<unsigned>(args.get_int("rmat-scale", 16));
        params.num_edges = static_cast<EdgeId>(
            args.get_int("edges", static_cast<std::int64_t>(n) * 8));
        params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
        graph = generate_rmat(params);
      } else if (model == "er") {
        graph = generate_erdos_renyi(
            n, static_cast<EdgeId>(args.get_int("edges", static_cast<std::int64_t>(n) * 8)),
            static_cast<std::uint64_t>(args.get_int("seed", 1)));
      } else if (model == "planted") {
        PlantedPartitionParams params;
        params.num_vertices = n;
        params.num_communities =
            static_cast<PartitionId>(args.get_int("communities", 8));
        params.avg_out_degree = args.get_double("avg-degree", 16.0);
        params.mixing = args.get_double("mu", 0.1);
        params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
        PlantedGraph planted = generate_planted_partition(params);
        graph = std::move(planted.graph);
        labels = std::move(planted.labels);
        num_communities = planted.num_communities;
      } else if (model == "ring") {
        graph = generate_ring_lattice(n, static_cast<unsigned>(args.get_int("ring-k", 4)));
      } else if (model == "grid") {
        const auto side = static_cast<VertexId>(args.get_int("side", 316));
        graph = generate_grid(side, side);
      } else {
        std::fprintf(stderr, "unknown model %s\n", model.c_str());
        return 2;
      }
    }

    if (args.has("labels") && labels.empty()) {
      throw std::runtime_error("--labels needs --model=planted");
    }

    if (args.get_bool("shuffle", false)) {
      graph = random_renumber(graph, static_cast<std::uint64_t>(args.get_int("seed", 1)) + 1);
    }

    if (args.has("order")) {
      const StreamOrder order = stream_order_by_name(args.get("order", "id"));
      const std::vector<VertexId> new_id = make_stream_order(
          graph, order, labels.empty() ? nullptr : &labels,
          labels.empty() ? static_cast<PartitionId>(args.get_int("communities", 8))
                         : num_communities,
          static_cast<std::uint64_t>(args.get_int("seed", 1)) + 2);
      graph = apply_permutation(graph, new_id);
      if (!labels.empty()) {
        std::vector<PartitionId> permuted(labels.size());
        for (VertexId v = 0; v < new_id.size(); ++v) {
          permuted[new_id[v]] = labels[v];
        }
        labels = std::move(permuted);
      }
    }

    const std::string out = args.get("out", "");
    const std::string format = args.get("format", "adj");
    if (format == "adj") {
      write_adjacency_list(graph, out);
    } else if (format == "edgelist") {
      write_edge_list(graph, out);
    } else if (format == "binary") {
      write_binary(graph, out);
    } else {
      std::fprintf(stderr, "unknown format %s\n", format.c_str());
      return 2;
    }
    std::printf("%s\nwrote %s (%s)\n", describe(graph, "generated").c_str(),
                out.c_str(), format.c_str());
    if (args.has("labels")) {
      const std::string labels_path = args.get("labels", "");
      write_route_table(labels, labels_path);
      std::printf("wrote %zu ground-truth labels (%u communities) to %s\n",
                  labels.size(), num_communities, labels_path.c_str());
    }
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

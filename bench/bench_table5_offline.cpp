// Reproduces Table V: SPNL vs offline partitioners (METIS-like multilevel,
// XtraPuLP-like label propagation) on all eight graphs, K = 32, in
// centralized and parallel variants.
//
// Paper shape: multilevel has top quality on some graphs but the largest
// PT/MC and dies (OOM) on the biggest inputs; label-prop is faster but far
// worse in ECR (and parallel label-prop degrades up to 47%); SPNL matches or
// beats multilevel's ECR on crawl graphs at a fraction of the time, and its
// parallel variant loses only a few percent thanks to the RCT.
#include <sstream>

#include "common.hpp"
#include "core/parallel_driver.hpp"
#include "offline/label_prop.hpp"
#include "offline/multilevel.hpp"

using namespace spnl;
using namespace spnl::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 1.0);
  const auto k = static_cast<PartitionId>(args.get_int("k", 32));
  const auto threads = static_cast<unsigned>(args.get_int("threads", 4));

  std::vector<std::string> names;
  if (args.has("datasets")) {
    std::stringstream ss(args.get("datasets", ""));
    for (std::string item; std::getline(ss, item, ',');) names.push_back(item);
  } else {
    for (const auto& spec : paper_datasets()) names.push_back(spec.name);
  }

  print_header("Table V: SPNL vs offline partitioners, K=32 (cent/par)");
  TablePrinter table({"Graph", "ML ECR", "dv", "de", "PT",
                      "LP ECR c/p", "dv", "PT c/p",
                      "SPNL ECR c/p", "dv", "PT c/p"});

  const PartitionConfig config{.num_partitions = k};
  for (const auto& name : names) {
    const Graph graph = load_dataset(dataset_by_name(name), scale);
    std::vector<std::string> row = {name};

    {
      const auto result = multilevel_partition(graph, config);
      const auto metrics = evaluate_partition(graph, result.route, k);
      row.push_back(TablePrinter::fmt(metrics.ecr, 3));
      row.push_back(TablePrinter::fmt(metrics.delta_v, 2));
      row.push_back(TablePrinter::fmt(metrics.delta_e, 2));
      row.push_back(fmt_pt(result.partition_seconds));
    }
    {
      const auto cent = label_prop_partition(graph, config);
      LabelPropOptions par_options;
      par_options.num_threads = threads;
      const auto par = label_prop_partition(graph, config, par_options);
      const auto mc = evaluate_partition(graph, cent.route, k);
      const auto mp = evaluate_partition(graph, par.route, k);
      row.push_back(TablePrinter::fmt(mc.ecr, 3) + "/" + TablePrinter::fmt(mp.ecr, 3));
      row.push_back(TablePrinter::fmt(mc.delta_v, 2) + "/" +
                    TablePrinter::fmt(mp.delta_v, 2));
      row.push_back(fmt_pt(cent.partition_seconds) + "/" +
                    fmt_pt(par.partition_seconds));
    }
    {
      const Outcome cent = run_one(graph, "SPNL", config);
      InMemoryStream stream(graph);
      ParallelOptions options;
      options.num_threads = threads;
      const auto par = run_parallel(stream, config, options);
      const auto mp = evaluate_partition(graph, par.route, k);
      row.push_back(TablePrinter::fmt(cent.quality.ecr, 3) + "/" +
                    TablePrinter::fmt(mp.ecr, 3));
      row.push_back(TablePrinter::fmt(cent.quality.delta_v, 2) + "/" +
                    TablePrinter::fmt(mp.delta_v, 2));
      row.push_back(fmt_pt(cent.seconds) + "/" + fmt_pt(par.partition_seconds));
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nPaper: SPNL up to 40%% lower ECR than METIS and 20x faster; "
              "up to 91%% lower than XtraPuLP; parallel SPNL ECR degradation "
              "<= 6%% (avg 2%%) vs up to 47%% for XtraPuLP.\n");
  return 0;
}

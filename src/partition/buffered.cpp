#include "partition/buffered.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/spnl.hpp"
#include "partition/ldg.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace spnl {

namespace {

/// Per-batch working state shared between seeding and refinement.
struct Batch {
  std::vector<OwnedVertexRecord> records;
  std::vector<PartitionId> labels;
  /// Γ-row snapshot per record: placed-in-neighbor counts contributed by the
  /// committed prefix (flattened records.size() x k). Zero for the LDG seed.
  std::vector<GammaCount> gamma_prior;
  /// In-batch reverse adjacency: for each record, the batch positions of its
  /// in-batch in-neighbors (so agreement is symmetric inside the buffer).
  std::vector<std::vector<std::uint32_t>> in_batch_in_neighbors;
  /// Maps (id - index_base) -> batch position, UINT32_MAX when absent.
  std::vector<std::uint32_t> index;
  VertexId index_base = 0;

  std::uint32_t position_of(VertexId id) const {
    if (id < index_base) return UINT32_MAX;
    const VertexId offset = id - index_base;
    return offset < index.size() ? index[offset] : UINT32_MAX;
  }
};

/// One refinement sweep: move each buffered vertex to the partition with the
/// best capacity-penalized agreement over committed out-neighbors, in-batch
/// neighbors (both directions), the Γ prior, and — mirroring SPNL's logical
/// term — the range prior of still-unseen out-neighbors. Returns moves made.
std::uint64_t refine_buffer(Batch& batch, const std::vector<PartitionId>& route,
                            std::vector<VertexId>& loads, PartitionId k,
                            double capacity, const RangeTable* logical) {
  constexpr double kLogicalWeight = 0.5;
  std::vector<double> agreement(k);
  std::uint64_t moves = 0;
  for (std::size_t i = 0; i < batch.records.size(); ++i) {
    const auto& record = batch.records[i];
    std::fill(agreement.begin(), agreement.end(), 0.0);
    for (VertexId u : record.out) {
      const std::uint32_t j = batch.position_of(u);
      if (j != UINT32_MAX) {
        agreement[batch.labels[j]] += 1.0;
      } else if (u < route.size() && route[u] != kUnassigned) {
        agreement[route[u]] += 1.0;
      } else if (logical != nullptr && u < route.size()) {
        agreement[logical->partition_of(u)] += kLogicalWeight;
      }
    }
    for (std::uint32_t j : batch.in_batch_in_neighbors[i]) {
      agreement[batch.labels[j]] += 1.0;
    }
    for (PartitionId p = 0; p < k; ++p) {
      agreement[p] += batch.gamma_prior[i * k + p];
    }

    const PartitionId current = batch.labels[i];
    PartitionId best = current;
    // Capacity-penalized score as in the streaming rules, with an inertia
    // bonus so near-ties do not oscillate across sweeps.
    double best_score =
        (agreement[current] + 0.5) * (1.0 - loads[current] / capacity);
    for (PartitionId p = 0; p < k; ++p) {
      if (p == current) continue;
      if (static_cast<double>(loads[p]) + 1.0 > capacity) continue;
      const double score = agreement[p] * (1.0 - loads[p] / capacity);
      if (score > best_score) {
        best = p;
        best_score = score;
      }
    }
    if (best != current) {
      --loads[current];
      ++loads[best];
      batch.labels[i] = best;
      ++moves;
    }
  }
  return moves;
}

}  // namespace

BufferedResult buffered_partition(AdjacencyStream& stream,
                                  const PartitionConfig& config,
                                  const BufferedOptions& options) {
  if (options.buffer_size == 0) {
    throw std::invalid_argument("buffered_partition: buffer_size must be >= 1");
  }
  const VertexId n = stream.num_vertices();
  const EdgeId m = stream.num_edges();
  const PartitionId k = config.num_partitions;
  const double capacity = partition_capacity(n, m, config);

  Timer timer;
  // The seeding partitioner scores each batch with the full streaming state
  // (for SPNL: Γ window + logical table). Its internal route reflects the
  // PRE-refinement labels; the authoritative committed state lives in
  // `route`/`committed_loads` below, and refinement deltas are small and
  // local, so the seeder's statistics remain a good scoring prior.
  std::unique_ptr<GreedyStreamingBase> seeder;
  SpnlPartitioner* spnl_seeder = nullptr;
  if (options.seed_rule == BufferSeedRule::kSpnl) {
    auto owned = std::make_unique<SpnlPartitioner>(n, m, config);
    spnl_seeder = owned.get();
    seeder = std::move(owned);
  } else {
    seeder = std::make_unique<LdgPartitioner>(n, m, config);
  }

  BufferedResult result;
  result.route.assign(n, kUnassigned);
  Batch batch;
  batch.records.reserve(options.buffer_size);
  std::vector<VertexId> committed_loads(k, 0);
  std::vector<VertexId> loads(k, 0);

  bool done = false;
  while (!done) {
    batch.records.clear();
    while (batch.records.size() < options.buffer_size) {
      auto record = stream.next();
      if (!record) {
        done = true;
        break;
      }
      batch.records.push_back(OwnedVertexRecord::from(*record));
    }
    if (batch.records.empty()) break;
    ++result.batches;

    VertexId min_id = batch.records.front().id, max_id = batch.records.front().id;
    for (const auto& record : batch.records) {
      min_id = std::min(min_id, record.id);
      max_id = std::max(max_id, record.id);
    }
    batch.index_base = min_id;
    batch.index.assign(static_cast<std::size_t>(max_id - min_id) + 1, UINT32_MAX);
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
      batch.index[batch.records[i].id - min_id] = static_cast<std::uint32_t>(i);
    }

    // Γ prior snapshot BEFORE any batch placement: in-neighbor counts from
    // the committed prefix only (in-batch contributions are covered by the
    // reverse adjacency below — no double counting).
    batch.gamma_prior.assign(batch.records.size() * k, 0);
    if (spnl_seeder != nullptr) {
      for (std::size_t i = 0; i < batch.records.size(); ++i) {
        const auto row = spnl_seeder->gamma().row(batch.records[i].id);
        for (std::size_t p = 0; p < row.size(); ++p) {
          batch.gamma_prior[i * k + p] = row[p];
        }
      }
    }

    // In-batch reverse adjacency.
    batch.in_batch_in_neighbors.assign(batch.records.size(), {});
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
      for (VertexId u : batch.records[i].out) {
        const std::uint32_t j = batch.position_of(u);
        if (j != UINT32_MAX && j != i) {
          batch.in_batch_in_neighbors[j].push_back(static_cast<std::uint32_t>(i));
        }
      }
    }

    // 1. Seed the batch with the streaming rule (tentative labels).
    batch.labels.resize(batch.records.size());
    loads = committed_loads;
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
      batch.labels[i] = seeder->place(batch.records[i].id, batch.records[i].out);
      ++loads[batch.labels[i]];
    }

    // 2. Joint refinement inside the buffer — what pure streaming cannot do:
    //    later records inform earlier ones within the batch.
    for (int sweep = 0; sweep < options.sweeps; ++sweep) {
      if (refine_buffer(batch, result.route, loads, k, capacity,
                        spnl_seeder != nullptr ? &spnl_seeder->logical_table()
                                               : nullptr) == 0) {
        break;
      }
    }

    // 3. Commit the refined labels as the authoritative assignment.
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
      result.route[batch.records[i].id] = batch.labels[i];
      ++committed_loads[batch.labels[i]];
    }
    std::size_t batch_bytes = vector_bytes(batch.index) +
                              vector_bytes(batch.labels) +
                              vector_bytes(batch.gamma_prior) +
                              batch.records.capacity() * sizeof(batch.records[0]);
    for (const auto& list : batch.in_batch_in_neighbors) {
      batch_bytes += vector_bytes(list);
    }
    result.peak_bytes = std::max(result.peak_bytes,
                                 seeder->memory_footprint_bytes() + batch_bytes);
  }

  result.partition_seconds = timer.seconds();
  return result;
}

}  // namespace spnl

// The vectorized, morsel-driven OLAP executor (paper §5: columnar storage +
// parallel analytical execution; DuckDB-style pipelines, HyPer-style morsel
// scheduling, cluster-wide partial aggregation per "Fast OLAP Query
// Execution in Main Memory on Large Data in a Cluster").
//
// A planned volcano tree is translated into source→sink pipelines:
// scans/filters/projections/hash-probes stream batches, while hash builds,
// aggregations, sorts, and DISTINCT break pipelines and materialize. Each
// pipeline's source is split into morsels (columnar: one per stripe, with
// min/max pruning; heap/temp: fixed row ranges) executed by a pool of
// simulated worker processes sharing the node's cores, which is what turns
// multi-core parallelism into real simulated-time speedup.
//
// Unsupported plan shapes (index scans, row locking, nested-loop joins)
// decline translation and fall back to the volcano path, which doubles as
// the differential-testing oracle behind citus.use_vectorized_executor.
#ifndef CITUSX_EXEC_VECTORIZED_H_
#define CITUSX_EXEC_VECTORIZED_H_

#include "engine/hooks.h"

namespace citusx::exec {

/// Install the vectorized executor on `node` (idempotent). Called by the
/// Citus extension on every node, and directly by engine-level tests.
void InstallVectorizedExecutor(engine::Node* node);

}  // namespace citusx::exec

#endif  // CITUSX_EXEC_VECTORIZED_H_

#ifndef SIGMUND_PIPELINE_DATA_PLACEMENT_H_
#define SIGMUND_PIPELINE_DATA_PLACEMENT_H_

#include <map>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "data/retailer_data.h"
#include "data/serialization.h"
#include "pipeline/registry.h"
#include "sfs/reliable_io.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::pipeline {

// Plans and executes the migration of training-data shards to the cells
// where computation runs (§IV-B1 of the paper: "We identify data centers
// that have unused resources, and break down the job into several
// independent MapReduces so that there is one for each data center. Since
// training using SGD iterates over the data multiple times, we simply
// migrate the training data to the data center where the computation is
// run. The cost of training is dominated by the CPU cost of making SGD
// steps, and the network cost of moving the data usually ends up
// producing a net benefit.")
//
// Retailers are spread across cells with first-fit-decreasing by
// interaction count (the SGD-cost proxy); shards whose data currently
// lives in another cell are copied through the shared filesystem, with
// bytes accounted in a FileTransferLedger.
class DataPlacementPlanner {
 public:
  struct Options {
    // Cell names with spare capacity, in preference order.
    std::vector<std::string> cells;
    // Network price, for the migrate-vs-local cost analysis.
    double dollars_per_gb = 0.01;
    // CPU price per SGD-step-second equivalent (training compute).
    double dollars_per_cpu_hour_saved = 0.028;  // regular - preemptible
  };

  // Where each retailer's data shard should live for the next run.
  struct Plan {
    std::map<data::RetailerId, std::string> home_cell;
    // Simulated per-cell SGD work (sum of interaction counts).
    std::map<std::string, int64_t> cell_work;
  };

  DataPlacementPlanner(sfs::SharedFileSystem* fs, const Options& options)
      : fs_(fs), options_(options) {}

  // Balances retailers across cells by interaction count (FFD).
  Plan PlanPlacement(const RetailerRegistry& registry) const;

  // Writes each retailer's serialized shard (CRC-framed, read-back
  // verified) to its planned cell path ("cells/<cell>/data/r<id>"),
  // recording cross-cell transfers (a shard already present in the right
  // cell is not rewritten). `previous` maps retailer -> cell where its
  // shard currently lives ("" = not stored). Transient SFS errors are
  // retried per `policy`; `io`, if given, counts retries and corruptions
  // into its registry.
  Status Materialize(const RetailerRegistry& registry, const Plan& plan,
                     const std::map<data::RetailerId, std::string>& previous,
                     sfs::FileTransferLedger* ledger,
                     const RetryPolicy& policy = {},
                     sfs::ReliableIoCounters* io = nullptr) const;

  // The SFS path of a retailer's shard within a cell.
  static std::string ShardPath(const std::string& cell,
                               data::RetailerId retailer);

  // Dollar cost of the migration recorded in `ledger`.
  double MigrationCost(const sfs::FileTransferLedger& ledger) const;

 private:
  sfs::SharedFileSystem* fs_;
  Options options_;
};

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_DATA_PLACEMENT_H_

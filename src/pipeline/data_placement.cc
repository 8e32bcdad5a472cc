#include "pipeline/data_placement.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "pipeline/binpack.h"

namespace sigmund::pipeline {

std::string DataPlacementPlanner::ShardPath(const std::string& cell,
                                            data::RetailerId retailer) {
  return StrFormat("cells/%s/data/r%d", cell.c_str(), retailer);
}

DataPlacementPlanner::Plan DataPlacementPlanner::PlanPlacement(
    const RetailerRegistry& registry) const {
  SIGCHECK(!options_.cells.empty());
  std::vector<PackItem> items;
  for (data::RetailerId id : registry.Ids()) {
    StatusOr<const data::RetailerData*> data = registry.Get(id);
    SIGCHECK(data.ok());
    items.push_back(
        PackItem{id, static_cast<double>((*data)->TotalInteractions())});
  }
  auto bins =
      FirstFitDecreasing(items, static_cast<int>(options_.cells.size()));

  Plan plan;
  for (size_t cell = 0; cell < bins.size(); ++cell) {
    const std::string& name = options_.cells[cell];
    int64_t work = 0;
    for (const PackItem& item : bins[cell]) {
      plan.home_cell[static_cast<data::RetailerId>(item.id)] = name;
      work += static_cast<int64_t>(item.weight);
    }
    plan.cell_work[name] = work;
  }
  return plan;
}

Status DataPlacementPlanner::Materialize(
    const RetailerRegistry& registry, const Plan& plan,
    const std::map<data::RetailerId, std::string>& previous,
    sfs::FileTransferLedger* ledger, const RetryPolicy& policy,
    sfs::ReliableIoCounters* io) const {
  const RetryStats* retry_stats = sfs::RetryStatsOf(io);
  for (const auto& [retailer, cell] : plan.home_cell) {
    StatusOr<const data::RetailerData*> data = registry.Get(retailer);
    if (!data.ok()) return data.status();

    auto it = previous.find(retailer);
    const std::string previous_cell =
        it == previous.end() ? std::string() : it->second;
    const std::string path = ShardPath(cell, retailer);
    if (previous_cell == cell && fs_->Exists(path)) {
      continue;  // already local to the compute cell
    }

    std::string shard = data::SerializeRetailerData(**data);
    const int64_t bytes = static_cast<int64_t>(shard.size());
    SIGMUND_RETURN_IF_ERROR(
        sfs::WriteChecksummedFile(fs_, path, shard, policy, io));
    if (!previous_cell.empty() && previous_cell != cell) {
      // Cross-cell copy; drop the stale replica (best effort with retry:
      // a leftover replica wastes space but is never read).
      ledger->RecordTransfer(previous_cell, cell, bytes);
      Status s = RetryWithPolicy(policy, retry_stats, [&] {
        Status d = fs_->Delete(ShardPath(previous_cell, retailer));
        if (d.code() == StatusCode::kNotFound) return OkStatus();
        return d;
      });
      if (!s.ok()) return s;
    } else if (previous_cell.empty()) {
      // First upload from the ingestion system (outside any cell).
      ledger->RecordTransfer("ingest", cell, bytes);
    }
  }
  return OkStatus();
}

double DataPlacementPlanner::MigrationCost(
    const sfs::FileTransferLedger& ledger) const {
  return options_.dollars_per_gb *
         (static_cast<double>(ledger.total_bytes()) / (1024.0 * 1024.0 *
                                                       1024.0));
}

}  // namespace sigmund::pipeline

#include "warehouse/warehouse.h"

#include "common/strings.h"
#include "compress/codec.h"

namespace bistro {

Status StreamWarehouse::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case MessageType::kFileData: {
      BISTRO_RETURN_IF_ERROR(VerifyPayloadCrc(msg));
      // Files without a data timestamp go to the epoch partition rather
      // than being dropped (they still carry rows).
      TimePoint start = PartitionStart(msg.data_time);
      Partition& p = partitions_[start];
      // Feeds may deliver compressed staging copies; expand transparently.
      BISTRO_ASSIGN_OR_RETURN(std::string content, AutoDecompress(msg.payload));
      p.raw[msg.name] = std::move(content);
      dirty_.insert(start);
      ++files_received_;
      return Status::OK();
    }
    default:
      return Status::OK();  // notifications/batch markers need no storage
  }
}

size_t StreamWarehouse::RecomputeDirty() {
  size_t recomputed = 0;
  for (TimePoint start : dirty_) {
    auto it = partitions_.find(start);
    if (it == partitions_.end()) continue;
    Recompute(start, &it->second);
    ++recomputed;
  }
  dirty_.clear();
  return recomputed;
}

void StreamWarehouse::Recompute(TimePoint start, Partition* p) {
  // Full recomputation from the partition's raw files — the paper's
  // "simpler method of recalculating [a] small set of affected recent
  // partitions" in place of incremental view maintenance.
  PartitionView view;
  view.start = start;
  view.recomputes = p->view.recomputes + 1;
  view.raw_files = p->raw.size();
  for (const auto& [name, content] : p->raw) {
    (void)name;
    for (const auto& line : Split(content, '\n')) {
      if (Trim(line).empty()) continue;
      auto fields = Split(line, ',');
      if (fields.size() < 2) {
        view.bad_rows++;
        continue;
      }
      // Last numeric field is the value.
      std::optional<double> value;
      for (auto it = fields.rbegin(); it != fields.rend(); ++it) {
        value = ParseDouble(Trim(*it));
        if (value) break;
      }
      if (!value) {
        view.bad_rows++;
        continue;
      }
      auto& [count, sum] = view.by_entity[fields[0]];
      count++;
      sum += *value;
      view.rows++;
    }
  }
  p->view = std::move(view);
  p->computed = true;
  ++total_recomputes_;
}

Result<PartitionView> StreamWarehouse::View(TimePoint t) const {
  auto it = partitions_.find(PartitionStart(t));
  if (it == partitions_.end() || !it->second.computed) {
    return Status::NotFound(
        StrFormat("no computed partition at %s", FormatTime(t).c_str()));
  }
  return it->second.view;
}

}  // namespace bistro

#include "src/dne/rbr_table.h"

namespace nadino {

bool RbrTable::Insert(uint64_t wr_id, Buffer* buffer, TenantId tenant) {
  return entries_.emplace(wr_id, Entry{buffer, tenant}).second;
}

Buffer* RbrTable::Consume(uint64_t wr_id, TenantId tenant) {
  const auto it = entries_.find(wr_id);
  if (it == entries_.end() || it->second.tenant != tenant) {
    ++mismatches_;
    return nullptr;
  }
  Buffer* buffer = it->second.buffer;
  entries_.erase(it);
  Consumed& consumed = consumed_[tenant];
  ++consumed.count;
  if (!consumed.listed) {
    consumed.listed = true;
    due_.push_back(tenant);
  }
  return buffer;
}

uint64_t RbrTable::TakeConsumedCount(TenantId tenant) {
  const auto it = consumed_.find(tenant);
  if (it == consumed_.end()) {
    return 0;
  }
  const uint64_t n = it->second.count;
  it->second.count = 0;
  return n;
}

void RbrTable::TakeDueTenants(std::vector<TenantId>* out) {
  for (const TenantId tenant : due_) {
    consumed_[tenant].listed = false;
    out->push_back(tenant);
  }
  due_.clear();
}

}  // namespace nadino
